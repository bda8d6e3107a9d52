//! Pieces shared by every workload: the explicit machine configuration,
//! the seeded input generator, the in-memory span recorder and the
//! per-round result every workload returns.

use std::collections::BTreeMap;
use std::time::Instant;

use spsim::{DeliveryPath, FaultPlan, MachineConfig};

/// The fabric a workload runs on. Every field the environment could
/// otherwise select (`SPSIM_FAULT_PROFILE`, `SPSIM_DELIVERY`) is set here,
/// so no environment variable can change a workload.
#[derive(Clone, Copy, Debug)]
pub enum Fabric {
    /// A clean switch: the adapter's reliability protocol never arms.
    Lossless,
    /// The `lossy` profile's values: 10% drop and 2% duplication on every
    /// link.
    Lossy,
}

/// The paper's calibrated machine with every environment-derived field
/// pinned.
pub fn machine(fabric: Fabric) -> MachineConfig {
    let mut cfg = MachineConfig::sp_p2sc_120();
    let (drop_prob, dup_prob) = match fabric {
        Fabric::Lossless => (0.0, 0.0),
        Fabric::Lossy => (0.10, 0.02),
    };
    cfg.drop_prob = drop_prob;
    cfg.dup_prob = dup_prob;
    cfg.ack_drop_prob = None;
    cfg.faults = FaultPlan::new();
    cfg.delivery_path = DeliveryPath::Rings;
    cfg.mpl_eager_limit = 4096;
    cfg
}

/// SplitMix64: the seeded generator behind every workload input.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` seeded bytes.
pub fn pattern(seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut k = 0u64;
    while out.len() < len {
        out.extend_from_slice(&mix(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)).to_le_bytes());
        k += 1;
    }
    out.truncate(len);
    out
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Host seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// One recorded span: a timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `lapi.put_wait`.
    pub name: &'static str,
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Rank that made the call.
    pub rank: u32,
    /// Host ns since the round started.
    pub start_ns: u64,
    /// Host ns since the round started.
    pub end_ns: u64,
}

impl Span {
    /// Host µs the call took.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder, one per rank. With tracing off every call is
/// a no-op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rank: u32,
    next_op: u64,
    /// Spans recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `rank` whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant, rank: u32) -> Self {
        Tracer {
            on,
            epoch,
            rank,
            next_op: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh operation id, unique across ranks.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        (u64::from(self.rank) << 40) | self.next_op
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<u32>) -> Option<u32> {
        if !self.on {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            rank: self.rank,
            start_ns: t,
            end_ns: t,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, idx: Option<u32>) {
        if let Some(i) = idx {
            let t = self.now_ns();
            self.spans[i as usize].end_ns = t;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, op, parent);
        let r = f();
        self.end(s);
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Output checks of one round.
#[derive(Default)]
pub struct Checks {
    /// Operations (or outputs) checked.
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one attempted operation; `ok == false` marks it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Fold another rank's checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Everything one round of a workload measured.
#[derive(Default)]
pub struct Round {
    /// Round start to the first timed op.
    pub setup_s: f64,
    /// Host seconds of the timed (closed-loop) phase.
    pub timed_s: f64,
    /// The whole round, teardown included.
    pub wall_s: f64,
    /// `LapiWorld`/`MplWorld::init_seeded`, `Network::new` included.
    pub init_s: f64,
    /// `run_spmd_with` call to the last closure entry.
    pub spawn_s: f64,
    /// Last closure exit to the `run_spmd_with` return.
    pub join_s: f64,
    /// Simulated operations completed in the timed phase.
    pub ops: u64,
    /// Simulated payload bytes those operations moved.
    pub payload_bytes: u64,
    /// Host µs of every timed operation.
    pub op_us: Vec<f64>,
    /// Largest |measured/paper − 1| × 100 over the workload's anchors.
    pub vt_err_pct: f64,
    /// Payload bytes per virtual second.
    pub vt_mb_per_s: f64,
    /// Per-layer values the workload measured itself (name, value, unit);
    /// virtual-time ones are deterministic on every workload but `scf`.
    pub layer: Vec<(&'static str, f64, &'static str)>,
    /// Layer counters read after the run.
    pub counts: BTreeMap<&'static str, u64>,
    /// Output checks.
    pub checks: Checks,
    /// Spans of every rank (empty with tracing off).
    pub spans: Vec<Span>,
}

/// Entry/exit instants of one rank's closure plus its timed-phase bounds.
#[derive(Clone, Copy)]
pub struct NodeTimes {
    pub entered: Instant,
    pub start: Instant,
    pub end: Instant,
    pub exited: Instant,
}

impl NodeTimes {
    pub fn new() -> Self {
        let t = Instant::now();
        NodeTimes {
            entered: t,
            start: t,
            end: t,
            exited: t,
        }
    }
}

/// Fill the runtime and phase timings of `r` from the ranks' instants.
pub fn fill_times(
    r: &mut Round,
    round_start: Instant,
    spawn_call: Instant,
    returned: Instant,
    times: &[NodeTimes],
) {
    let last_entry = times.iter().map(|t| t.entered).max().unwrap_or(spawn_call);
    let last_exit = times.iter().map(|t| t.exited).max().unwrap_or(returned);
    let first_start = times.iter().map(|t| t.start).min().unwrap_or(spawn_call);
    let last_end = times.iter().map(|t| t.end).max().unwrap_or(returned);
    r.spawn_s = secs(spawn_call, last_entry);
    r.join_s = secs(last_exit, returned);
    r.setup_s = secs(round_start, first_start);
    r.timed_s = secs(first_start, last_end);
}

/// Sum the adapter counters of a world into `counts`.
pub fn add_wire(counts: &mut BTreeMap<&'static str, u64>, w: &spswitch::AdapterStats) {
    *counts.entry("switch.packets_sent").or_default() += w.packets_sent.get();
    *counts.entry("switch.bytes_sent").or_default() += w.bytes_sent.get();
    *counts.entry("switch.retransmits").or_default() += w.retransmits.get();
    *counts.entry("switch.acks_sent").or_default() += w.acks_sent.get();
    *counts.entry("switch.dups_suppressed").or_default() += w.dups_suppressed.get();
    *counts.entry("switch.timeouts").or_default() += w.timeouts.get();
}

/// Sum the LAPI dispatcher counters of a world into `counts`.
pub fn add_lapi(counts: &mut BTreeMap<&'static str, u64>, s: &lapi::LapiStats) {
    *counts.entry("lapi.packets_dispatched").or_default() += s.packets_dispatched.get();
    *counts.entry("lapi.hdr_handlers").or_default() += s.hdr_handlers.get();
    *counts.entry("lapi.done_sent").or_default() += s.done_sent.get();
    *counts.entry("lapi.interrupts").or_default() += s.interrupts.get();
    *counts.entry("lapi.early_am_data").or_default() += s.early_am_data.get();
}

/// Sum the MPL matching-engine counters of a world into `counts`.
pub fn add_mpl(counts: &mut BTreeMap<&'static str, u64>, s: &mpl::MplStats) {
    *counts.entry("mpl.eager_msgs").or_default() += s.eager_msgs.get();
    *counts.entry("mpl.rndv_msgs").or_default() += s.rndv_msgs.get();
    *counts.entry("mpl.unexpected").or_default() += s.unexpected.get();
}

/// Concatenate per-recorder span lists, rebasing parent indices.
pub fn merge_spans(lists: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}
