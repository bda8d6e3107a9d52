//! The committed wall-clock performance lane (`perf_lane` binary).
//!
//! Unlike the experiment modules — which report *virtual-time* results —
//! this lane measures how fast the simulator itself runs on the host:
//!
//! * **delivery-queue throughput** (simulated packets drained per second of
//!   real time) through both delivery paths: the SPSC rings and the legacy
//!   mutexed `TimedQueue`, with the same multi-producer/single-consumer
//!   shape the switch produces. The rings/heap ratio is the tentpole
//!   speedup this lane exists to pin down;
//! * **adapter-level packet rate**: an end-to-end many-to-one packet storm
//!   through `Network`/`Adapter` under each path;
//! * **sweep runtimes**: wall-clock seconds for the quick Figure 2 and
//!   Figure 3 reproductions, the numbers a contributor actually waits on;
//! * **scheduler handoff** (ladder rung L0): wall-clock ns per fiber →
//!   fiber park/unpark round trip on the pooled scheduler, the cost every
//!   simulated packet wake pays. Recorded, not gated;
//! * **node-count scaling**: end-to-end wall-clock seconds and
//!   simulated-packets/sec for a ring-neighbor SPMD job at
//!   n ∈ {4, 64, 256, 1024} under the M:N pooled scheduler, plus a
//!   thread-per-node run at n = 4 so the pooled-vs-threads delta is on
//!   record (at 1024 nodes the legacy path would need ~3000 OS threads;
//!   the pooled path runs it on `SPSIM_WORKERS`).
//!
//! Results are written as flat JSON (`BENCH_6.json` was the first committed
//! baseline; `BENCH_10.json` adds the scaling lane) and re-checked in CI:
//! a packets/sec regression of more than 20% against the committed
//! baseline fails the `--check` invocation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use spsim::{DeliveryPath, DeliveryQueue, DeliveryRings, MachineConfig, TimedQueue, VTime};
use spswitch::{Network, WirePacket};

/// Producers in the queue microbenchmark (the switch's shape: one lane per
/// source node, several nodes sending at one receiver).
const QUEUE_PRODUCERS: usize = 4;
/// Packets per producer in the queue microbenchmark.
const QUEUE_PER_PRODUCER: usize = 150_000;
/// Ring capacity for the queue microbenchmark: small enough that the
/// working set stays in cache (the simulator's own default of 4096 is
/// headroom against backpressure, which this bounded drain never needs).
const QUEUE_RING_CAPACITY: usize = 512;
/// Repetitions per path; the median filters single-core scheduler noise.
const QUEUE_REPS: usize = 3;
/// Senders in the adapter storm (nodes 1..=SENDERS, all sending to node 0).
const STORM_SENDERS: usize = 3;
/// Packets per sender in the adapter storm.
const STORM_PER_SENDER: usize = 50_000;
/// Node counts for the scaling lane.
const SCALE_NODES: [usize; 4] = [4, 64, 256, 1024];
/// Packets each node sends to its ring neighbor in the scaling lane —
/// small, because the quantity under test is the per-node scheduling cost,
/// not steady-state delivery throughput (the storm above covers that).
const SCALE_PER_NODE: usize = 32;
/// Round trips per handoff measurement: fixed work of at least 200 ms at
/// the ~0.8 µs a round trip costs on a 2-core x86-64 host.
const HANDOFF_ROUND_TRIPS: usize = 300_000;
/// Repetitions of the handoff measurement; the lane records the median.
const HANDOFF_REPS: usize = 5;

/// One node-count point of the scaling lane.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Simulated nodes in the SPMD job.
    pub nodes: usize,
    /// End-to-end wall-clock seconds (pooled scheduler).
    pub secs: f64,
    /// Simulated packets delivered per wall-clock second.
    pub pps: f64,
}

/// One full run of the lane.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Queue-drain throughput through the SPSC rings (packets/sec).
    pub queue_rings_pps: f64,
    /// Queue-drain throughput through the legacy `TimedQueue` (packets/sec).
    pub queue_heap_pps: f64,
    /// End-to-end adapter packet rate under the ring path (packets/sec).
    pub adapter_rings_pps: f64,
    /// End-to-end adapter packet rate under the heap path (packets/sec).
    pub adapter_heap_pps: f64,
    /// Wall-clock seconds for the quick Figure 2 sweep.
    pub fig2_quick_secs: f64,
    /// Wall-clock seconds for the quick Figure 3 sweep.
    pub fig3_quick_secs: f64,
    /// Wall-clock ns per fiber → fiber park/unpark round trip (pooled
    /// scheduler, default worker count).
    pub sched_handoff_ns: f64,
    /// The node-count scaling lane (pooled scheduler), one point per entry
    /// of [`SCALE_NODES`].
    pub scale: Vec<ScalePoint>,
    /// Thread-per-node wall-clock seconds at n = 4 (`SPSIM_SCHED=threads`),
    /// the pooled-vs-threads comparison point.
    pub scale_n4_threads_secs: f64,
}

impl PerfReport {
    /// rings / heap queue throughput — the tentpole speedup.
    pub fn queue_ratio(&self) -> f64 {
        self.queue_rings_pps / self.queue_heap_pps
    }
}

fn packet(src: usize, i: usize) -> WirePacket<u64> {
    WirePacket {
        src,
        dst: 0,
        wire_bytes: 1024,
        route: i % 4,
        seq: i as u64,
        injected_at: VTime::from_ns(i as u64),
        body: i as u64,
    }
}

/// Simulated-packets/sec drained through one delivery path: N producer
/// threads push timestamped packets while one consumer drains, the same
/// contention shape the per-port receive queue sees under many-to-one
/// traffic.
pub fn measure_queue_pps(path: DeliveryPath) -> f64 {
    let mut runs: Vec<f64> = (0..QUEUE_REPS)
        .map(|_| measure_queue_pps_with(path, QUEUE_PER_PRODUCER))
        .collect();
    runs.sort_by(|a, b| a.total_cmp(b));
    runs[runs.len() / 2]
}

fn measure_queue_pps_with(path: DeliveryPath, per_producer: usize) -> f64 {
    let q: DeliveryQueue<WirePacket<u64>> = match path {
        DeliveryPath::Rings => {
            DeliveryQueue::Rings(DeliveryRings::new(QUEUE_PRODUCERS, QUEUE_RING_CAPACITY))
        }
        DeliveryPath::Heap => DeliveryQueue::Heap(TimedQueue::new()),
    };
    let total = QUEUE_PRODUCERS * per_producer;
    let start = Instant::now();
    std::thread::scope(|s| {
        for lane in 0..QUEUE_PRODUCERS {
            let q = &q;
            s.spawn(move || {
                for i in 0..per_producer {
                    // Monotone per-lane timestamps, interleaved across lanes.
                    let at = VTime::from_ns((i * QUEUE_PRODUCERS + lane) as u64 * 100);
                    q.push_from(lane, at, packet(lane, i));
                }
            });
        }
        let q = &q;
        s.spawn(move || {
            let mut got = 0usize;
            while got < total {
                match q.try_recv() {
                    Ok(Some(_)) => got += 1,
                    Ok(None) => std::thread::yield_now(),
                    Err(_) => break,
                }
            }
        });
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// End-to-end adapter packet rate: a many-to-one storm through the full
/// `Network`/`Adapter` stack (link reservation, routing, trace, delivery)
/// with the reliability protocol disarmed, under the given delivery path.
pub fn measure_adapter_pps(path: DeliveryPath) -> f64 {
    let cfg = Arc::new(
        MachineConfig::default()
            .with_no_faults()
            .with_delivery_path(path),
    );
    let ads = Network::<u64>::new(STORM_SENDERS + 1, cfg, 0x6E6C).into_adapters();
    let total = STORM_SENDERS * STORM_PER_SENDER;
    let start = Instant::now();
    std::thread::scope(|s| {
        let (sink, senders) = ads.split_first().expect("nonempty network");
        for a in senders {
            s.spawn(move || {
                for i in 0..STORM_PER_SENDER {
                    // Spaced injections: the wall-clock cost under test is
                    // the delivery machinery, not ejection-link queueing.
                    a.send_at(VTime::from_us(i as u64 * 50), 0, 64, i as u64);
                }
            });
        }
        s.spawn(move || {
            let mut got = 0usize;
            while got < total {
                match sink.rx().try_recv() {
                    Ok(Some(_)) => got += 1,
                    Ok(None) => std::thread::yield_now(),
                    Err(_) => break,
                }
            }
        });
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// Wall-clock ns per fiber → fiber park/unpark round trip: two pooled
/// fibers pass a token through a [`spsim::SimCondvar`], each pass one
/// unpark of the partner and one park of the passer. Median of
/// [`HANDOFF_REPS`] runs of [`HANDOFF_ROUND_TRIPS`] round trips.
pub fn measure_sched_handoff_ns() -> f64 {
    let mut runs: Vec<f64> = (0..HANDOFF_REPS)
        .map(|_| measure_sched_handoff_ns_with(HANDOFF_ROUND_TRIPS))
        .collect();
    runs.sort_by(|a, b| a.total_cmp(b));
    runs[runs.len() / 2]
}

fn measure_sched_handoff_ns_with(round_trips: usize) -> f64 {
    let passes = 2 * round_trips;
    // (whose turn, passes so far)
    let token = parking_lot::Mutex::new((0usize, 0usize));
    let cv = spsim::SimCondvar::new();
    let start = Instant::now();
    spsim::run_spmd(2, |rank| {
        let mut g = token.lock();
        loop {
            while g.0 != rank && g.1 < passes {
                cv.wait(&mut g);
            }
            if g.1 >= passes {
                return;
            }
            g.0 = 1 - rank;
            g.1 += 1;
            cv.notify_one();
        }
    });
    start.elapsed().as_nanos() as f64 / round_trips as f64
}

/// End-to-end SPMD wall clock for an `n`-node ring-neighbor job: every
/// node injects [`SCALE_PER_NODE`] packets toward `(rank + 1) % n` and
/// drains as many, through the full `Network`/`Adapter` stack and
/// `run_spmd_with`'s node scheduling. The drain loop yields through the
/// scheduler so the job completes on a single pooled worker.
fn run_ring_job(n: usize, per_node: usize) -> f64 {
    let cfg = Arc::new(MachineConfig::default().with_no_faults());
    let ads = Network::<u64>::new(n, cfg, 0x5CA1E).into_adapters();
    let start = Instant::now();
    spsim::run_spmd_with(ads, move |rank, a| {
        let dst = (rank + 1) % n;
        for i in 0..per_node {
            // Spaced injections, as in the adapter storm above.
            a.send_at(VTime::from_us(i as u64 * 50), dst, 64, i as u64);
        }
        let mut got = 0usize;
        while got < per_node {
            match a.rx().try_recv() {
                Ok(Some(_)) => got += 1,
                Ok(None) => spsim::yield_now(),
                Err(_) => break,
            }
        }
    });
    start.elapsed().as_secs_f64()
}

/// One scaling-lane point under the (default) pooled scheduler.
pub fn measure_scale_point(n: usize) -> ScalePoint {
    let secs = run_ring_job(n, SCALE_PER_NODE);
    ScalePoint {
        nodes: n,
        secs,
        pps: (n * SCALE_PER_NODE) as f64 / secs,
    }
}

/// The same ring job under the legacy thread-per-node scheduler.
pub fn measure_scale_threads_secs(n: usize) -> f64 {
    spsim::set_sched_mode(Some(spsim::SchedMode::Threads));
    let secs = run_ring_job(n, SCALE_PER_NODE);
    spsim::set_sched_mode(None);
    secs
}

/// Run the whole lane (several minutes of wall clock for the sweeps).
pub fn run_full() -> PerfReport {
    let queue_heap_pps = measure_queue_pps(DeliveryPath::Heap);
    let queue_rings_pps = measure_queue_pps(DeliveryPath::Rings);
    let adapter_heap_pps = measure_adapter_pps(DeliveryPath::Heap);
    let adapter_rings_pps = measure_adapter_pps(DeliveryPath::Rings);
    let t = Instant::now();
    let _ = crate::experiments::fig2::run(true);
    let fig2_quick_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = crate::experiments::fig3::run(true);
    let fig3_quick_secs = t.elapsed().as_secs_f64();
    let sched_handoff_ns = measure_sched_handoff_ns();
    let scale = SCALE_NODES
        .iter()
        .map(|&n| measure_scale_point(n))
        .collect();
    let scale_n4_threads_secs = measure_scale_threads_secs(4);
    PerfReport {
        queue_rings_pps,
        queue_heap_pps,
        adapter_rings_pps,
        adapter_heap_pps,
        fig2_quick_secs,
        fig3_quick_secs,
        sched_handoff_ns,
        scale,
        scale_n4_threads_secs,
    }
}

/// Render the report as flat JSON (no serde in this workspace — the format
/// is one object of numeric fields, parseable by [`parse_flat_json`]).
pub fn to_json(r: &PerfReport) -> String {
    // Rates keep one decimal; the scaling-lane seconds keep four (a 4-node
    // job finishes in milliseconds and would round to 0.0).
    let mut fields: Vec<(String, String)> = vec![
        (
            "queue_rings_pps".into(),
            format!("{:.1}", r.queue_rings_pps),
        ),
        ("queue_heap_pps".into(), format!("{:.1}", r.queue_heap_pps)),
        ("queue_ratio".into(), format!("{:.1}", r.queue_ratio())),
        (
            "adapter_rings_pps".into(),
            format!("{:.1}", r.adapter_rings_pps),
        ),
        (
            "adapter_heap_pps".into(),
            format!("{:.1}", r.adapter_heap_pps),
        ),
        (
            "fig2_quick_secs".into(),
            format!("{:.1}", r.fig2_quick_secs),
        ),
        (
            "fig3_quick_secs".into(),
            format!("{:.1}", r.fig3_quick_secs),
        ),
        (
            "sched_handoff_ns".into(),
            format!("{:.1}", r.sched_handoff_ns),
        ),
    ];
    for p in &r.scale {
        fields.push((format!("scale_n{}_secs", p.nodes), format!("{:.4}", p.secs)));
        fields.push((format!("scale_n{}_pps", p.nodes), format!("{:.1}", p.pps)));
    }
    fields.push((
        "scale_n4_threads_secs".into(),
        format!("{:.4}", r.scale_n4_threads_secs),
    ));
    let mut s = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        s.push_str(&format!("  \"{k}\": {v}{comma}\n"));
    }
    s.push_str("}\n");
    s
}

/// Parse the flat JSON written by [`to_json`]: one object, numeric values.
/// Unknown or non-numeric entries are ignored.
pub fn parse_flat_json(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = val.trim().parse::<f64>() {
            out.insert(key.to_string(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let r = PerfReport {
            queue_rings_pps: 3_000_000.0,
            queue_heap_pps: 1_000_000.0,
            adapter_rings_pps: 500_000.5,
            adapter_heap_pps: 400_000.0,
            fig2_quick_secs: 12.25,
            fig3_quick_secs: 8.5,
            sched_handoff_ns: 4_321.25,
            scale: vec![ScalePoint {
                nodes: 4,
                secs: 0.0125,
                pps: 10_240.0,
            }],
            scale_n4_threads_secs: 0.025,
        };
        let parsed = parse_flat_json(&to_json(&r));
        assert_eq!(parsed["queue_rings_pps"], 3_000_000.0);
        assert_eq!(parsed["queue_ratio"], 3.0);
        assert_eq!(parsed["fig2_quick_secs"], 12.2, "one decimal place");
        assert_eq!(parsed["scale_n4_secs"], 0.0125, "four decimal places");
        assert_eq!(parsed["scale_n4_pps"], 10_240.0);
        assert_eq!(parsed["scale_n4_threads_secs"], 0.025);
        assert_eq!(parsed["sched_handoff_ns"], 4_321.2);
        assert_eq!(parsed.len(), 11);
    }

    #[test]
    fn queue_lane_measures_both_paths() {
        // Smoke test at tiny volume: both paths drain to completion and
        // report a positive rate.
        assert!(measure_queue_pps_with(DeliveryPath::Heap, 2_000) > 0.0);
        assert!(measure_queue_pps_with(DeliveryPath::Rings, 2_000) > 0.0);
    }

    #[test]
    fn handoff_rung_completes_and_reports_a_cost() {
        assert!(measure_sched_handoff_ns_with(1_000) > 0.0);
    }

    #[test]
    fn scaling_lane_runs_under_both_schedulers() {
        // Small job: the lane completes pooled and threaded and reports
        // positive wall-clock times.
        let p = measure_scale_point(4);
        assert_eq!(p.nodes, 4);
        assert!(p.secs > 0.0 && p.pps > 0.0);
        assert!(measure_scale_threads_secs(4) > 0.0);
    }
}
