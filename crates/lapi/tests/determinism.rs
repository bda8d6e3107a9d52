//! Same-seed trace identity (lint rule L2's reason for existing).
//!
//! After the HashMap→BTreeMap migration in the engines, a fixed-seed run of
//! a 3-node workload must produce a byte-identical rendered trace every
//! time. The workload stays inside the simulator's deterministic envelope:
//!
//! * polling mode — interrupt delivery racing the main thread against real
//!   time is *intentionally* outside it;
//! * causally serialized traffic — each rank only transmits after the
//!   previous rank's message has landed (token-passing rotation, then
//!   strictly sequential gets), so no two node threads ever contend for an
//!   ejection-link reservation. Free-running many-to-one traffic reserves
//!   links in real-time arrival order and is deliberately not covered.
//!
//! Within that envelope, any run-to-run divergence means an
//! ordering-sensitive path is iterating a randomized collection — exactly
//! what the BTreeMap migration (and lint rule L2) exists to prevent.

use lapi::{LapiContext, LapiWorld, Mode};
use spsim::{run_spmd_with, DeliveryPath, FaultPlan, MachineConfig, VTime};

const SEED: u64 = 0x7E57_5EED;
const LEN: usize = 192;

fn run_once() -> String {
    run_once_on(MachineConfig::default())
}

fn run_once_on(cfg: MachineConfig) -> String {
    let session = spsim::trace::session();
    let ctxs = LapiWorld::init_seeded(3, cfg, Mode::Polling, SEED);
    run_spmd_with(ctxs, |rank, ctx| workload(rank, &ctx));
    let timeline = session.finish();
    assert_eq!(
        timeline.evicted, 0,
        "trace ring overflowed; shrink workload"
    );
    timeline.render()
}

fn workload(rank: usize, ctx: &LapiContext) {
    let buf = ctx.alloc(256);
    let well = ctx.alloc(LEN);
    // Written before the collectives below, which double as an
    // "everyone is ready" barrier — so gets against the well see this.
    ctx.mem_write(well, &[rank as u8 + 0x40; LEN]);
    let addrs = ctx.address_init(buf);
    let wells = ctx.address_init(well);
    let org = ctx.new_counter();
    let cmpl = ctx.new_counter();
    let tgt = ctx.new_counter();
    let remotes = ctx.counter_init(&tgt);

    // Token-passing rotation: rank r puts to (r+1)%3, but only after the
    // previous rank's put has landed here — so exactly one rank is driving
    // the fabric at a time.
    if rank > 0 {
        ctx.waitcntr(&tgt, 1);
    }
    let next = (rank + 1) % 3;
    let data = vec![rank as u8 + 1; LEN];
    ctx.put(
        next,
        addrs[next],
        &data,
        Some(remotes[next]),
        Some(&org),
        Some(&cmpl),
    )
    .unwrap();
    // Waitcntr is LAPI_Waitcntr: it decrements by `val`, so every wait
    // below counts the *delta* since the previous one.
    ctx.waitcntr(&org, 1);
    ctx.waitcntr(&cmpl, 1);
    if rank == 0 {
        ctx.waitcntr(&tgt, 1); // rank 2's put (ranks 1, 2 consumed theirs as the token)
    }

    let prev = (rank + 2) % 3;
    assert_eq!(ctx.mem_read(buf, LEN), vec![prev as u8 + 1; LEN]);

    // Rank 0 pulls each peer's well, one get at a time (the org wait
    // serializes them). The gets bump the peers' target counters; the
    // peers' tgt wait keeps them polling so the requests get served.
    if rank == 0 {
        for peer in [1usize, 2] {
            let scratch = ctx.alloc(LEN);
            ctx.get(
                peer,
                wells[peer],
                LEN,
                scratch,
                Some(remotes[peer]),
                Some(&org),
            )
            .unwrap();
            ctx.waitcntr(&org, 1);
            assert_eq!(ctx.mem_read(scratch, LEN), vec![peer as u8 + 0x40; LEN]);
        }
    } else {
        ctx.waitcntr(&tgt, 1);
    }
    ctx.gfence().unwrap();
    ctx.barrier();
}

#[test]
fn same_seed_three_node_trace_is_byte_identical() {
    let first = run_once();
    let second = run_once();
    assert!(!first.is_empty(), "workload produced no trace events");
    assert_eq!(
        first, second,
        "same-seed runs diverged — an ordering-sensitive path is iterating \
         a randomized collection (see lint rule L2)"
    );
}

/// Crash-envelope variant: 2-node polling world, rank 1 crash-stopped
/// at `VTime::ZERO` so every packet toward it is black-holed at the
/// fabric from rank 0's own thread — no real-time race against the
/// victim's teardown, hence a byte-stable trace (see
/// `check::CrashRunOutcome::digest` for the envelope's rationale).
fn crash_run_once_on(cfg: MachineConfig) -> String {
    let session = spsim::trace::session();
    let cfg = cfg.with_faults(FaultPlan::new().with_crash(1, VTime::ZERO));
    let ctxs = LapiWorld::init_seeded(2, cfg, Mode::Polling, SEED);
    run_spmd_with(ctxs, |rank, mut ctx| crash_workload(rank, &mut ctx));
    let timeline = session.finish();
    assert_eq!(
        timeline.evicted, 0,
        "trace ring overflowed; shrink workload"
    );
    timeline.render()
}

fn crash_workload(rank: usize, ctx: &mut LapiContext) {
    let buf = ctx.alloc(64);
    let addrs = ctx.address_init(buf);
    let org = ctx.new_counter();
    let cmpl = ctx.new_counter();
    if rank == 1 {
        ctx.crash_stop();
        return;
    }
    // liveness: the very first put exhausts its retransmits against the
    // black-holed link and latches the peer dead, ending the loop.
    let mut errors = 0usize;
    while !ctx.dead_peers().contains(&1) {
        if ctx
            .put(1, addrs[1], &[7u8; 32], None, Some(&org), Some(&cmpl))
            .is_err()
        {
            errors += 1;
        }
    }
    assert!(errors >= 1, "a put toward the corpse must have errored");
    let scratch = ctx.alloc(8);
    assert!(
        ctx.get(1, addrs[1], 8, scratch, None, Some(&org)).is_err(),
        "post-death get must fast-fail"
    );
    assert_eq!(ctx.getcntr(&org), 0, "failed ops must not tick org");
    assert_eq!(ctx.getcntr(&cmpl), 0, "failed ops must not tick cmpl");
    assert_eq!(ctx.gfence_surviving().unwrap(), vec![0]);
}

/// Satellite of the node-failure domain: the delivery paths must stay
/// byte-identical *under a node crash* too — retransmission storms,
/// peer-death unwinding, and the degraded fence all ride the same
/// (time, tie, seq) order through either path.
#[test]
fn heap_and_ring_paths_stay_identical_under_node_crash() {
    let cfg = |path| {
        MachineConfig::default()
            .with_no_faults()
            .with_delivery_path(path)
    };
    let heap = crash_run_once_on(cfg(DeliveryPath::Heap));
    let rings = crash_run_once_on(cfg(DeliveryPath::Rings));
    assert!(!heap.is_empty(), "crash workload produced no trace events");
    assert_eq!(heap, rings, "delivery paths diverged under a node crash");
    assert_eq!(
        heap,
        crash_run_once_on(cfg(DeliveryPath::Heap)),
        "same-seed crash runs must replay byte-identically"
    );
}

// ----------------------------------------------------- scheduler equivalence
//
// PR 10's M:N scheduler must be *invisible* to virtual time: the same seed
// must replay byte-identically whether nodes run thread-per-node
// (`SPSIM_SCHED=threads`) or as fibers on a pooled worker set, and at any
// worker count (`SPSIM_WORKERS`), including a single worker, where every
// blocking point must yield correctly or the run livelocks.

/// Serializes the tests that flip the process-global scheduler knobs so
/// each one actually measures the mode it claims to.
static SCHED_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Restores the default scheduler mode and worker cap even if the test
/// body panics mid-comparison.
struct SchedRestore;
impl Drop for SchedRestore {
    fn drop(&mut self) {
        spsim::set_sched_mode(None);
        spsim::set_worker_cap(None);
    }
}

#[test]
fn pooled_and_threaded_schedulers_produce_byte_identical_traces() {
    let _serial = SCHED_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = SchedRestore;

    spsim::set_sched_mode(Some(spsim::SchedMode::Threads));
    let threads = run_once();

    // Single worker first: the pool grows on demand but never shrinks, so
    // the cap=1 run must precede the cap=4 run within this process.
    spsim::set_sched_mode(Some(spsim::SchedMode::Pool));
    spsim::set_worker_cap(Some(1));
    let pool1 = run_once();
    spsim::set_worker_cap(Some(4));
    let pool4 = run_once();

    assert!(!threads.is_empty(), "workload produced no trace events");
    assert_eq!(
        threads, pool1,
        "thread-per-node and single-worker pooled runs diverged — a \
         blocking point is leaking host scheduling into virtual time"
    );
    assert_eq!(
        pool1, pool4,
        "pooled runs diverged across worker counts — the scheduler's \
         dispatch order is reaching an ordering-sensitive path"
    );
}

#[test]
fn crash_replay_is_byte_identical_under_pooled_scheduler() {
    let _serial = SCHED_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = SchedRestore;
    let cfg = || MachineConfig::default().with_no_faults();

    spsim::set_sched_mode(Some(spsim::SchedMode::Threads));
    let threads = crash_run_once_on(cfg());

    spsim::set_sched_mode(Some(spsim::SchedMode::Pool));
    spsim::set_worker_cap(Some(1));
    let pooled = crash_run_once_on(cfg());

    assert!(
        !threads.is_empty(),
        "crash workload produced no trace events"
    );
    assert_eq!(
        threads, pooled,
        "crash replay diverged between schedulers — retransmit storms and \
         peer-death unwinding must not observe the worker pool"
    );
}

/// The SPSC delivery rings are a drop-in replacement for the legacy
/// `TimedQueue` delivery path: within the deterministic envelope a
/// same-seed run must produce a byte-identical trace through either path.
#[test]
fn legacy_heap_and_spsc_ring_paths_produce_byte_identical_traces() {
    let heap = run_once_on(MachineConfig::default().with_delivery_path(DeliveryPath::Heap));
    let rings = run_once_on(MachineConfig::default().with_delivery_path(DeliveryPath::Rings));
    assert!(!heap.is_empty(), "workload produced no trace events");
    assert_eq!(
        heap, rings,
        "delivery paths diverged — the ring path must reproduce the \
         TimedQueue's (time, tie, seq) pop order exactly"
    );
}
