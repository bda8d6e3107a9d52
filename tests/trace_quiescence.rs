//! Tracing under adversity: the observability layer must hold up exactly
//! when the network misbehaves — packet loss plus multi-route reordering —
//! and when a program genuinely deadlocks.
//!
//! Five guarantees are pinned here:
//!
//! 1. an `amsend` large enough to stripe across many packets reassembles
//!    correctly under loss + out-of-order routes, and the wire-level
//!    `inject` events balance the protocol-level `deliver` events
//!    ([`TraceSink::assert_quiescent`]);
//! 2. the merged timeline is *virtually deterministic*: the same seed
//!    renders to byte-identical text, however the host schedules threads;
//! 3. a simulated deadlock dies with a diagnostic report (engine state +
//!    event tail), not a bare panic — also when the wait that escapes runs
//!    on a thread that holds no session;
//! 4. a world built off the session thread never records, even while it
//!    runs alongside a traced one;
//! 5. sessions on different threads are independent: two traced worlds
//!    running at once each get exactly their solo timeline.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use lapi_sp::lapi::{HdrOutcome, LapiContext, LapiWorld, Mode};
use lapi_sp::sim::trace::{self, EventKind, Timeline};
use lapi_sp::sim::{run_spmd_with, MachineConfig};

/// Payload size chosen to span many switch packets (~1KB MTU ⇒ ~96 packets),
/// so reassembly really happens and retransmissions really reorder.
const AM_BYTES: usize = 96 * 1024;

/// The lossy, reordering workload: rank 0 amsends a striped payload to every
/// other rank; targets verify the reassembled bytes after reassembly.
/// Returns the per-rank final virtual times (a cheap workload fingerprint).
fn lossy_amsend_run(n: usize, seed: u64) -> Vec<u64> {
    lossy_amsend(lossy_world(n, seed))
}

/// An `n`-node world for the lossy workload. It records trace events only
/// if this thread holds a trace session.
fn lossy_world(n: usize, seed: u64) -> Vec<LapiContext> {
    let cfg = MachineConfig::default().with_drop_prob(0.15);
    assert!(cfg.num_routes > 1, "reordering needs multiple routes");
    // Polling mode: progress is driven by the tasks' own waitcntr polling,
    // which is the regime whose virtual time is guaranteed host-schedule
    // independent (interrupt mode's idle-dispatcher charge is not).
    LapiWorld::init_seeded(n, cfg, Mode::Polling, seed)
}

fn lossy_amsend(ctxs: Vec<LapiContext>) -> Vec<u64> {
    run_spmd_with(ctxs, |rank, ctx| {
        // The whole message lands here; `tgt` fires only once every packet
        // has been deposited (the counter update runs on the polling
        // thread, keeping the run virtually deterministic — a completion
        // handler would run on the completion thread, whose clock
        // merge/advance interleaving is host-schedule dependent).
        let lbuf = ctx.alloc(AM_BYTES);
        ctx.register_handler(5, move |_hctx, info| {
            assert_eq!(info.uhdr, b"stripe");
            assert_eq!(info.data_len, AM_BYTES);
            HdrOutcome::into_buffer(lbuf)
        });
        let tgt = ctx.new_counter();
        let remotes = ctx.counter_init(&tgt);
        if rank == 0 {
            let payload: Vec<u8> = (0..AM_BYTES).map(|i| (i % 251) as u8).collect();
            let cmpl = ctx.new_counter();
            for (peer, &remote) in remotes.iter().enumerate().skip(1) {
                ctx.amsend(
                    peer,
                    5,
                    b"stripe",
                    &payload,
                    Some(remote),
                    None,
                    Some(&cmpl),
                )
                .expect("amsend");
            }
            ctx.waitcntr(&cmpl, (ctx.tasks() - 1) as i64);
        } else {
            ctx.waitcntr(&tgt, 1);
            let data = ctx.mem_read(lbuf, AM_BYTES);
            assert!(
                data.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8),
                "payload corrupted in reassembly"
            );
        }
        ctx.gfence().expect("gfence");
        ctx.now().as_ns()
    })
}

/// The 2-node lossy workload in a session of its own on this thread, with
/// ring capacity raised so no ring evicts. With `both_open`, the world
/// starts only once every party's session is open.
fn traced_lossy_run(seed: u64, both_open: Option<&Barrier>) -> Timeline {
    let s = trace::session();
    s.sink().set_capacity(1 << 20);
    let ctxs = lossy_world(2, seed);
    if let Some(b) = both_open {
        b.wait();
    }
    lossy_amsend(ctxs);
    s.sink().assert_quiescent();
    s.finish()
}

/// The message of a caught panic.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

#[test]
fn lossy_reordered_amsend_reassembles_and_quiesces() {
    let s = trace::session();
    let times = lossy_amsend_run(3, 0xBAD_5EED);
    // Every packet that entered the wire was consumed by a protocol engine.
    s.sink().assert_quiescent();
    let tl = s.finish();
    // The adversity was real: drops forced retransmissions…
    assert!(
        tl.count(EventKind::Drop) > 0,
        "drop_prob 0.15 never dropped?"
    );
    assert_eq!(tl.count(EventKind::Drop), tl.count(EventKind::Retransmit));
    // …and the payload striped across many packets.
    assert!(
        tl.count(EventKind::Inject) > 100,
        "expected a multi-packet stripe, saw {} injects",
        tl.count(EventKind::Inject)
    );
    assert_eq!(tl.count(EventKind::Inject), tl.count(EventKind::Deliver));
    // Both targets ran the header handler (enter/exit pair per amsend,
    // plus rank 0's own fence/gfence bookkeeping events exist too).
    assert!(tl.count(EventKind::HandlerEnter) >= 2);
    assert_eq!(
        tl.count(EventKind::HandlerEnter),
        tl.count(EventKind::HandlerExit)
    );
    assert!(times.iter().all(|&t| t > 0));
}

#[test]
fn same_seed_yields_byte_identical_merged_trace() {
    // Each node still runs real dispatcher + completion threads, so host
    // scheduling varies between runs — the merged timeline must not.
    // Two nodes: with one sender per ejection link, link reservations
    // happen in program order; a third rank would make the reservation
    // order of node 0's ejection link a real-time race between the two
    // ack senders (the same reason the seed determinism test is 2-node).
    // (Capacity is raised so no ring evicts: eviction order of same-vtime
    // events could differ, and this test is about rendering.)
    let capture = || {
        let s = trace::session();
        s.sink().set_capacity(1 << 20);
        let times = lossy_amsend_run(2, 0x5EED);
        (s.finish(), times)
    };
    let (a, ta) = capture();
    let (b, tb) = capture();
    assert_eq!(
        ta, tb,
        "virtual end-times must be host-schedule independent"
    );
    let (ra, rb) = (a.render(), b.render());
    assert_eq!(ra, rb, "same seed must render a byte-identical timeline");
    assert!(!ra.is_empty());
}

#[test]
fn untraced_world_alongside_a_traced_one_records_nothing() {
    // The traced 2-node run on its own, as the reference timeline.
    let solo = traced_lossy_run(0x5EED, None).render();

    let s = trace::session();
    s.sink().set_capacity(1 << 20);
    // A 4-node world built on another thread, so off the session: its
    // traffic runs entirely inside the session (it is joined before
    // `finish`) but must not reach the sink. Ranks 2 and 3 exist only
    // there, and its ranks 0 and 1 would change the rendered timeline.
    let start = Arc::new(Barrier::new(2));
    let untraced = {
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let ctxs = lossy_world(4, 0xBAD_5EED);
            start.wait();
            lossy_amsend(ctxs)
        })
    };
    let ctxs = lossy_world(2, 0x5EED);
    start.wait();
    lossy_amsend(ctxs);
    let times = untraced.join().expect("untraced world");
    assert!(times.iter().all(|&t| t > 0), "the untraced world ran");
    s.sink().assert_quiescent();
    let tl = s.finish();
    assert!(
        tl.events.iter().all(|e| e.node < 2),
        "an untraced world's events leaked into the timeline"
    );
    assert_eq!(tl.render(), solo, "the timeline is the traced run's alone");
}

#[test]
fn different_seeds_change_the_timeline() {
    // Sanity check on the previous test: the renderer is not just collapsing
    // everything to the same string.
    let capture = |seed| traced_lossy_run(seed, None).render();
    assert_ne!(capture(1), capture(2), "route/drop seed must shift timings");
}

#[test]
fn deadlock_dies_with_a_diagnostic_report_not_a_bare_panic() {
    // Polling mode, target never polls: the classic §2.1 no-progress
    // deadlock. With a trace session open, the escape-hatch panic must
    // carry engine state and the event tail — enough to see the put that
    // was injected but never delivered.
    let s = trace::session();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let ctxs = LapiWorld::init_full(
            2,
            MachineConfig::default(),
            Mode::Polling,
            7,
            Duration::from_millis(300),
        );
        run_spmd_with(ctxs, |rank, ctx| {
            let buf = ctx.alloc(8);
            let addrs = ctx.address_init(buf);
            if rank == 0 {
                let cmpl = ctx.new_counter();
                ctx.put(1, addrs[1], &[1u8; 8], None, None, Some(&cmpl))
                    .unwrap();
                ctx.waitcntr(&cmpl, 1); // never satisfied: target never polls
            } else {
                std::thread::sleep(Duration::from_millis(900));
            }
        });
    }));
    let msg = panic_message(result.expect_err("the run must deadlock"));
    assert!(
        msg.contains("simulated deadlock"),
        "kept the classic marker: {msg}"
    );
    // The diagnostic body: engine state…
    assert!(
        msg.contains("outstanding"),
        "missing engine state in: {msg}"
    );
    // …and the virtual-time event tail, which shows the stuck put's inject.
    assert!(msg.contains("last "), "missing event tail in: {msg}");
    assert!(
        msg.contains("inject"),
        "tail should show the orphaned inject: {msg}"
    );
    drop(s);
}

#[test]
fn interrupt_mode_waitcntr_escape_shows_the_worlds_tail() {
    // Interrupt mode: rank 1 blocks in the counter wait itself, on a node
    // task that holds no session, so only the world's own tracer can put
    // the event tail into the report.
    let s = trace::session();
    let ctxs = LapiWorld::init_full(
        2,
        MachineConfig::default(),
        Mode::Interrupt,
        7,
        Duration::from_millis(300),
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_spmd_with(ctxs, |rank, ctx| {
            let buf = ctx.alloc(8);
            let addrs = ctx.address_init(buf);
            let tgt = ctx.new_counter();
            let remotes = ctx.counter_init(&tgt);
            if rank == 0 {
                let org = ctx.new_counter();
                ctx.put(1, addrs[1], &[1u8; 8], Some(remotes[1]), Some(&org), None)
                    .unwrap();
                ctx.waitcntr(&org, 1);
            } else {
                ctx.waitcntr(&tgt, 2); // only one put ever bumps it
            }
        });
    }));
    let msg = panic_message(result.expect_err("the wait must escape"));
    assert!(
        msg.contains("simulated deadlock"),
        "kept the classic marker: {msg}"
    );
    assert!(msg.contains("last "), "missing event tail in: {msg}");
    assert!(msg.contains("inject"), "tail should show the put: {msg}");
    drop(s);
}

#[test]
fn two_traced_worlds_at_once_keep_their_own_timelines() {
    // Different seeds render different timelines, so a leak either way
    // would show against the solo references.
    let seeds = [0x5EED, 0xBAD_5EED];
    let solo: Vec<String> = seeds
        .iter()
        .map(|&seed| traced_lossy_run(seed, None).render())
        .collect();
    let both_open = Arc::new(Barrier::new(seeds.len()));
    let runs: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let both_open = Arc::clone(&both_open);
            std::thread::spawn(move || traced_lossy_run(seed, Some(&both_open)))
        })
        .collect();
    for ((run, solo), seed) in runs.into_iter().zip(&solo).zip(seeds) {
        let tl = run.join().expect("traced world");
        assert_eq!(tl.evicted, 0);
        assert_eq!(
            &tl.render(),
            solo,
            "seed {seed:#x}: the timeline is this world's alone"
        );
    }
}
