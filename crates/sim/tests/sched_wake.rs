//! Wake-path tests for the pooled M:N scheduler: fiber-to-fiber handoffs,
//! lost-wakeup stress with untimed waits, and run-order fairness on one
//! worker.
//!
//! This file is its own test binary, so its `set_worker_cap` /
//! `set_sched_mode` calls cannot disturb any other test; within the file a
//! lock serializes the tests that change them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use parking_lot::Mutex as PlMutex;
use spsim::{run_spmd, set_sched_mode, set_worker_cap, yield_now, SchedMode, SimCondvar};

/// A hang here is a lost wakeup or a starved fiber: every wait below is
/// untimed, so no tick timer can rescue a fiber whose wake was dropped.
const WATCHDOG: Duration = Duration::from_secs(10);

/// Long enough for every idle worker to finish its spin and sleep.
const LET_POOL_SLEEP: Duration = Duration::from_millis(5);

static SERIAL: Mutex<()> = Mutex::new(());

/// Pin the pooled scheduler at `cap` workers for the guard's lifetime,
/// starting from a pool whose workers are all asleep.
struct PoolCap<'a> {
    _serial: MutexGuard<'a, ()>,
}

impl PoolCap<'_> {
    fn new(cap: usize) -> PoolCap<'static> {
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_sched_mode(Some(SchedMode::Pool));
        set_worker_cap(Some(cap));
        std::thread::sleep(LET_POOL_SLEEP);
        PoolCap { _serial: serial }
    }
}

impl Drop for PoolCap<'_> {
    fn drop(&mut self) {
        set_worker_cap(None);
        set_sched_mode(None);
    }
}

/// Run `job` on a helper thread and fail if it outlives [`WATCHDOG`].
fn with_watchdog<R: Send + 'static>(what: &str, job: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(job());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(r) => r,
        Err(_) => panic!("{what}: no progress in {WATCHDOG:?}"),
    }
}

struct Board<T> {
    m: PlMutex<T>,
    cv: SimCondvar,
}

impl<T> Board<T> {
    fn new(v: T) -> Arc<Self> {
        Arc::new(Board {
            m: PlMutex::new(v),
            cv: SimCondvar::new(),
        })
    }
}

/// Two fibers pass a token back and forth `handoffs` times; returns how
/// many passes each side made.
fn token_pingpong(handoffs: usize) -> Vec<usize> {
    // (whose turn, passes so far)
    let b = Board::new((0usize, 0usize));
    run_spmd(2, |rank| {
        let mut mine = 0;
        let mut g = b.m.lock();
        loop {
            while g.0 != rank && g.1 < handoffs {
                b.cv.wait(&mut g);
            }
            if g.1 >= handoffs {
                return mine;
            }
            g.0 = 1 - rank;
            g.1 += 1;
            mine += 1;
            b.cv.notify_one();
        }
    })
}

#[test]
fn token_pingpong_counts_every_handoff_at_1_2_and_4_workers() {
    const HANDOFFS: usize = 200_000;
    for cap in [1, 2, 4] {
        let _pool = PoolCap::new(cap);
        let passes = with_watchdog("token ping-pong", || token_pingpong(HANDOFFS));
        assert_eq!(
            passes,
            vec![HANDOFFS / 2, HANDOFFS / 2],
            "cap {cap}: each side passes the token exactly half the time"
        );
    }
}

/// `producers` fibers each hand `per_producer` items one at a time
/// through a single-slot mailbox to one consumer fiber; both sides wait
/// untimed. Returns the sum the consumer received.
fn many_to_one(producers: usize, per_producer: usize) -> u64 {
    // (slot, items consumed)
    let b = Board::new((None::<u64>, 0usize));
    let space = SimCondvar::new();
    let total = producers * per_producer;
    let got = run_spmd(producers + 1, |rank| {
        let mut g = b.m.lock();
        if rank == 0 {
            let mut sum = 0;
            while g.1 < total {
                while g.0.is_none() {
                    b.cv.wait(&mut g);
                }
                sum += g.0.take().expect("slot filled");
                g.1 += 1;
                space.notify_one();
            }
            sum
        } else {
            for i in 0..per_producer {
                while g.0.is_some() {
                    space.wait(&mut g);
                }
                g.0 = Some((rank * per_producer + i) as u64);
                b.cv.notify_one();
                if i % 8 == 0 {
                    // Let the other producers race the consumer's wakes.
                    parking_lot::MutexGuard::unlocked(&mut g, yield_now);
                }
            }
            0
        }
    });
    got[0]
}

#[test]
fn many_to_one_untimed_waits_lose_no_wakeup() {
    const PRODUCERS: usize = 32;
    const PER: usize = 400;
    let n = (PRODUCERS * PER) as u64;
    // Items are numbered per_producer..(producers + 1) * per_producer.
    let want = (PER as u64..(PRODUCERS as u64 + 1) * PER as u64).sum::<u64>();
    assert_eq!(want, n * (n + 2 * PER as u64 - 1) / 2);
    for cap in [1, 2, 4] {
        let _pool = PoolCap::new(cap);
        for round in 0..3 {
            // Each round's spawns must wake a pool that went back to sleep.
            std::thread::sleep(LET_POOL_SLEEP);
            let sum = with_watchdog("many-to-one", || many_to_one(PRODUCERS, PER));
            assert_eq!(
                sum, want,
                "cap {cap} round {round}: every item delivered once"
            );
        }
    }
}

#[test]
fn pingpong_pair_does_not_starve_a_third_fiber_on_one_worker() {
    let _pool = PoolCap::new(1);
    let passes = with_watchdog("fair pick", || {
        // (whose turn, passes)
        let b = Board::new((0usize, 0usize));
        let stop = AtomicBool::new(false);
        run_spmd(3, |rank| {
            if rank == 2 {
                // Park on a timer, so this fiber turns runnable while the
                // pair is already handing off through the run-next slot;
                // it runs again only if their wakes leave it a turn.
                let nap = SimCondvar::new();
                let mut g = b.m.lock();
                assert!(nap.wait_for(&mut g, Duration::from_millis(2)).timed_out());
                stop.store(true, Ordering::SeqCst);
                b.cv.notify_all();
                return 0;
            }
            let mut g = b.m.lock();
            loop {
                while g.0 != rank && !stop.load(Ordering::SeqCst) {
                    b.cv.wait(&mut g);
                }
                if stop.load(Ordering::SeqCst) {
                    // Hand the turn over so the partner sees `stop` too.
                    g.0 = 1 - rank;
                    b.cv.notify_all();
                    return g.1;
                }
                g.0 = 1 - rank;
                g.1 += 1;
                b.cv.notify_one();
            }
        })
    });
    assert_eq!(passes[0], passes[1], "both see the same final count");
}
