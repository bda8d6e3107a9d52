//! SPMD node runtime.
//!
//! A parallel job on the SP is `n` copies of the same program, one per node.
//! [`run_spmd`] reproduces that: it runs the given closure with each node's
//! rank and collects the per-node results. Panics in any node are
//! propagated to the caller (after all nodes have finished or hit their
//! queue escape hatches), so a failing simulated program fails the test
//! that ran it.
//!
//! By default nodes are cooperative tasks multiplexed M:N onto the fixed
//! worker pool in [`crate::sched`] — a 1024-node job costs a handful of OS
//! threads. `SPSIM_SCHED=threads` (or [`crate::sched::set_sched_mode`])
//! selects the legacy thread-per-node runtime, kept as an escape hatch and
//! as the differential baseline for the scheduler-equivalence tests.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crate::diag::OrDiag;
use crate::sched::{self, SchedMode};

/// Rank of a simulated node within its job, `0..n`.
pub type NodeId = usize;

// Scheduler tie-break perturbation. When armed, events enqueued at the
// *same* virtual instant are popped from [`crate::TimedQueue`]s in a
// seed-dependent permutation instead of insertion order, so a conformance
// harness can explore alternative legal interleavings. Disarmed (the
// default) the tie-break is exactly the insertion sequence, bit-for-bit
// identical to the behaviour before the hook existed — one relaxed atomic
// load per push is the entire cost.
static TIEBREAK_ON: AtomicBool = AtomicBool::new(false);
static TIEBREAK_SEED: AtomicU64 = AtomicU64::new(0);

/// Arm (`Some(seed)`) or disarm (`None`) the global same-virtual-time
/// scheduler tie-break perturbation.
///
/// The hook is process-global: callers that arm it around a simulated run
/// must serialize those runs (the `check` harness holds a lock) and disarm
/// it afterwards. Two runs with the same seed perturb identically.
pub fn set_schedule_tiebreak(seed: Option<u64>) {
    match seed {
        Some(s) => {
            // ordering: callers serialize arming around whole runs (see
            // above), so no simulated thread races these two stores.
            TIEBREAK_SEED.store(s, Ordering::Relaxed);
            TIEBREAK_ON.store(true, Ordering::Relaxed);
        }
        None => {
            // ordering: same serialization argument as arming.
            TIEBREAK_ON.store(false, Ordering::Relaxed);
            TIEBREAK_SEED.store(0, Ordering::Relaxed);
        }
    }
}

/// The currently armed tie-break seed, if any.
pub fn schedule_tiebreak() -> Option<u64> {
    // ordering: read under the same caller-side serialization as set().
    if TIEBREAK_ON.load(Ordering::Relaxed) {
        Some(TIEBREAK_SEED.load(Ordering::Relaxed))
    } else {
        None
    }
}

/// Tie-break key for the `n`-th element pushed onto a queue: the insertion
/// sequence itself when the hook is disarmed, or a SplitMix64 hash of
/// (seed, seq) when armed — a deterministic pseudo-random permutation of
/// same-timestamp events.
#[inline]
pub(crate) fn tiebreak_key(seq: u64) -> u64 {
    // ordering: the hook is armed/disarmed only between runs (callers
    // serialize), so pushes within a run observe a stable flag and seed.
    if !TIEBREAK_ON.load(Ordering::Relaxed) {
        return seq;
    }
    let mut z = TIEBREAK_SEED
        // ordering: see the flag load above.
        .load(Ordering::Relaxed)
        .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Erase the lifetime of a boxed node job so it can ride on the
/// process-global worker pool.
///
/// # Safety
/// The caller must not let any borrow captured by `f` end before the job
/// has finished running. `run_spmd`/`run_spmd_with` uphold this by joining
/// every node task before they return — the same guarantee
/// `std::thread::scope` provides for the legacy path.
unsafe fn erase_job<'a>(f: Box<dyn FnOnce() + Send + 'a>) -> Box<dyn FnOnce() + Send + 'static> {
    std::mem::transmute(f)
}

/// Pooled SPMD execution: one scheduler task per rank, results collected
/// into rank-indexed slots, tasks joined in rank order.
fn run_pooled<R, J>(n: usize, mut job_for: J) -> Vec<thread::Result<R>>
where
    R: Send,
    J: FnMut(usize, Arc<Mutex<Vec<Option<thread::Result<R>>>>>) -> Box<dyn FnOnce() + Send>,
{
    let slots: Arc<Mutex<Vec<Option<thread::Result<R>>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let tasks: Vec<_> = (0..n)
        .map(|rank| {
            let job = job_for(rank, Arc::clone(&slots));
            sched::spawn(format!("sp-node-{rank}"), job)
        })
        .collect();
    for t in &tasks {
        sched::join_task(t);
    }
    let mut got = slots.lock().unwrap_or_else(|e| e.into_inner());
    got.drain(..)
        .map(|s| s.or_diag("node task finished without reporting a result"))
        .collect()
}

/// Run `f(rank)` on `n` simulated nodes and collect results in rank order.
///
/// Under the default pooled scheduler each node is a cooperative task;
/// under `SPSIM_SCHED=threads` each node is an OS thread, as before the
/// M:N runtime. Same seed ⇒ same results and event timelines under either
/// mode and any worker count (asserted by the determinism suite).
///
/// # Panics
/// Propagates the first node panic once every node has terminated.
pub fn run_spmd<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(NodeId) -> R + Sync,
{
    assert!(n > 0, "SPMD job needs at least one node");
    let f = &f;
    let outcomes: Vec<thread::Result<R>> = match sched::sched_mode() {
        SchedMode::Pool => run_pooled(n, |rank, slots| {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(|| f(rank)));
                slots.lock().unwrap_or_else(|e| e.into_inner())[rank] = Some(out);
            });
            // Safety: run_pooled joins every node task before returning.
            unsafe { erase_job(job) }
        }),
        SchedMode::Threads => {
            let mut outcomes = Vec::with_capacity(n);
            thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|rank| {
                        thread::Builder::new()
                            .name(format!("sp-node-{rank}"))
                            .spawn_scoped(s, move || catch_unwind(AssertUnwindSafe(|| f(rank))))
                            .or_diag("spawn node thread")
                    })
                    .collect();
                for h in handles {
                    outcomes.push(h.join().or_diag("node thread itself must not die"));
                }
            });
            outcomes
        }
    };
    collect_or_panic(outcomes)
}

/// Like [`run_spmd`], but each node consumes a pre-built, possibly
/// non-`Clone` context (e.g. its endpoint of a network built up front).
pub fn run_spmd_with<C, R, F>(ctxs: Vec<C>, f: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(NodeId, C) -> R + Sync,
{
    assert!(!ctxs.is_empty(), "SPMD job needs at least one node");
    let n = ctxs.len();
    let f = &f;
    let outcomes: Vec<thread::Result<R>> = match sched::sched_mode() {
        SchedMode::Pool => {
            let mut ctxs: Vec<Option<C>> = ctxs.into_iter().map(Some).collect();
            run_pooled(n, |rank, slots| {
                let ctx = ctxs[rank].take().or_diag("node context consumed twice");
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(move || f(rank, ctx)));
                    slots.lock().unwrap_or_else(|e| e.into_inner())[rank] = Some(out);
                });
                // Safety: run_pooled joins every node task before returning.
                unsafe { erase_job(job) }
            })
        }
        SchedMode::Threads => {
            let mut outcomes = Vec::with_capacity(n);
            thread::scope(|s| {
                let handles: Vec<_> = ctxs
                    .into_iter()
                    .enumerate()
                    .map(|(rank, ctx)| {
                        thread::Builder::new()
                            .name(format!("sp-node-{rank}"))
                            .spawn_scoped(s, move || {
                                catch_unwind(AssertUnwindSafe(move || f(rank, ctx)))
                            })
                            .or_diag("spawn node thread")
                    })
                    .collect();
                for h in handles {
                    outcomes.push(h.join().or_diag("node thread itself must not die"));
                }
            });
            outcomes
        }
    };
    collect_or_panic(outcomes)
}

/// Handle to a named engine service (dispatcher, completion handler)
/// spawned by [`spawn_service`] — the *only* sanctioned way for simulated
/// code to hold onto a running execution context.
///
/// Under the pooled scheduler the service is a task on the worker pool;
/// under `SPSIM_SCHED=threads` it is a dedicated OS thread. Lint rule A4
/// bans `std::thread::spawn`/`JoinHandle` (and raw condvar waits) in every
/// virtual-time crate except the runtime and the scheduler, so services
/// cannot bypass this seam.
#[derive(Debug)]
pub struct ServiceHandle {
    inner: ServiceImpl,
}

#[derive(Debug)]
enum ServiceImpl {
    Thread(thread::JoinHandle<()>),
    Task(Arc<sched::Task>),
}

impl ServiceHandle {
    /// Wait for the service to finish; `Err` carries the service's panic
    /// payload (same contract as `std::thread::JoinHandle::join`). Safe to
    /// call from a node fiber (it parks) or a plain thread (it blocks).
    pub fn join(self) -> thread::Result<()> {
        match self.inner {
            ServiceImpl::Thread(h) => h.join(),
            ServiceImpl::Task(t) => {
                sched::join_task(&t);
                match sched::take_panic(&t) {
                    Some(p) => Err(p),
                    None => Ok(()),
                }
            }
        }
    }

    /// Has the service already finished?
    pub fn is_finished(&self) -> bool {
        match &self.inner {
            ServiceImpl::Thread(h) => h.is_finished(),
            ServiceImpl::Task(t) => t.is_finished(),
        }
    }
}

/// Spawn a named engine service (dispatcher, completion handler) on the
/// worker pool — or, in `SPSIM_SCHED=threads` mode, on its own OS thread.
///
/// # Panics
/// Panics if the OS refuses to spawn a thread — service creation happens
/// at world setup time where that is unrecoverable anyway.
pub fn spawn_service(name: String, f: impl FnOnce() + Send + 'static) -> ServiceHandle {
    match sched::sched_mode() {
        SchedMode::Pool => ServiceHandle {
            inner: ServiceImpl::Task(sched::spawn(name, Box::new(f))),
        },
        SchedMode::Threads => {
            let inner = thread::Builder::new()
                .name(name)
                .spawn(f)
                .or_diag("spawn service thread");
            ServiceHandle {
                inner: ServiceImpl::Thread(inner),
            }
        }
    }
}

fn collect_or_panic<R>(outcomes: Vec<thread::Result<R>>) -> Vec<R> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut first_panic = None;
    for o in outcomes {
        match o {
            Ok(r) => results.push(r),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        resume_unwind(p);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_rank_order() {
        let out = run_spmd(8, |rank| rank * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn all_nodes_actually_run() {
        let counter = AtomicUsize::new(0);
        run_spmd(16, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn with_contexts_moves_them_in() {
        let ctxs: Vec<String> = (0..4).map(|i| format!("ctx{i}")).collect();
        let out = run_spmd_with(ctxs, |rank, c| format!("{rank}:{c}"));
        assert_eq!(out[3], "3:ctx3");
    }

    #[test]
    #[should_panic(expected = "node 2 exploded")]
    fn panics_propagate() {
        run_spmd(4, |rank| {
            if rank == 2 {
                panic!("node 2 exploded");
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        run_spmd(0, |_| ());
    }

    #[test]
    fn pooled_service_joins_from_plain_thread() {
        let h = spawn_service("svc-join-test".into(), || {});
        h.join().expect("service must finish cleanly");
    }

    #[test]
    fn pooled_service_panic_payload_survives_join() {
        let h = spawn_service("svc-panic-test".into(), || panic!("svc died"));
        let err = h.join().expect_err("panic must surface");
        let msg = err.downcast_ref::<&str>().expect("str payload");
        assert_eq!(*msg, "svc died");
    }

    #[test]
    fn thousand_trivial_nodes_complete() {
        // The point of the M:N runtime: node count far above any sane OS
        // thread budget for a single test.
        let counter = AtomicUsize::new(0);
        run_spmd(1024, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1024);
    }
}
