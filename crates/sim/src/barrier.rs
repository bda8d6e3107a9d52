//! A virtual-time barrier.
//!
//! Experiments need all nodes to start from an agreed virtual instant;
//! [`VBarrier::wait`] blocks until every participant arrives and then sets
//! every participant's clock to the maximum arrival time plus a configurable
//! barrier cost. This mirrors what a real `LAPI_Gfence`/`MP_SYNC` does to
//! wall-clock alignment on the SP, and makes measurements deterministic.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::sched::SimCondvar;
use crate::time::{VDur, VTime};

/// Run by the arrival that releases a generation, once per participant
/// that registered it: the way a participant parked somewhere other than
/// the barrier's condvar (a polling node, parked on its receive ring)
/// learns of the release.
pub type BarrierWaker = Box<dyn FnOnce() + Send>;

struct State {
    arrived: usize,
    generation: u64,
    max_time: VTime,
    release_time: VTime,
    /// Wakers registered by this generation's arrivals so far.
    wakers: Vec<BarrierWaker>,
}

struct Inner {
    n: usize,
    cost: VDur,
    escape: Duration,
    state: Mutex<State>,
    cond: SimCondvar,
}

/// A reusable barrier over `n` participants that aligns virtual clocks.
#[derive(Clone)]
pub struct VBarrier {
    inner: Arc<Inner>,
}

/// One participant's arrival in one barrier generation; see
/// [`VBarrier::arrive`].
#[derive(Debug)]
pub struct Arrival {
    generation: u64,
}

impl VBarrier {
    /// A barrier for `n` participants charging `cost` per crossing. A
    /// blocking [`VBarrier::wait`] that sees no release within `escape` of
    /// real time panics: a peer died or deadlocked.
    pub fn new(n: usize, cost: VDur, escape: Duration) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        VBarrier {
            inner: Arc::new(Inner {
                n,
                cost,
                escape,
                state: Mutex::new(State {
                    arrived: 0,
                    generation: 0,
                    max_time: VTime::ZERO,
                    release_time: VTime::ZERO,
                    wakers: Vec::new(),
                }),
                cond: SimCondvar::new(),
            }),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.inner.n
    }

    /// Enter the barrier; returns the aligned virtual time (which `clock`
    /// has been set to).
    ///
    /// Panics if the other participants fail to arrive within the escape —
    /// that means a peer died or deadlocked, and hanging the whole job
    /// would mask the failure.
    pub fn wait(&self, clock: &VClock) -> VTime {
        self.wait_among(clock, self.inner.n)
    }

    /// Enter the barrier expecting only `expected` of the `n` configured
    /// participants to show up this generation, and block like
    /// [`VBarrier::wait`].
    ///
    /// This is the survivor-set barrier behind `gfence_surviving`: after a
    /// node crash, the live members synchronize among themselves without
    /// waiting (and escaping) on the dead. Every participant of one
    /// generation must pass the same `expected`, and `expected` must stay
    /// consistent across a release (mixing counts in one generation would
    /// release early or strand arrivals — the fault plan is the shared
    /// membership ground truth that guarantees agreement).
    pub fn wait_among(&self, clock: &VClock, expected: usize) -> VTime {
        let inner = &*self.inner;
        let me = self.arrive(clock, expected, None);
        let mut st = inner.state.lock();
        // liveness: the arrival that releases the generation notifies
        // `cond`, and nothing else does; past the escape this panics.
        while st.generation == me.generation {
            if inner.cond.wait_for(&mut st, inner.escape).timed_out() {
                panic!(
                    "VBarrier: only {}/{} expected participants arrived within {:?} \
                     of real time — a peer died or deadlocked",
                    st.arrived, expected, inner.escape
                );
            }
        }
        let release = st.release_time;
        drop(st);
        clock.merge(release);
        release
    }

    /// Count the caller in this generation at its `clock`'s time, without
    /// blocking; `expected` is as in [`VBarrier::wait_among`]. A caller
    /// that must keep working until the release (polling-mode LAPI has to
    /// serve its peers' requests) passes a `waker` and then polls
    /// [`VBarrier::released`]; the arrival that releases the generation
    /// runs every registered waker.
    pub fn arrive(&self, clock: &VClock, expected: usize, waker: Option<BarrierWaker>) -> Arrival {
        assert!(
            expected >= 1 && expected <= self.inner.n,
            "survivor set of {expected} outside 1..={}",
            self.inner.n
        );
        let mut st = self.inner.state.lock();
        let me = Arrival {
            generation: st.generation,
        };
        st.max_time = st.max_time.max(clock.now());
        st.arrived += 1;
        if st.arrived < expected {
            st.wakers.extend(waker);
            return me;
        }
        st.release_time = st.max_time + self.inner.cost;
        st.arrived = 0;
        st.max_time = VTime::ZERO;
        st.generation += 1;
        let wakers = std::mem::take(&mut st.wakers);
        drop(st);
        self.inner.cond.notify_all();
        for w in wakers {
            w();
        }
        me
    }

    /// The aligned release time, merged into `clock`, once `me`'s
    /// generation has released; `None` before.
    pub fn released(&self, me: &Arrival, clock: &VClock) -> Option<VTime> {
        let st = self.inner.state.lock();
        if st.generation == me.generation {
            return None;
        }
        let release = st.release_time;
        drop(st);
        clock.merge(release);
        Some(release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DEFAULT_ESCAPE as ESCAPE;
    use std::thread;

    #[test]
    fn aligns_clocks_to_max_plus_cost() {
        let b = VBarrier::new(3, VDur::from_us(2), ESCAPE);
        let clocks: Vec<VClock> = (0..3)
            .map(|i| VClock::starting_at(VTime::from_us(10 * i as u64)))
            .collect();
        thread::scope(|s| {
            for c in &clocks {
                let b = b.clone();
                s.spawn(move || b.wait(c));
            }
        });
        for c in &clocks {
            assert_eq!(c.now(), VTime::from_us(22));
        }
    }

    #[test]
    fn is_reusable_across_generations() {
        let b = VBarrier::new(2, VDur::ZERO, ESCAPE);
        let c0 = VClock::new();
        let c1 = VClock::new();
        for round in 1..=5u64 {
            let (r0, r1) = thread::scope(|s| {
                let b0 = b.clone();
                let b1 = b.clone();
                let c0 = &c0;
                let c1 = &c1;
                let h0 = s.spawn(move || {
                    c0.advance(VDur::from_us(3));
                    b0.wait(c0)
                });
                let h1 = s.spawn(move || b1.wait(c1));
                (h0.join().unwrap(), h1.join().unwrap())
            });
            assert_eq!(r0, r1);
            assert_eq!(r0, VTime::from_us(3 * round));
        }
    }

    #[test]
    fn single_participant_is_trivial() {
        let b = VBarrier::new(1, VDur::from_us(1), ESCAPE);
        let c = VClock::starting_at(VTime::from_us(9));
        assert_eq!(b.wait(&c), VTime::from_us(10));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_participants_rejected() {
        let _ = VBarrier::new(0, VDur::ZERO, ESCAPE);
    }

    #[test]
    fn survivor_set_releases_without_the_dead() {
        // A 4-way barrier where only 3 participants remain alive: wait_among
        // releases at 3 arrivals and still aligns clocks to max + cost.
        let b = VBarrier::new(4, VDur::from_us(2), ESCAPE);
        let clocks: Vec<VClock> = (0..3)
            .map(|i| VClock::starting_at(VTime::from_us(10 * i as u64)))
            .collect();
        thread::scope(|s| {
            for c in &clocks {
                let b = b.clone();
                s.spawn(move || b.wait_among(c, 3));
            }
        });
        for c in &clocks {
            assert_eq!(c.now(), VTime::from_us(22));
        }
        // The barrier is reusable afterwards at full strength semantics
        // (generation advanced exactly once).
        let c = VClock::starting_at(VTime::from_us(100));
        assert_eq!(b.wait_among(&c, 1), VTime::from_us(102));
    }

    #[test]
    fn arrival_polls_until_the_release_runs_its_waker() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let b = VBarrier::new(2, VDur::from_us(1), ESCAPE);
        let (c0, c1) = (VClock::starting_at(VTime::from_us(5)), VClock::new());
        let woke = Arc::new(AtomicBool::new(false));
        let w = Arc::clone(&woke);
        let me = b.arrive(
            &c0,
            2,
            Some(Box::new(move || w.store(true, Ordering::SeqCst))),
        );
        assert_eq!(b.released(&me, &c0), None);
        assert!(!woke.load(Ordering::SeqCst));
        assert_eq!(b.wait(&c1), VTime::from_us(6));
        assert!(
            woke.load(Ordering::SeqCst),
            "the releasing arrival ran the waker"
        );
        assert_eq!(b.released(&me, &c0), Some(VTime::from_us(6)));
        assert_eq!(c0.now(), VTime::from_us(6));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_survivor_set_rejected() {
        let b = VBarrier::new(2, VDur::ZERO, ESCAPE);
        let c = VClock::new();
        b.wait_among(&c, 3);
    }
}
