//! LAPI completion counters.
//!
//! Counters are the paper's completion-signaling mechanism (§2.3): the user
//! associates a counter with events of one or many operations, then either
//! polls it (`LAPI_Getcntr`) or blocks (`LAPI_Waitcntr`, which atomically
//! decrements by the awaited amount on return). One counter may aggregate
//! many messages — GA's generalized counters rely on that.
//!
//! Each increment carries the *virtual time* of the event it signals; a
//! successful wait merges the latest consumed event time into the waiter's
//! clock, so e.g. waiting on an `org_cntr` advances the origin's clock to
//! the instant its buffer actually became reusable.
//!
//! A counter is an opaque shareable object; its [`CounterId`] names it in
//! message headers so a *remote* origin can designate it as the `tgt_cntr`
//! of a put/get/amsend (after learning the id via `LAPI_Address_init`-style
//! exchange).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use spsim::trace::Tracer;
use spsim::SimCondvar;
use spsim::{VClock, VTime};

/// Index of a counter within its owning node's counter table.
pub type CounterId = u32;

/// A remote node's counter, as named in operation parameters.
///
/// Obtained by exchanging [`Counter::id`] values between nodes (typically
/// with `LapiContext::exchange`); only meaningful at the node that created
/// the underlying counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteCounter(pub CounterId);

#[derive(Debug)]
struct State {
    value: i64,
    last_event: VTime,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    cond: SimCondvar,
}

/// An opaque LAPI counter.
#[derive(Clone, Debug)]
pub struct Counter {
    id: CounterId,
    inner: Arc<Inner>,
}

impl Counter {
    pub(crate) fn new(id: CounterId) -> Self {
        Counter {
            id,
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    value: 0,
                    last_event: VTime::ZERO,
                }),
                cond: SimCondvar::new(),
            }),
        }
    }

    /// This counter's id, for exchanging with remote origins.
    pub fn id(&self) -> CounterId {
        self.id
    }

    /// As a [`RemoteCounter`] parameter (for symmetric SPMD code where the
    /// same allocation order yields the same ids on every node).
    pub fn as_remote(&self) -> RemoteCounter {
        RemoteCounter(self.id)
    }

    /// `LAPI_Setcntr`: overwrite the value (event history is kept).
    pub fn set(&self, val: i64) {
        self.inner.state.lock().value = val;
        self.inner.cond.notify_all();
    }

    /// `LAPI_Getcntr` (non-blocking read).
    pub fn get(&self) -> i64 {
        self.inner.state.lock().value
    }

    /// Virtual time of the latest event signaled on this counter.
    pub fn last_event(&self) -> VTime {
        self.inner.state.lock().last_event
    }

    /// Increment, recording that the signaled event happened at `t`.
    pub(crate) fn incr_at(&self, t: VTime) {
        let mut st = self.inner.state.lock();
        st.value += 1;
        st.last_event = st.last_event.max(t);
        drop(st);
        self.inner.cond.notify_all();
    }

    /// Try to consume `val` without blocking: if the counter has reached
    /// `val`, decrement by `val`, merge the latest event time into `clock`,
    /// and return true.
    pub fn try_consume(&self, clock: &VClock, val: i64) -> bool {
        let mut st = self.inner.state.lock();
        if st.value >= val {
            // Harness mutant (disarmed in production): skip the decrement,
            // leaving stale credit for the conformance oracle to catch.
            if !spsim::mutation::armed(spsim::Mutant::SkipCounterDecrement) {
                st.value -= val;
            }
            let t = st.last_event;
            drop(st);
            clock.merge(t);
            true
        } else {
            false
        }
    }

    /// `LAPI_Waitcntr`: block until the counter reaches `val`, then
    /// decrement it by `val` and merge the latest event time into `clock`.
    ///
    /// The caller's virtual clock is *not* advanced while blocked. `escape`
    /// bounds real blocking time — hitting it panics, flagging a simulated
    /// deadlock (e.g. polling-mode LAPI with nobody polling), with the event
    /// tail of the world `tracer` routes to.
    pub(crate) fn wait_consume(&self, clock: &VClock, val: i64, escape: Duration, tracer: &Tracer) {
        let mut st = self.inner.state.lock();
        while st.value < val {
            if self.inner.cond.wait_for(&mut st, escape).timed_out() {
                panic!(
                    "LAPI_Waitcntr: counter {} stuck at {} (< {val}) for {escape:?} \
                     of real time — simulated deadlock\n\
                     [waiter-clock={}ns]\n{}",
                    self.id,
                    st.value,
                    clock.now().as_ns(),
                    tracer.tail_report(spsim::trace::REPORT_TAIL)
                );
            }
        }
        // Harness mutant (disarmed in production): see `try_consume`.
        if !spsim::mutation::armed(spsim::Mutant::SkipCounterDecrement) {
            st.value -= val;
        }
        let t = st.last_event;
        drop(st);
        clock.merge(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get_roundtrip() {
        let c = Counter::new(3);
        assert_eq!(c.id(), 3);
        assert_eq!(c.get(), 0);
        c.set(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn incr_accumulates_and_try_consume() {
        let c = Counter::new(0);
        let clock = VClock::new();
        c.incr_at(VTime::from_us(5));
        c.incr_at(VTime::from_us(9));
        assert!(!c.try_consume(&clock, 3));
        assert_eq!(clock.now(), VTime::ZERO, "failed consume must not merge");
        assert!(c.try_consume(&clock, 2));
        assert_eq!(c.get(), 0);
        assert_eq!(clock.now(), VTime::from_us(9));
    }

    #[test]
    fn waitcntr_decrements_and_merges_event_time() {
        let c = Counter::new(0);
        let c2 = c.clone();
        let clock = VClock::new();
        let h = thread::spawn(move || {
            for i in 1..=5u64 {
                c2.incr_at(VTime::from_us(10 * i));
            }
        });
        c.wait_consume(&clock, 3, Duration::from_secs(5), &Tracer::default());
        h.join().unwrap();
        assert_eq!(c.get(), 2);
        assert!(clock.now() >= VTime::from_us(30));
    }

    #[test]
    fn wait_wakes_on_set() {
        let c = Counter::new(0);
        let c2 = c.clone();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            c2.set(10);
        });
        c.wait_consume(
            &VClock::new(),
            10,
            Duration::from_secs(5),
            &Tracer::default(),
        );
        h.join().unwrap();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn event_time_is_max_not_last() {
        let c = Counter::new(0);
        c.incr_at(VTime::from_us(100));
        c.incr_at(VTime::from_us(40)); // out-of-order completion
        assert_eq!(c.last_event(), VTime::from_us(100));
    }

    #[test]
    #[should_panic(expected = "simulated deadlock")]
    fn wait_escape_panics() {
        let c = Counter::new(9);
        c.wait_consume(
            &VClock::new(),
            1,
            Duration::from_millis(30),
            &Tracer::default(),
        );
    }

    #[test]
    fn clones_share_state() {
        let c = Counter::new(1);
        let d = c.clone();
        d.incr_at(VTime::ZERO);
        assert_eq!(c.get(), 1);
        assert_eq!(c.as_remote(), RemoteCounter(1));
    }
}
