//! Blocking queues that carry virtual timestamps.
//!
//! A [`TimedQueue`] connects node threads: the producer stamps each element
//! with the virtual time at which the corresponding event becomes visible
//! (e.g. a packet's arrival at an adapter), and the consumer's clock is
//! pulled forward to that time when it takes the element out. Elements are
//! delivered in *timestamp order* among those currently enqueued — a
//! min-heap, not FIFO — so a packet that took a faster route is handed to
//! the dispatcher first even if it was pushed later in real time.
//!
//! Blocking receives carry a real-time escape hatch: a simulated deadlock
//! (e.g. polling-mode LAPI with nobody polling) would otherwise hang the
//! test suite forever. Hitting the escape is always a bug in the simulated
//! program and panics with a diagnostic.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::sched::SimCondvar;
use crate::time::VTime;
use crate::trace::Tracer;

/// Default real-time escape for blocking receives.
pub const DEFAULT_ESCAPE: Duration = Duration::from_secs(30);

/// Error returned when the queue has been closed and drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

/// An element stamped with the virtual time at which it becomes visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped<T> {
    /// Virtual time of the event this element represents.
    pub at: VTime,
    /// The payload.
    pub item: T,
}

struct Entry<T> {
    at: VTime,
    tie: u64,
    seq: u64,
    item: T,
}

// BinaryHeap is a max-heap; invert ordering to pop the earliest timestamp,
// breaking ties by the tie-break key computed at push time. With the
// scheduler perturbation hook disarmed (the default) the key *is* the
// insertion sequence, so same-timestamp events pop in insertion order;
// with it armed (see [`crate::runtime::set_schedule_tiebreak`]) the key is
// a seeded hash and same-timestamp events pop in a deterministic
// seed-dependent permutation. Either way the order is a pure function of
// (timestamps, push order, seed) — never of host scheduling.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.at, other.tie, other.seq).cmp(&(self.at, self.tie, self.seq))
    }
}

struct Inner<T> {
    heap: Mutex<HeapState<T>>,
    cond: SimCondvar,
    /// Mirror of `heap.len()`, maintained on every push/pop so the hot
    /// emptiness polls (`len`/`is_empty`) never take the heap lock.
    depth: AtomicUsize,
}

struct HeapState<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    closed: bool,
    /// Receivers currently parked on the condvar. Tracked under the heap
    /// lock, so a pusher sees an exact count: zero waiters means the
    /// notification can be skipped entirely (the common streaming case).
    waiters: usize,
    /// Set by [`TimedQueue::wake_receiver`]; the next receive that would
    /// park takes it and returns empty-handed instead.
    woken: bool,
}

/// A blocking min-heap queue ordered by virtual timestamp.
///
/// Cloning yields another handle to the same queue.
pub struct TimedQueue<T> {
    inner: Arc<Inner<T>>,
    escape: Duration,
    tracer: Tracer,
}

impl<T> Clone for TimedQueue<T> {
    fn clone(&self) -> Self {
        TimedQueue {
            inner: Arc::clone(&self.inner),
            escape: self.escape,
            tracer: self.tracer.clone(),
        }
    }
}

impl<T> Default for TimedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimedQueue<T> {
    /// New empty queue with the default real-time escape.
    pub fn new() -> Self {
        Self::with_escape(DEFAULT_ESCAPE)
    }

    /// New empty queue with a custom real-time escape for blocking receives.
    pub fn with_escape(escape: Duration) -> Self {
        TimedQueue {
            inner: Arc::new(Inner {
                heap: Mutex::new(HeapState {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    closed: false,
                    waiters: 0,
                    woken: false,
                }),
                cond: SimCondvar::new(),
                depth: AtomicUsize::new(0),
            }),
            escape,
            tracer: Tracer::default(),
        }
    }

    /// The same queue, with escape diagnostics showing `tracer`'s event tail
    /// (a world's queues carry the world's tracer; the default is untraced).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enqueue `item` as an event occurring at virtual time `at`.
    ///
    /// Returns `true` if the item was accepted. Pushing to a closed queue
    /// refuses the item and returns `false` (late packets after shutdown are
    /// dropped on the floor, like a powered-off adapter) — callers that
    /// account delivery in the trace ledger use the refusal to write the
    /// packet off instead of counting it delivered.
    pub fn push(&self, at: VTime, item: T) -> bool {
        let mut st = self.inner.heap.lock();
        if st.closed {
            return false;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let tie = crate::runtime::tiebreak_key(seq);
        st.heap.push(Entry { at, tie, seq, item });
        // ordering: Relaxed — the hint is published under the heap lock;
        // readers tolerate momentary staleness (see `len`).
        self.inner.depth.fetch_add(1, Ordering::Relaxed);
        // Waiters register under the heap lock before parking, so the count
        // read here is exact: a waiter is either already parked (the notify
        // wakes it) or still holds/awaits the lock and will see the pushed
        // element before it ever parks. No waiters — no syscall.
        let notify = st.waiters > 0;
        drop(st);
        if notify {
            self.inner.cond.notify_one();
        }
        true
    }

    /// Close the queue: blocked and future receivers get [`QueueClosed`]
    /// once the remaining elements are drained.
    pub fn close(&self) {
        self.inner.heap.lock().closed = true;
        self.inner.cond.notify_all();
    }

    /// Has `close` been called?
    pub fn is_closed(&self) -> bool {
        self.inner.heap.lock().closed
    }

    /// Number of elements currently enqueued — a lock-free hint read from
    /// an atomic mirror of the heap length (exact when quiescent,
    /// momentarily stale against concurrent pushes/pops). Hot poll loops
    /// use this instead of taking the heap lock per iteration.
    pub fn len(&self) -> usize {
        // ordering: Relaxed — a pure hint; the heap lock is the source of
        // truth and every consumer re-checks under it before acting.
        self.inner.depth.load(Ordering::Relaxed)
    }

    /// Is the queue currently empty? Lock-free, see [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record that one element left the heap (caller holds the heap lock).
    fn note_pop(&self) {
        // ordering: Relaxed — hint mirror, see `len`.
        self.inner.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Nonblocking: take the earliest-stamped element, regardless of its
    /// timestamp. Returns `Ok(None)` when empty and open.
    pub fn try_recv(&self) -> Result<Option<Stamped<T>>, QueueClosed> {
        let mut st = self.inner.heap.lock();
        match st.heap.pop() {
            Some(e) => {
                self.note_pop();
                Ok(Some(Stamped {
                    at: e.at,
                    item: e.item,
                }))
            }
            None if st.closed => Err(QueueClosed),
            None => Ok(None),
        }
    }

    /// Blocking: wait for the earliest element, merging its timestamp into
    /// `clock`. This models "spin/park until the event arrives" — the
    /// waiter's virtual clock jumps to the event time rather than burning
    /// virtual CPU.
    ///
    /// Panics if the real-time escape elapses (simulated deadlock).
    pub fn recv_merge(&self, clock: &VClock) -> Result<Stamped<T>, QueueClosed> {
        let deadline = Instant::now() + self.escape;
        // liveness: recv_until returns on every push, close and
        // wake_receiver; past the escape deadline this panics with a
        // diagnostic.
        loop {
            if let Some(s) = self.recv_until(Some(deadline))? {
                clock.merge(s.at);
                return Ok(s);
            }
            if Instant::now() >= deadline {
                panic!(
                    "TimedQueue::recv_merge: no event within {:?} of real time — \
                     the simulated program is deadlocked (is anyone making progress? \
                     polling-mode LAPI requires the target to poll)\n\
                     queue: len={} closed={} waiter-clock={}ns\n{}",
                    self.escape,
                    self.len(),
                    self.is_closed(),
                    clock.now().as_ns(),
                    self.tracer.tail_report(crate::trace::REPORT_TAIL)
                );
            }
        }
    }

    /// Blocking receive that parks at most once: the earliest element, or
    /// `Ok(None)` when the park ends without one — at `deadline` (never,
    /// if `None`), after [`Self::wake_receiver`], or because another
    /// receiver took the element whose push ended it. Callers loop,
    /// re-checking whatever they wait for.
    pub fn recv_until(&self, deadline: Option<Instant>) -> Result<Option<Stamped<T>>, QueueClosed> {
        let mut st = self.inner.heap.lock();
        if st.heap.is_empty() && !st.closed && !std::mem::take(&mut st.woken) {
            st.waiters += 1;
            // liveness: push, close and wake_receiver notify `cond` while a
            // receiver is registered; `deadline`, if any, bounds the park.
            match deadline {
                Some(d) => {
                    self.inner.cond.wait_until(&mut st, d);
                }
                None => SimCondvar::wait(&self.inner.cond, &mut st),
            }
            st.waiters -= 1;
        }
        match st.heap.pop() {
            Some(e) => {
                self.note_pop();
                Ok(Some(Stamped {
                    at: e.at,
                    item: e.item,
                }))
            }
            None if st.closed => Err(QueueClosed),
            None => Ok(None),
        }
    }

    /// End a parked [`Self::recv_until`] empty-handed, or, if no receiver
    /// is parked, the next one that would park. The waker of a receiver
    /// that waits on a state change made by another thread.
    pub fn wake_receiver(&self) {
        let mut st = self.inner.heap.lock();
        st.woken = true;
        let notify = st.waiters > 0;
        drop(st);
        if notify {
            self.inner.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn pops_in_timestamp_order() {
        let q = TimedQueue::new();
        q.push(VTime::from_us(30), "c");
        q.push(VTime::from_us(10), "a");
        q.push(VTime::from_us(20), "b");
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, "a");
        assert_eq!(q.recv_merge(&clock).unwrap().item, "b");
        assert_eq!(q.recv_merge(&clock).unwrap().item, "c");
        assert_eq!(clock.now(), VTime::from_us(30));
    }

    // The tie-break hook is process-global; tests that touch (or depend on)
    // it serialize here so parallel test threads cannot interfere.
    static TIEBREAK_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn drain_order(q: &TimedQueue<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        while let Ok(Some(s)) = q.try_recv() {
            out.push(s.item);
        }
        out
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let _g = TIEBREAK_GUARD.lock().unwrap();
        let q = TimedQueue::new();
        for i in 0..10 {
            q.push(VTime::from_us(5), i);
        }
        let clock = VClock::new();
        for i in 0..10 {
            assert_eq!(q.recv_merge(&clock).unwrap().item, i);
        }
    }

    #[test]
    fn armed_tiebreak_permutes_same_time_events_deterministically() {
        let _g = TIEBREAK_GUARD.lock().unwrap();
        let fill = |seed: Option<u64>| {
            crate::runtime::set_schedule_tiebreak(seed);
            let q = TimedQueue::new();
            for i in 0..16usize {
                q.push(VTime::from_us(5), i);
            }
            crate::runtime::set_schedule_tiebreak(None);
            drain_order(&q)
        };
        let baseline = fill(None);
        assert_eq!(baseline, (0..16).collect::<Vec<_>>());
        let a1 = fill(Some(0xA11CE));
        let a2 = fill(Some(0xA11CE));
        let b = fill(Some(0xB0B));
        assert_eq!(a1, a2, "same seed, same permutation");
        assert_ne!(a1, baseline, "seeded permutation differs from insertion");
        assert_ne!(a1, b, "different seeds explore different interleavings");
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, baseline, "a permutation, not a loss");
    }

    #[test]
    fn armed_tiebreak_preserves_timestamp_order() {
        let _g = TIEBREAK_GUARD.lock().unwrap();
        crate::runtime::set_schedule_tiebreak(Some(7));
        let q = TimedQueue::new();
        for i in 0..12usize {
            // Three distinct instants, four same-time events each.
            q.push(VTime::from_us(10 * (i as u64 % 3)), i);
        }
        crate::runtime::set_schedule_tiebreak(None);
        let clock = VClock::new();
        let mut prev = VTime::ZERO;
        for _ in 0..12 {
            let s = q.recv_merge(&clock).unwrap();
            assert!(s.at >= prev, "timestamp order is never violated");
            prev = s.at;
        }
    }

    #[test]
    fn merge_does_not_move_clock_backwards() {
        let q = TimedQueue::new();
        q.push(VTime::from_us(5), ());
        let clock = VClock::starting_at(VTime::from_us(100));
        let s = q.recv_merge(&clock).unwrap();
        assert_eq!(s.at, VTime::from_us(5));
        assert_eq!(clock.now(), VTime::from_us(100));
    }

    #[test]
    fn close_unblocks_and_reports() {
        let q: TimedQueue<()> = TimedQueue::new();
        let q2 = q.clone();
        let h = thread::spawn(move || loop {
            match q2.recv_until(None) {
                Ok(None) => continue,
                r => return r.map(|_| ()),
            }
        });
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(QueueClosed));
        // push after close is dropped
        q.push(VTime::ZERO, ());
        assert_eq!(q.try_recv(), Err(QueueClosed));
    }

    #[test]
    fn close_drains_remaining_first() {
        let q = TimedQueue::new();
        q.push(VTime::from_us(1), 7);
        q.close();
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, 7);
        assert!(q.recv_merge(&clock).is_err());
    }

    #[test]
    fn cross_thread_delivery_merges_time() {
        let q = TimedQueue::new();
        let q2 = q.clone();
        let h = thread::spawn(move || {
            let clock = VClock::new();
            let s = q2.recv_merge(&clock).unwrap();
            (s.item, clock.now())
        });
        thread::sleep(std::time::Duration::from_millis(10));
        q.push(VTime::from_us(42), "pkt");
        let (item, t) = h.join().unwrap();
        assert_eq!(item, "pkt");
        assert_eq!(t, VTime::from_us(42));
    }

    #[test]
    fn push_races_parked_recv_without_missed_wakeup() {
        // Regression for the targeted-notify change: a push that races a
        // `recv_merge` park must always wake the waiter. The waiter count
        // is read under the same lock the waiter registers under, so a
        // sleeping consumer can never be missed — hammer the interleaving
        // to prove it.
        let q = TimedQueue::new();
        let q2 = q.clone();
        let n = 500u64;
        let h = thread::spawn(move || {
            let clock = VClock::new();
            for _ in 0..n {
                q2.recv_merge(&clock).unwrap();
            }
        });
        for i in 0..n {
            q.push(VTime::from_us(i), i);
            if i % 7 == 0 {
                // Let the consumer drain and park again mid-stream.
                thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        h.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn multiple_parked_waiters_all_wake() {
        // One targeted notify per push must still serve several parked
        // consumers: each push wakes exactly one, and every element is
        // delivered exactly once.
        let q: TimedQueue<u64> = TimedQueue::new();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q2 = q.clone();
                thread::spawn(move || {
                    let clock = VClock::new();
                    let mut got = Vec::new();
                    while let Ok(s) = q2.recv_merge(&clock) {
                        got.push(s.item);
                    }
                    got
                })
            })
            .collect();
        thread::sleep(std::time::Duration::from_millis(20));
        for i in 0..200u64 {
            q.push(VTime::from_us(i), i);
        }
        thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn escape_hatch_panics() {
        let q: TimedQueue<()> = TimedQueue::with_escape(Duration::from_millis(30));
        let clock = VClock::new();
        let _ = q.recv_merge(&clock);
    }

    #[test]
    fn recv_until_times_out_and_delivers() {
        let q: TimedQueue<u8> = TimedQueue::new();
        let soon = || Some(Instant::now() + Duration::from_millis(10));
        assert_eq!(q.recv_until(soon()), Ok(None));
        q.push(VTime::from_us(4), 9);
        assert_eq!(q.recv_until(soon()).unwrap().unwrap().item, 9);
        q.close();
        assert_eq!(q.recv_until(soon()), Err(QueueClosed));
    }

    #[test]
    fn wake_receiver_ends_an_untimed_park() {
        let q: TimedQueue<u8> = TimedQueue::new();
        // A wake with no receiver parked is kept for the next one.
        q.wake_receiver();
        assert_eq!(q.recv_until(None), Ok(None));
        let q2 = q.clone();
        let h = thread::spawn(move || q2.recv_until(None));
        thread::sleep(Duration::from_millis(20));
        q.wake_receiver();
        assert_eq!(h.join().unwrap(), Ok(None));
    }

    #[test]
    fn len_and_empty() {
        let q = TimedQueue::new();
        assert!(q.is_empty());
        q.push(VTime::ZERO, 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn try_recv_takes_the_earliest_enqueued_so_far() {
        // Order holds among the elements present when the receiver looks:
        // an earlier stamp pushed later still overtakes a later one.
        let q = TimedQueue::new();
        let clock = VClock::new();
        let poll = || {
            let s = q.try_recv().unwrap().unwrap();
            clock.merge(s.at);
            s.item
        };
        q.push(VTime::from_us(12), "b");
        assert_eq!(poll(), "b");
        q.push(VTime::from_us(30), "d");
        q.push(VTime::from_us(5), "a");
        q.push(VTime::from_us(20), "c");
        assert_eq!([poll(), poll(), poll()], ["a", "c", "d"]);
        assert_eq!(clock.now(), VTime::from_us(30));
        assert_eq!(q.try_recv(), Ok(None));
    }
}
