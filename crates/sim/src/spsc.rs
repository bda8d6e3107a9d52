//! The delivery fast path: per-source SPSC rings behind a timed facade.
//!
//! [`TimedQueue`] serializes every producer and consumer on one mutex and,
//! before the waiter-count fix, paid a `notify_all` per push. That is fine
//! for genuinely multi-producer lanes (the LAPI completion queue) but it is
//! the wrong shape for packet delivery: the adapter already serializes all
//! packets of a directed `(src, dst)` flow under the sender-side flow lock,
//! so each *source* is a single producer into the destination's receive
//! queue. [`DeliveryRings`] exploits that: one fixed-capacity SPSC circular
//! ring per source lane (modeled on cpp-ipc's circular-array channels),
//! lock-free on the producer side, with a spin-then-park protocol for
//! blocked consumers.
//!
//! Ordering semantics are identical to [`TimedQueue`]: elements are handed
//! out in `(timestamp, tie-break, push-sequence)` order among those
//! currently visible. The consumer drains every ring into a private staging
//! heap before popping, and the push sequence comes from one shared atomic
//! counter, so the pop order is the same pure function of (timestamps, push
//! order, tie-break seed) that the heap path computes — same seed, same
//! bytes, whichever path is selected (`crates/lapi/tests/determinism.rs`
//! asserts exactly that).
//!
//! [`DeliveryQueue`] is the selectable facade the switch embeds: the `Rings`
//! arm is the fast path, the `Heap` arm keeps the legacy `TimedQueue`
//! reachable for A/B determinism tests and as the baseline lane of the
//! wall-clock benchmark (see `MachineConfig::delivery_path`).

use std::cell::UnsafeCell;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::queue::{QueueClosed, Stamped, TimedQueue, DEFAULT_ESCAPE};
use crate::sched::SimCondvar;
use crate::time::VTime;
use crate::trace::Tracer;

/// How long a producer spins on a full ring before yielding the CPU.
const FULL_SPINS: u32 = 64;

/// One entry, ordered exactly like `TimedQueue`'s heap entries: earliest
/// timestamp first, ties broken by the key computed at push time (insertion
/// sequence when the scheduler perturbation hook is disarmed, a seeded hash
/// when armed), then by raw sequence.
struct Entry<T> {
    at: VTime,
    tie: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest first.
        (other.at, other.tie, other.seq).cmp(&(self.at, self.tie, self.seq))
    }
}

type Slot<T> = UnsafeCell<MaybeUninit<Entry<T>>>;

/// One single-producer/single-consumer circular ring (one source lane).
///
/// The buffer is allocated lazily by the producer on first push, so an
/// `n`-node switch does not pay `n²` ring allocations for lanes that never
/// carry traffic. `head`/`tail` are free-running cursors; indices are
/// `cursor & (capacity - 1)` (capacity is a power of two).
struct Ring<T> {
    buf: AtomicPtr<Slot<T>>,
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl<T> Ring<T> {
    fn new() -> Self {
        Ring {
            buf: AtomicPtr::new(std::ptr::null_mut()),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer-side: get the buffer, allocating it on first use. Only the
    /// (single) producer ever stores a non-null pointer, so no CAS is
    /// needed; consumers treat null as "nothing was ever pushed here".
    fn ensure_buf(&self, cap: usize) -> *mut Slot<T> {
        // ordering: Acquire pairs with the producer's own Release store;
        // on the single producer thread a Relaxed load would also do, but
        // Acquire keeps the pairing uniform with the consumer side.
        let p = self.buf.load(Ordering::Acquire);
        if !p.is_null() {
            return p;
        }
        let boxed: Box<[Slot<T>]> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let p = Box::into_raw(boxed) as *mut Slot<T>;
        // ordering: Release publishes the initialized buffer to consumers
        // that load it with Acquire in `drain_into`.
        self.buf.store(p, Ordering::Release);
        p
    }
}

/// Shared state behind [`DeliveryRings`] handles.
struct RingsInner<T> {
    rings: Box<[Ring<T>]>,
    cap: usize,
    /// Global push order across all lanes — the `seq` every entry carries,
    /// playing the role of `TimedQueue`'s per-push sequence counter.
    next_seq: AtomicU64,
    /// Entries pushed but not yet handed to a caller (staged included):
    /// the lock-free emptiness hint `len`/`is_empty` read.
    depth: AtomicUsize,
    closed: AtomicBool,
    /// Consumer staging heap: rings are FIFO per lane but route skew makes
    /// per-lane timestamps non-monotonic, so visible entries are re-ordered
    /// here before popping. Also serializes concurrent consumers
    /// (dispatcher thread + application probe).
    staged: Mutex<BinaryHeap<Entry<T>>>,
    /// Park/wake handshake for blocked consumers (see `park`).
    park: Mutex<()>,
    cond: SimCondvar,
    waiters: AtomicUsize,
    /// Set by [`DeliveryRings::wake_receiver`]; the next receive that
    /// would park takes it and returns empty-handed instead.
    woken: AtomicBool,
}

// SAFETY: every slot is written by exactly one producer (guarded by the
// adapter's per-flow lock) and read by consumers only after observing the
// producer's Release store of `tail`; the staging heap and park state are
// mutex-protected. `T: Send` is required because entries cross threads.
unsafe impl<T: Send> Send for RingsInner<T> {}
unsafe impl<T: Send> Sync for RingsInner<T> {}

impl<T> Drop for RingsInner<T> {
    fn drop(&mut self) {
        for ring in self.rings.iter() {
            // ordering: Relaxed — `&mut self` proves exclusive access.
            let p = ring.buf.load(Ordering::Relaxed);
            if p.is_null() {
                continue;
            }
            // ordering: Relaxed — `&mut self` proves exclusive access.
            let head = ring.head.load(Ordering::Relaxed);
            // ordering: Relaxed — same exclusive access as above.
            let tail = ring.tail.load(Ordering::Relaxed);
            let mask = self.cap - 1;
            let mut cur = head;
            while cur != tail {
                // SAFETY: entries in [head, tail) were written and never
                // consumed; read them out so their payloads drop.
                unsafe {
                    drop((*(*p.add(cur & mask)).get()).assume_init_read());
                }
                cur = cur.wrapping_add(1);
            }
            // SAFETY: reconstruct the boxed slice allocated in `ensure_buf`.
            unsafe {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    p, self.cap,
                )));
            }
        }
    }
}

/// A multi-lane SPSC delivery queue with [`TimedQueue`]-compatible
/// semantics. Cloning yields another handle to the same queue.
pub struct DeliveryRings<T> {
    inner: Arc<RingsInner<T>>,
    escape: Duration,
    tracer: Tracer,
}

impl<T> Clone for DeliveryRings<T> {
    fn clone(&self) -> Self {
        DeliveryRings {
            inner: Arc::clone(&self.inner),
            escape: self.escape,
            tracer: self.tracer.clone(),
        }
    }
}

impl<T: Send> DeliveryRings<T> {
    /// New queue with `lanes` source lanes, each a ring of `capacity`
    /// entries (rounded up to a power of two), and the default real-time
    /// escape for blocking operations.
    pub fn new(lanes: usize, capacity: usize) -> Self {
        Self::with_escape(lanes, capacity, DEFAULT_ESCAPE)
    }

    /// New queue with a custom real-time escape (tests use short escapes to
    /// exercise the deadlock diagnostics).
    pub fn with_escape(lanes: usize, capacity: usize, escape: Duration) -> Self {
        assert!(lanes > 0, "a delivery queue needs at least one lane");
        let cap = capacity.max(2).next_power_of_two();
        DeliveryRings {
            inner: Arc::new(RingsInner {
                rings: (0..lanes).map(|_| Ring::new()).collect(),
                cap,
                next_seq: AtomicU64::new(0),
                depth: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                staged: Mutex::new(BinaryHeap::new()),
                park: Mutex::new(()),
                cond: SimCondvar::new(),
                waiters: AtomicUsize::new(0),
                woken: AtomicBool::new(false),
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

    /// Ring capacity per lane (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }

    /// Enqueue `item` on `lane` as an event at virtual time `at`.
    ///
    /// The caller must guarantee that pushes on one lane are serialized
    /// (the adapter's per-flow lock provides this). Returns `true` if the
    /// item was accepted; pushing to a closed queue refuses the item and
    /// returns `false`, like [`TimedQueue::push`] — callers use the refusal
    /// to write the packet off in the trace ledger. A full ring
    /// spins-then-yields until the consumer frees a slot; if no consumer
    /// drains within the real-time escape, the simulated program is stuck
    /// and this panics with a diagnostic.
    pub fn push_from(&self, lane: usize, at: VTime, item: T) -> bool {
        let inner = &*self.inner;
        // ordering: SeqCst — the close flag participates in the same total
        // order as depth/waiters so a post-close push is reliably dropped.
        if inner.closed.load(Ordering::SeqCst) {
            return false;
        }
        // ordering: Relaxed — the counter only needs uniqueness and
        // monotonicity; within the deterministic envelope pushes are
        // causally serialized, which fixes the observed order.
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let tie = crate::runtime::tiebreak_key(seq);
        let ring = &inner.rings[lane];
        let buf = ring.ensure_buf(inner.cap);
        // ordering: Relaxed — tail is only ever advanced by this (single)
        // producer; no other thread writes it.
        let tail = ring.tail.load(Ordering::Relaxed);
        let mut spins: u32 = 0;
        let mut deadline: Option<Instant> = None;
        // liveness: the consumer advances `head` as it drains the lane and
        // `close` breaks the wait; past the real-time escape the spin
        // panics with a diagnostic instead of livelocking.
        loop {
            // ordering: Acquire pairs with the consumer's Release store in
            // `drain_into`: observing the advanced head also means the
            // consumer is done reading the slot we are about to overwrite.
            let head = ring.head.load(Ordering::Acquire);
            if tail.wrapping_sub(head) < inner.cap {
                break;
            }
            // ordering: SeqCst — see the close check above.
            if inner.closed.load(Ordering::SeqCst) {
                return false;
            }
            spins += 1;
            if spins > FULL_SPINS {
                // Scheduler-aware: a fiber producer must give the (possibly
                // sole) worker back to the consumer that drains this ring.
                crate::sched::yield_now();
                let now = Instant::now();
                let dl = *deadline.get_or_insert(now + self.escape);
                if now >= dl {
                    panic!(
                        "DeliveryRings::push_from: lane {lane} ring full for {:?} of real \
                         time — no consumer is draining (simulated deadlock; is the \
                         destination polling?)\n\
                         ring: cap={} depth={} closed={}\n{}",
                        self.escape,
                        inner.cap,
                        // ordering: SeqCst — diagnostic read of the shared counter.
                        inner.depth.load(Ordering::SeqCst),
                        inner.closed.load(Ordering::SeqCst),
                        self.tracer.tail_report(crate::trace::REPORT_TAIL)
                    );
                }
            }
        }
        let mask = inner.cap - 1;
        // SAFETY: the slot at `tail` is unoccupied (checked against `head`
        // above) and this thread is the lane's only producer.
        unsafe {
            (*buf.add(tail & mask))
                .get()
                .write(MaybeUninit::new(Entry { at, tie, seq, item }));
        }
        // ordering: Release publishes the slot write to consumers that load
        // `tail` with Acquire in `drain_into`.
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        // Dekker handshake with parking consumers: the depth increment must
        // be globally ordered against the consumer's waiter registration so
        // at least one side sees the other (either the consumer re-checks
        // depth > 0 and skips the park, or we see waiters > 0 and wake it).
        //
        // ordering: SeqCst — first half of the handshake described above.
        inner.depth.fetch_add(1, Ordering::SeqCst);
        // ordering: SeqCst — second half of the handshake above.
        if inner.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the park mutex serializes with the consumer's
            // register-then-recheck-then-wait critical section, so the
            // notify cannot fall between its recheck and its wait.
            let _g = inner.park.lock();
            inner.cond.notify_one();
        }
        true
    }

    /// Move every visible ring entry into the staging heap. Caller holds
    /// the `staged` lock (the guard proves it).
    fn drain_into(&self, staged: &mut BinaryHeap<Entry<T>>) {
        let inner = &*self.inner;
        let mask = inner.cap - 1;
        for ring in inner.rings.iter() {
            // ordering: Acquire pairs with the producer's Release store in
            // `ensure_buf`: a non-null pointer is a fully initialized buffer.
            let buf = ring.buf.load(Ordering::Acquire);
            if buf.is_null() {
                continue;
            }
            // ordering: Relaxed — head is only advanced under the `staged`
            // lock, which the caller holds; the lock orders consumers.
            let mut head = ring.head.load(Ordering::Relaxed);
            // ordering: Acquire pairs with the producer's Release store of
            // `tail`: entries below it are fully written.
            let tail = ring.tail.load(Ordering::Acquire);
            while head != tail {
                // SAFETY: [head, tail) slots are initialized (published by
                // the producer's Release) and not yet consumed; reading
                // them out transfers ownership to the staging heap.
                let e = unsafe { (*(*buf.add(head & mask)).get()).assume_init_read() };
                staged.push(e);
                head = head.wrapping_add(1);
                // ordering: Release — hand the slot back to the producer;
                // pairs with its Acquire load in the full-ring wait loop.
                ring.head.store(head, Ordering::Release);
            }
        }
    }

    fn pop_staged(&self, staged: &mut BinaryHeap<Entry<T>>) -> Option<Stamped<T>> {
        staged.pop().map(|e| {
            // ordering: SeqCst — keeps the emptiness hint in the same total
            // order as the park handshake in `push_from`.
            self.inner.depth.fetch_sub(1, Ordering::SeqCst);
            Stamped {
                at: e.at,
                item: e.item,
            }
        })
    }

    /// Close the queue: blocked and future receivers get [`QueueClosed`]
    /// once the remaining elements are drained; late pushes are dropped.
    pub fn close(&self) {
        // ordering: SeqCst — ordered against the producers' close checks
        // and the consumers' park handshake.
        self.inner.closed.store(true, Ordering::SeqCst);
        let _g = self.inner.park.lock();
        self.inner.cond.notify_all();
    }

    /// Has `close` been called?
    pub fn is_closed(&self) -> bool {
        // ordering: SeqCst — see `close`.
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Number of undelivered elements — a lock-free hint read from an
    /// atomic counter (exact when producers and consumers are quiescent,
    /// momentarily stale during concurrent pushes).
    pub fn len(&self) -> usize {
        // ordering: SeqCst — the hint shares the counter the park
        // handshake uses; a plain Relaxed load would also be sound here.
        self.inner.depth.load(Ordering::SeqCst)
    }

    /// Is the queue (apparently) empty? Lock-free, see [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nonblocking: take the earliest-stamped visible element.
    pub fn try_recv(&self) -> Result<Option<Stamped<T>>, QueueClosed> {
        let mut staged = self.inner.staged.lock();
        self.drain_into(&mut staged);
        match self.pop_staged(&mut staged) {
            Some(s) => Ok(Some(s)),
            // ordering: SeqCst — see `close`.
            None if self.inner.closed.load(Ordering::SeqCst) => Err(QueueClosed),
            None => Ok(None),
        }
    }

    /// Blocking: wait for the earliest element, merging its timestamp into
    /// `clock`. Panics if the real-time escape elapses (simulated deadlock).
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
                self.deadlock_panic(clock);
            }
        }
    }

    /// Blocking receive that parks at most once: the earliest element, or
    /// `Ok(None)` when the park ends without one — at `deadline` (never,
    /// if `None`), after [`Self::wake_receiver`], or because another
    /// receiver took the element whose push ended it. Callers loop,
    /// re-checking whatever they wait for.
    pub fn recv_until(&self, deadline: Option<Instant>) -> Result<Option<Stamped<T>>, QueueClosed> {
        if let Some(s) = self.try_recv()? {
            return Ok(Some(s));
        }
        self.park(deadline);
        self.try_recv()
    }

    /// Park protocol (producer side in `push_from`, waker side in
    /// `wake_receiver`): register as a waiter, then re-check under the park
    /// mutex, then wait. The SeqCst handshake on depth/woken/waiters plus
    /// the mutex-bracketed notifies make a lost wakeup impossible.
    fn park(&self, deadline: Option<Instant>) {
        let inner = &*self.inner;
        // ordering: SeqCst — Dekker handshake with `push_from` and
        // `wake_receiver`.
        inner.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = inner.park.lock();
        // ordering: SeqCst — re-check after registering; pairs with the
        // producer's depth increment, `close` and the waker's store.
        let idle = inner.depth.load(Ordering::SeqCst) == 0
            && !inner.closed.load(Ordering::SeqCst)
            && !inner.woken.swap(false, Ordering::SeqCst);
        if idle {
            // liveness: push_from, close and wake_receiver notify `cond`
            // under the park mutex while a receiver is registered;
            // `deadline`, if any, bounds the park.
            match deadline {
                Some(d) => {
                    inner.cond.wait_until(&mut g, d);
                }
                None => SimCondvar::wait(&inner.cond, &mut g),
            }
        }
        drop(g);
        // ordering: SeqCst — see the fetch_add above.
        inner.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// End a parked [`Self::recv_until`] empty-handed, or, if no receiver
    /// is parked, the next one that would park. The waker of a receiver
    /// that waits on a state change made by another thread.
    pub fn wake_receiver(&self) {
        let inner = &*self.inner;
        // ordering: SeqCst — first half of the handshake with `park`, like
        // the depth increment in `push_from`.
        inner.woken.store(true, Ordering::SeqCst);
        // ordering: SeqCst — second half of the handshake.
        if inner.waiters.load(Ordering::SeqCst) > 0 {
            let _g = inner.park.lock();
            inner.cond.notify_all();
        }
    }

    /// The real-time escape fired while blocked: the simulated program is
    /// deadlocked. Never returns.
    fn deadlock_panic(&self, clock: &VClock) -> ! {
        let inner = &*self.inner;
        panic!(
            "DeliveryRings::recv: no event within {:?} of real time — the simulated \
             program is deadlocked (is anyone making progress? polling-mode LAPI \
             requires the target to poll)\n\
             queue: depth={} closed={} waiter-clock={}ns\n{}",
            self.escape,
            // ordering: SeqCst — diagnostic reads.
            inner.depth.load(Ordering::SeqCst),
            inner.closed.load(Ordering::SeqCst),
            clock.now().as_ns(),
            self.tracer.tail_report(crate::trace::REPORT_TAIL)
        );
    }
}

/// The selectable delivery queue the switch embeds in each port: the SPSC
/// ring fast path, or the legacy multi-producer [`TimedQueue`] kept for A/B
/// determinism tests and as the benchmark baseline. Both arms expose the
/// same surface; `lane` is ignored by the heap arm.
pub enum DeliveryQueue<T> {
    /// Legacy path: one mutex-protected timestamp heap.
    Heap(TimedQueue<T>),
    /// Fast path: one SPSC ring per source lane plus a staging heap.
    Rings(DeliveryRings<T>),
}

impl<T: Send> DeliveryQueue<T> {
    /// Enqueue `item` from source `lane` at virtual time `at`. Lane pushes
    /// must be serialized by the caller on the `Rings` arm (the adapter's
    /// per-flow lock provides this). Returns `true` if the item was
    /// accepted, `false` if the queue was already closed and refused it.
    pub fn push_from(&self, lane: usize, at: VTime, item: T) -> bool {
        match self {
            DeliveryQueue::Heap(q) => q.push(at, item),
            DeliveryQueue::Rings(q) => q.push_from(lane, at, item),
        }
    }

    /// Close the queue; see [`TimedQueue::close`].
    pub fn close(&self) {
        match self {
            DeliveryQueue::Heap(q) => q.close(),
            DeliveryQueue::Rings(q) => q.close(),
        }
    }

    /// Has `close` been called?
    pub fn is_closed(&self) -> bool {
        match self {
            DeliveryQueue::Heap(q) => q.is_closed(),
            DeliveryQueue::Rings(q) => q.is_closed(),
        }
    }

    /// Number of undelivered elements (lock-free on both arms).
    pub fn len(&self) -> usize {
        match self {
            DeliveryQueue::Heap(q) => q.len(),
            DeliveryQueue::Rings(q) => q.len(),
        }
    }

    /// Is the queue empty? Lock-free on both arms.
    pub fn is_empty(&self) -> bool {
        match self {
            DeliveryQueue::Heap(q) => q.is_empty(),
            DeliveryQueue::Rings(q) => q.is_empty(),
        }
    }

    /// Nonblocking receive; see [`TimedQueue::try_recv`].
    pub fn try_recv(&self) -> Result<Option<Stamped<T>>, QueueClosed> {
        match self {
            DeliveryQueue::Heap(q) => q.try_recv(),
            DeliveryQueue::Rings(q) => q.try_recv(),
        }
    }

    /// Blocking receive that merges the element's timestamp into `clock`;
    /// see [`TimedQueue::recv_merge`].
    pub fn recv_merge(&self, clock: &VClock) -> Result<Stamped<T>, QueueClosed> {
        match self {
            DeliveryQueue::Heap(q) => q.recv_merge(clock),
            DeliveryQueue::Rings(q) => q.recv_merge(clock),
        }
    }

    /// Blocking receive that parks at most once; see
    /// [`TimedQueue::recv_until`].
    // liveness: pure dispatch — both variants' recv_until carry their own
    // liveness contracts (push, close and wake_receiver end the park), and
    // `deadline`, if any, caps it in real time.
    pub fn recv_until(&self, deadline: Option<Instant>) -> Result<Option<Stamped<T>>, QueueClosed> {
        match self {
            DeliveryQueue::Heap(q) => q.recv_until(deadline),
            DeliveryQueue::Rings(q) => q.recv_until(deadline),
        }
    }

    /// End a parked receive empty-handed; see
    /// [`TimedQueue::wake_receiver`].
    pub fn wake_receiver(&self) {
        match self {
            DeliveryQueue::Heap(q) => q.wake_receiver(),
            DeliveryQueue::Rings(q) => q.wake_receiver(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VDur;
    use std::thread;

    #[test]
    fn pops_in_timestamp_order_across_lanes() {
        let q = DeliveryRings::new(3, 8);
        q.push_from(0, VTime::from_us(30), "c");
        q.push_from(1, VTime::from_us(10), "a");
        q.push_from(2, VTime::from_us(20), "b");
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, "a");
        assert_eq!(q.recv_merge(&clock).unwrap().item, "b");
        assert_eq!(q.recv_merge(&clock).unwrap().item, "c");
        assert_eq!(clock.now(), VTime::from_us(30));
    }

    #[test]
    fn same_lane_ties_break_by_push_order() {
        let q = DeliveryRings::new(1, 16);
        for i in 0..10 {
            q.push_from(0, VTime::from_us(5), i);
        }
        let clock = VClock::new();
        for i in 0..10 {
            assert_eq!(q.recv_merge(&clock).unwrap().item, i);
        }
    }

    #[test]
    fn wraparound_preserves_order_and_content() {
        // Capacity 8, 100 elements: the cursors wrap the ring many times
        // while a consumer keeps pace.
        let q = DeliveryRings::new(1, 8);
        let q2 = q.clone();
        let producer = thread::spawn(move || {
            for i in 0..100u64 {
                q2.push_from(0, VTime::from_us(i), i);
            }
        });
        let clock = VClock::new();
        for want in 0..100u64 {
            let got = q.recv_merge(&clock).unwrap();
            assert_eq!(got.item, want);
            assert_eq!(got.at, VTime::from_us(want));
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn full_ring_backpressure_blocks_until_drained() {
        let q = DeliveryRings::new(1, 4);
        for i in 0..4u64 {
            q.push_from(0, VTime::from_us(i), i);
        }
        assert_eq!(q.len(), 4);
        // The 5th push must block until the consumer frees a slot.
        let q2 = q.clone();
        let pusher = thread::spawn(move || {
            q2.push_from(0, VTime::from_us(4), 4u64);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!pusher.is_finished(), "push on a full ring must wait");
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, 0);
        pusher.join().unwrap();
        for want in 1..5u64 {
            assert_eq!(q.recv_merge(&clock).unwrap().item, want);
        }
    }

    #[test]
    #[should_panic(expected = "ring full")]
    fn full_ring_with_no_consumer_panics_after_escape() {
        let q = DeliveryRings::with_escape(1, 2, Duration::from_millis(40));
        for i in 0..3u64 {
            q.push_from(0, VTime::ZERO, i);
        }
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn recv_escape_hatch_panics() {
        let q: DeliveryRings<()> = DeliveryRings::with_escape(1, 4, Duration::from_millis(30));
        let clock = VClock::new();
        let _ = q.recv_merge(&clock);
    }

    #[test]
    fn close_drains_remaining_then_reports() {
        let q = DeliveryRings::new(2, 4);
        q.push_from(1, VTime::from_us(1), 7);
        q.close();
        let clock = VClock::new();
        assert_eq!(q.recv_merge(&clock).unwrap().item, 7);
        assert!(q.recv_merge(&clock).is_err());
        // push after close is dropped
        q.push_from(0, VTime::ZERO, 9);
        assert_eq!(q.try_recv(), Err(QueueClosed));
    }

    #[test]
    fn close_unblocks_parked_consumer() {
        let q: DeliveryRings<()> = DeliveryRings::new(1, 4);
        let q2 = q.clone();
        let h = thread::spawn(move || loop {
            match q2.recv_until(None) {
                Ok(None) => continue,
                r => return r.map(|_| ()),
            }
        });
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(QueueClosed));
    }

    #[test]
    fn push_races_parked_recv_without_missed_wakeup() {
        // Hammer the park/notify handshake: a consumer that parks just as
        // the producer publishes must always be woken.
        let q = DeliveryRings::new(1, 64);
        let q2 = q.clone();
        let n = 500u64;
        let h = thread::spawn(move || {
            let clock = VClock::new();
            for _ in 0..n {
                q2.recv_merge(&clock).unwrap();
            }
        });
        for i in 0..n {
            q.push_from(0, VTime::from_us(i), i);
            if i % 7 == 0 {
                // Give the consumer time to drain and park again.
                thread::sleep(Duration::from_micros(200));
            }
        }
        h.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn recv_until_times_out_and_delivers() {
        let q: DeliveryRings<u8> = DeliveryRings::new(1, 4);
        let soon = || Some(Instant::now() + Duration::from_millis(10));
        assert_eq!(q.recv_until(soon()), Ok(None));
        q.push_from(0, VTime::from_us(4), 9);
        assert_eq!(q.recv_until(soon()).unwrap().unwrap().item, 9);
        q.close();
        assert_eq!(q.recv_until(soon()), Err(QueueClosed));
    }

    #[test]
    fn wake_receiver_ends_an_untimed_park() {
        let q: DeliveryRings<u8> = DeliveryRings::new(1, 4);
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
    fn len_hint_is_lock_free_and_exact_when_quiescent() {
        let q = DeliveryRings::new(2, 8);
        assert!(q.is_empty());
        q.push_from(0, VTime::ZERO, 1);
        q.push_from(1, VTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        let clock = VClock::new();
        q.recv_merge(&clock).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn matches_timed_queue_order_exactly() {
        // The determinism contract: the same (timestamp, push-order) input
        // pops identically from both implementations.
        let script: Vec<(usize, u64)> = (0..64)
            .map(|i| ((i * 7) % 3, ((i * 13) % 11) as u64))
            .collect();
        let heap = TimedQueue::new();
        let rings = DeliveryRings::new(3, 128);
        for (lane, us) in &script {
            heap.push(VTime::from_us(*us), (*lane, *us));
            rings.push_from(*lane, VTime::from_us(*us), (*lane, *us));
        }
        let mut a = Vec::new();
        while let Ok(Some(s)) = heap.try_recv() {
            a.push((s.at, s.item));
        }
        let mut b = Vec::new();
        while let Ok(Some(s)) = rings.try_recv() {
            b.push((s.at, s.item));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn cross_thread_delivery_merges_time() {
        let q = DeliveryRings::new(1, 4);
        let q2 = q.clone();
        let h = thread::spawn(move || {
            let clock = VClock::new();
            let s = q2.recv_merge(&clock).unwrap();
            (s.item, clock.now())
        });
        thread::sleep(Duration::from_millis(10));
        q.push_from(0, VTime::from_us(42), "pkt");
        let (item, t) = h.join().unwrap();
        assert_eq!(item, "pkt");
        assert_eq!(t, VTime::from_us(42));
    }

    #[test]
    fn delivery_queue_facade_dispatches_both_arms() {
        for dq in [
            DeliveryQueue::Heap(TimedQueue::new()),
            DeliveryQueue::Rings(DeliveryRings::new(2, 8)),
        ] {
            dq.push_from(1, VTime::from_us(2), "b");
            dq.push_from(0, VTime::from_us(1), "a");
            assert_eq!(dq.len(), 2);
            assert!(!dq.is_empty());
            let clock = VClock::new();
            assert_eq!(dq.recv_merge(&clock).unwrap().item, "a");
            assert_eq!(dq.try_recv().unwrap().unwrap().item, "b");
            dq.close();
            assert!(dq.is_closed());
            assert_eq!(dq.try_recv(), Err(QueueClosed));
        }
    }

    #[test]
    fn heavy_concurrent_wraparound_stress() {
        // Two producers on separate lanes, one consumer, tiny rings: the
        // cursors wrap hundreds of times and every element must surface
        // exactly once with its stamp intact.
        let q = DeliveryRings::new(2, 8);
        let n = 2_000u64;
        let mut handles = Vec::new();
        for lane in 0..2usize {
            let q2 = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..n {
                    q2.push_from(
                        lane,
                        VTime::from_us(i) + VDur::from_ns(lane as u64),
                        (lane, i),
                    );
                }
            }));
        }
        let mut seen = vec![Vec::new(); 2];
        let clock = VClock::new();
        for _ in 0..2 * n {
            let s = q.recv_merge(&clock).unwrap();
            seen[s.item.0].push(s.item.1);
        }
        for h in handles {
            h.join().unwrap();
        }
        for lane_seen in &mut seen {
            lane_seen.sort_unstable();
            assert_eq!(*lane_seen, (0..n).collect::<Vec<_>>());
        }
        assert!(q.is_empty());
    }
}
