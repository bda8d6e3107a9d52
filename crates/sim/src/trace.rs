//! Virtual-time event tracing and deadlock diagnostics.
//!
//! Every protocol layer in the workspace (switch adapter, LAPI engine, MPL
//! engine, Global Arrays backends) emits [`TraceEvent`]s on its hot paths
//! through its world's [`Tracer`]. Events land in the per-node ring buffers
//! of one session's [`TraceSink`], and [`TraceSession::finish`] hands back
//! the merged, deterministically ordered [`Timeline`].
//!
//! Tracing is **disabled by default**. Open a [`TraceSession`] (see
//! [`session`]) and build the world on the same thread: a world decides once,
//! when its switch is built ([`Tracer::for_new_world`]), whether it records,
//! and it records only into the sink of the session that was open on the
//! building thread at that moment. Every session has a sink of its own, so
//! traced runs on different threads proceed concurrently without seeing each
//! other's events, and a world built anywhere else never records. An
//! untraced world's record path is one predictable branch.
//!
//! Determinism: virtual time makes each node's event *multiset* at any
//! `(vtime, node)` reproducible for a fixed seed, but OS scheduling can vary
//! the order in which threads of one node append same-timestamp events. The
//! merged timeline therefore sorts by every rendered field —
//! `(vtime, node, kind, detail, msg_id, bytes)` — before the racy insertion
//! sequence, so [`Timeline::render`] is byte-identical across runs with the
//! same seed.
//!
//! The sink also keeps injected/delivered packet counts independent of ring
//! eviction; [`TraceSink::assert_quiescent`] uses them to flag messages that
//! entered the switch but were never consumed by a protocol engine.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::runtime::NodeId;
use crate::time::VTime;

/// Default per-node ring capacity (events kept before the oldest are evicted).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// How many merged events a deadlock report shows.
pub const REPORT_TAIL: usize = 32;

/// What a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// Packet accepted by a sending adapter's injection link.
    Inject,
    /// Packet handed to the destination adapter's receive queue.
    Eject,
    /// Packet lost in the fabric (will be retransmitted).
    Drop,
    /// Retransmission latency charged after a drop.
    Retransmit,
    /// Packet consumed by a protocol engine (LAPI dispatcher / MPL poll).
    Deliver,
    /// Interrupt cost charged to a target (LAPI interrupt mode).
    Interrupt,
    /// API-level operation issued (put/get/amsend/rmw/send/...).
    Issue,
    /// Header or completion handler invoked.
    HandlerEnter,
    /// Header or completion handler returned.
    HandlerExit,
    /// Completion counter incremented (org/tgt/cmpl or MPL state).
    Counter,
    /// Fence/quiesce wait started.
    FenceBegin,
    /// Fence/quiesce wait satisfied.
    FenceEnd,
    /// API-level operation fully completed.
    Complete,
    /// MPL envelope matched a posted receive.
    Match,
    /// MPL eager-protocol buffer copy.
    EagerCopy,
    /// MPL rendezvous request-to-send.
    Rts,
    /// MPL rendezvous clear-to-send.
    Cts,
    /// Hybrid-protocol branch decision (GA backends).
    Branch,
    /// Free-form annotation.
    Note,
    /// Cumulative acknowledgement charged to the wire by a receiving
    /// adapter (coalesced; `msg_id` = highest sequence acknowledged).
    /// Not counted against quiescence: ACKs are adapter-internal.
    Ack,
    /// Duplicate copy suppressed by the receiving adapter's sequence
    /// dedup (`msg_id` = the duplicated sequence number).
    Dup,
    /// A flow exhausted its bounded retransmissions; the sender surfaced
    /// a structured delivery-timeout error.
    FlowStall,
    /// A peer was declared dead (first terminal delivery failure against
    /// it); `msg_id` = the dead peer's rank. Emitted exactly once per
    /// (observer, dead peer) pair.
    PeerDead,
    /// An outstanding operation was cancelled because its target died
    /// (`msg_id` = the dead target's rank).
    OpCancelled,
    /// A fence/barrier degraded to its survivor set instead of waiting on
    /// dead members (`msg_id` = number of live participants).
    FenceDegraded,
    /// Packets written off the quiescence ledger: injected onto the wire
    /// but terminally undeliverable (retry exhaustion, or stranded in a
    /// crashed node's receive queue). `bytes` = number of packets.
    WriteOff,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Inject => "inject",
            EventKind::Eject => "eject",
            EventKind::Drop => "drop",
            EventKind::Retransmit => "retransmit",
            EventKind::Deliver => "deliver",
            EventKind::Interrupt => "interrupt",
            EventKind::Issue => "issue",
            EventKind::HandlerEnter => "hdr-enter",
            EventKind::HandlerExit => "hdr-exit",
            EventKind::Counter => "counter",
            EventKind::FenceBegin => "fence-begin",
            EventKind::FenceEnd => "fence-end",
            EventKind::Complete => "complete",
            EventKind::Match => "match",
            EventKind::EagerCopy => "eager-copy",
            EventKind::Rts => "rts",
            EventKind::Cts => "cts",
            EventKind::Branch => "branch",
            EventKind::Note => "note",
            EventKind::Ack => "ack",
            EventKind::Dup => "dup",
            EventKind::FlowStall => "flow-stall",
            EventKind::PeerDead => "peer-dead",
            EventKind::OpCancelled => "op-cancelled",
            EventKind::FenceDegraded => "fence-degraded",
            EventKind::WriteOff => "write-off",
        };
        f.pad(s)
    }
}

/// One virtual-time-stamped event from one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub vtime: VTime,
    /// Node (rank) the event belongs to.
    pub node: NodeId,
    /// What happened.
    pub kind: EventKind,
    /// Short static label (operation name, counter name, branch taken...).
    pub detail: &'static str,
    /// Message/packet identifier the event concerns (protocol-defined; 0 if
    /// not applicable).
    pub msg_id: u64,
    /// Payload or wire size the event concerns, in bytes.
    pub bytes: usize,
    /// Per-node insertion sequence (assigned by the sink; last-resort
    /// tie-break only, never rendered).
    pub seq: u64,
}

impl TraceEvent {
    /// Sort key covering every *rendered* field, so same-seed runs merge into
    /// byte-identical timelines even when threads race on `seq`.
    fn key(&self) -> (VTime, NodeId, EventKind, &'static str, u64, usize, u64) {
        (
            self.vtime,
            self.node,
            self.kind,
            self.detail,
            self.msg_id,
            self.bytes,
            self.seq,
        )
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}ns n{:02} {:<11} {:<14} id={:<6} bytes={}",
            self.vtime.as_ns(),
            self.node,
            self.kind,
            self.detail,
            self.msg_id,
            self.bytes
        )
    }
}

struct NodeRing {
    events: Mutex<std::collections::VecDeque<TraceEvent>>,
    next_seq: AtomicU64,
    evicted: AtomicU64,
}

impl NodeRing {
    fn new() -> Self {
        NodeRing {
            events: Mutex::new(std::collections::VecDeque::new()),
            next_seq: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }
}

/// One session's event sink: per-node rings plus the quiescence ledger.
/// [`session`] creates it empty; the worlds built under the session share it
/// through their [`Tracer`], and it is freed with the last of them.
pub struct TraceSink {
    rings: RwLock<Vec<Arc<NodeRing>>>,
    capacity: AtomicUsize,
    injected: AtomicU64,
    delivered: AtomicU64,
    dropped_pkts: AtomicU64,
    acks: AtomicU64,
    dups: AtomicU64,
    written_off: AtomicU64,
}

thread_local! {
    /// The sink of the session this thread holds. A [`TraceSession`] is
    /// `!Send`, so the thread that opened it is the one that drops it.
    static HELD_HERE: RefCell<Option<Arc<TraceSink>>> = const { RefCell::new(None) };
}

impl TraceSink {
    fn new() -> Self {
        TraceSink {
            rings: RwLock::new(Vec::new()),
            capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            injected: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped_pkts: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            dups: AtomicU64::new(0),
            written_off: AtomicU64::new(0),
        }
    }

    #[cold]
    fn record(
        &self,
        node: NodeId,
        vtime: VTime,
        kind: EventKind,
        detail: &'static str,
        msg_id: u64,
        bytes: usize,
    ) {
        let stat = match kind {
            EventKind::Inject => Some((&self.injected, 1)),
            EventKind::Deliver => Some((&self.delivered, 1)),
            EventKind::Drop => Some((&self.dropped_pkts, 1)),
            EventKind::Ack => Some((&self.acks, 1)),
            EventKind::Dup => Some((&self.dups, 1)),
            // A write-off retires `bytes` packets in one event.
            EventKind::WriteOff => Some((&self.written_off, bytes as u64)),
            _ => None,
        };
        if let Some((stat, n)) = stat {
            // ordering: independent monotone stat counters; totals are read
            // after the traced threads join (or as a heuristic mid-run).
            stat.fetch_add(n, Ordering::Relaxed);
        }
        let ring = self.ring(node);
        // ordering: per-node sequence — only uniqueness/monotonicity within
        // one ring matters; merged order is rebuilt from the sort key.
        let seq = ring.next_seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            vtime,
            node,
            kind,
            detail,
            msg_id,
            bytes,
            seq,
        };
        // ordering: capacity is configured before the traced job starts; a
        // stale read can only mis-size the ring by a few events.
        let cap = self.capacity.load(Ordering::Relaxed).max(1);
        let mut q = ring.events.lock();
        if q.len() >= cap {
            q.pop_front();
            // ordering: eviction tally, read after the traced threads join.
            ring.evicted.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
    }

    fn ring(&self, node: NodeId) -> Arc<NodeRing> {
        {
            let rings = self.rings.read();
            if let Some(r) = rings.get(node) {
                return Arc::clone(r);
            }
        }
        let mut rings = self.rings.write();
        while rings.len() <= node {
            rings.push(Arc::new(NodeRing::new()));
        }
        Arc::clone(&rings[node])
    }

    /// Every buffered event, in deterministic merged order.
    fn merged(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for ring in self.rings.read().iter() {
            events.extend(ring.events.lock().iter().copied());
        }
        events.sort_by_key(TraceEvent::key);
        events
    }

    /// Number of packets injected into the switch in this session.
    pub fn injected(&self) -> u64 {
        // ordering: stat read; exact only once the traced threads joined.
        self.injected.load(Ordering::Relaxed)
    }

    /// Number of packets consumed by a protocol engine in this session.
    pub fn delivered(&self) -> u64 {
        // ordering: stat read; exact only once the traced threads joined.
        self.delivered.load(Ordering::Relaxed)
    }

    /// Packets currently in flight: injected but neither consumed by an
    /// engine nor written off as terminally undeliverable.
    ///
    /// ACK packets and suppressed duplicates are adapter-internal and do
    /// **not** count here: the reliability protocol generates and absorbs
    /// them below the protocol engines, so quiescence still balances plain
    /// injects against delivers.
    pub fn in_flight(&self) -> u64 {
        self.injected()
            .saturating_sub(self.delivered() + self.written_off())
    }

    /// Packets written off the quiescence ledger: injected but terminally
    /// undeliverable (retry exhaustion against a dead link or peer, or
    /// stranded in a crashed node's receive queue at teardown). Zero on
    /// every healthy run.
    pub fn written_off(&self) -> u64 {
        // ordering: stat read; exact only once the traced threads joined.
        self.written_off.load(Ordering::Relaxed)
    }

    /// Packets the fabric genuinely dropped (data or ACKs) in this session.
    /// By construction every drop costs the sender exactly one
    /// retransmission round.
    pub fn fabric_drops(&self) -> u64 {
        // ordering: stat read; exact only once the traced threads joined.
        self.dropped_pkts.load(Ordering::Relaxed)
    }

    /// Wire acknowledgements charged by receiving adapters in this session.
    pub fn acks(&self) -> u64 {
        // ordering: stat read; exact only once the traced threads joined.
        self.acks.load(Ordering::Relaxed)
    }

    /// Duplicate copies suppressed by receiving adapters in this session.
    pub fn dups_suppressed(&self) -> u64 {
        // ordering: stat read; exact only once the traced threads joined.
        self.dups.load(Ordering::Relaxed)
    }

    /// Panic with a diagnostic timeline tail if any traced packet was
    /// injected into the switch but never consumed by a protocol engine.
    ///
    /// Call this after a traced job completes (all expected completions
    /// observed) to catch leaked in-flight messages — e.g. a reply a handler
    /// forgot to wait for, or a packet stuck in a closed adapter queue.
    pub fn assert_quiescent(&self) {
        let injected = self.injected();
        let delivered = self.delivered();
        let written_off = self.written_off();
        if injected != delivered + written_off {
            panic!(
                "TraceSink::assert_quiescent: {} packet(s) leaked in flight \
                 (injected {injected}, delivered {delivered}, written off \
                 {written_off})\n{}",
                self.in_flight(),
                self.tail_report(REPORT_TAIL)
            );
        }
    }

    /// Events evicted from full rings in this session (0 means the timeline
    /// is complete).
    pub fn evicted(&self) -> u64 {
        self.rings
            .read()
            .iter()
            // ordering: stat read; exact only once the traced threads joined.
            .map(|r| r.evicted.load(Ordering::Relaxed))
            .sum()
    }

    /// A human-readable report of the last `n` merged events plus the
    /// in-flight counters. Used by deadlock diagnostics.
    pub fn tail_report(&self, n: usize) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- trace: injected={} delivered={} written-off={} in-flight={} \
             fabric-drops={} acks={} dups-suppressed={} --",
            self.injected(),
            self.delivered(),
            self.written_off(),
            self.in_flight(),
            self.fabric_drops(),
            self.acks(),
            self.dups_suppressed(),
        );
        let events = self.merged();
        let start = events.len().saturating_sub(n);
        let _ = writeln!(
            out,
            "last {} of {} events:",
            events.len() - start,
            events.len()
        );
        for ev in &events[start..] {
            let _ = writeln!(out, "  {ev}");
        }
        out
    }

    /// Set the per-node ring capacity (events kept before eviction) for
    /// the rest of this session.
    pub fn set_capacity(&self, cap: usize) {
        // ordering: configuration knob, set before the traced job starts.
        self.capacity.store(cap.max(1), Ordering::Relaxed);
    }
}

/// What a diagnostic shows in place of the event tail when no session
/// records the failing world.
fn untraced_report() -> String {
    "-- trace: none --\n(event tracing disabled — open spsim::trace::session() on the \
     thread that builds the world to capture a virtual-time timeline)"
        .to_string()
}

/// A world's route into its session's sink, decided once when the world is
/// built and carried by its adapters; protocol layers emit through their
/// adapter's tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    /// The sink this world records into (`None`: never records).
    sink: Option<Arc<TraceSink>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

impl Tracer {
    /// The tracer for a world being built on the calling thread: it records
    /// into the sink of the session this thread holds, if any.
    pub fn for_new_world() -> Tracer {
        Tracer {
            sink: HELD_HERE.with(|h| h.borrow().clone()),
        }
    }

    /// Record one event. One branch for an untraced world.
    #[inline]
    pub fn emit(
        &self,
        node: NodeId,
        vtime: VTime,
        kind: EventKind,
        detail: &'static str,
        msg_id: u64,
        bytes: usize,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(node, vtime, kind, detail, msg_id, bytes);
        }
    }

    /// [`TraceSink::tail_report`] for this world's sink, or a hint when the
    /// world is untraced. Works on any thread, including pool workers.
    pub fn tail_report(&self, n: usize) -> String {
        self.sink
            .as_ref()
            .map_or_else(untraced_report, |sink| sink.tail_report(n))
    }
}

/// [`TraceSink::tail_report`] for the session the calling thread holds, or
/// a hint when it holds none. Diagnostics with a world at hand use
/// [`Tracer::tail_report`] instead.
pub fn tail_report(n: usize) -> String {
    Tracer::for_new_world().tail_report(n)
}

/// The merged, deterministically ordered event timeline of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All captured events, ordered by `(vtime, node, kind, detail, msg_id,
    /// bytes)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring eviction (0 means `events` is complete).
    pub evicted: u64,
}

impl Timeline {
    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Render the timeline as text — byte-identical across same-seed runs.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for ev in &self.events {
            let _ = writeln!(out, "{ev}");
        }
        out
    }
}

/// RAII handle for a traced run: while it is held, worlds built on this
/// thread record into its own, initially empty [`TraceSink`]. A thread holds
/// at most one session; sessions on different threads are independent.
pub struct TraceSession {
    sink: Arc<TraceSink>,
    /// `!Send`: the session must end on the thread whose slot it fills.
    _not_send: PhantomData<*const ()>,
}

/// Start a traced run on this thread with a fresh sink.
///
/// # Panics
/// If this thread already holds an open session.
pub fn session() -> TraceSession {
    let sink = Arc::new(TraceSink::new());
    HELD_HERE.with(|h| {
        let mut held = h.borrow_mut();
        assert!(
            held.is_none(),
            "a trace session is already open on this thread"
        );
        *held = Some(Arc::clone(&sink));
    });
    TraceSession {
        sink,
        _not_send: PhantomData,
    }
}

impl TraceSession {
    /// End the session and return the merged timeline of everything
    /// recorded during it.
    pub fn finish(self) -> Timeline {
        Timeline {
            events: self.sink.merged(),
            evicted: self.sink.evicted(),
        }
    }

    /// This session's sink, for counter checks mid-session.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        HELD_HERE.with(|h| h.borrow_mut().take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held_here() -> bool {
        HELD_HERE.with(|h| h.borrow().is_some())
    }

    #[test]
    fn disabled_by_default_and_record_is_noop() {
        // Built with no session held: this world never records, not even
        // into a session opened later on the same thread.
        let untraced = Tracer::for_new_world();
        untraced.emit(0, VTime::from_us(1), EventKind::Note, "ignored", 0, 0);
        let s = session();
        untraced.emit(0, VTime::from_us(2), EventKind::Inject, "pkt", 1, 64);
        assert_eq!(s.sink().injected(), 0);
        let t = s.finish();
        assert!(t.events.is_empty());
    }

    #[test]
    fn only_worlds_built_on_the_session_thread_record() {
        let s = session();
        let traced = Tracer::for_new_world();
        let other = std::thread::spawn(Tracer::for_new_world)
            .join()
            .expect("tracer thread");
        other.emit(7, VTime::from_us(1), EventKind::Inject, "pkt", 1, 64);
        traced.emit(0, VTime::from_us(1), EventKind::Inject, "pkt", 1, 64);
        let t = s.finish();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].node, 0);
        // A traced world that outlives its session records into no other.
        let s = session();
        traced.emit(0, VTime::from_us(2), EventKind::Inject, "pkt", 2, 64);
        assert_eq!(s.sink().injected(), 0);
    }

    #[test]
    fn session_captures_merged_ordered_timeline() {
        let s = session();
        let tr = Tracer::for_new_world();
        // Deliberately record out of order and across nodes.
        tr.emit(1, VTime::from_us(20), EventKind::Eject, "pkt", 7, 64);
        tr.emit(0, VTime::from_us(10), EventKind::Inject, "pkt", 7, 64);
        tr.emit(0, VTime::from_us(20), EventKind::Note, "later", 0, 0);
        let t = s.finish();
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Inject, EventKind::Note, EventKind::Eject]
        );
        assert_eq!(t.count(EventKind::Inject), 1);
        assert_eq!(t.evicted, 0);
        let text = t.render();
        assert!(text.contains("inject"), "render lists kinds: {text}");
        assert!(!held_here(), "finish() ends the session");
    }

    #[test]
    fn quiescent_when_balanced_and_panics_when_leaky() {
        let s = session();
        let tr = Tracer::for_new_world();
        tr.emit(0, VTime::from_us(1), EventKind::Inject, "pkt", 1, 64);
        tr.emit(1, VTime::from_us(2), EventKind::Deliver, "pkt", 1, 64);
        s.sink().assert_quiescent();
        tr.emit(0, VTime::from_us(3), EventKind::Inject, "pkt", 2, 64);
        let sink = s.sink();
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink.assert_quiescent()))
                .expect_err("must flag the in-flight packet");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("1 packet(s) leaked in flight"), "got: {msg}");
        assert!(msg.contains("last"), "report shows the event tail: {msg}");
        drop(s);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let s = session();
        s.sink().set_capacity(4);
        let tr = Tracer::for_new_world();
        for i in 0..10u64 {
            tr.emit(0, VTime::from_us(i), EventKind::Note, "n", i, 0);
        }
        let t = s.finish();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.evicted, 6);
        assert_eq!(t.events[0].msg_id, 6, "oldest events were evicted");
    }

    #[test]
    fn capacity_does_not_leak_into_the_next_session() {
        let a = session();
        a.sink().set_capacity(4);
        a.finish();
        let b = session();
        let tr = Tracer::for_new_world();
        for i in 0..10u64 {
            tr.emit(0, VTime::from_us(i), EventKind::Note, "n", i, 0);
        }
        let t = b.finish();
        assert_eq!(t.evicted, 0, "a new session starts at the default capacity");
        assert_eq!(t.events.len(), 10);
    }

    #[test]
    #[should_panic(expected = "a trace session is already open on this thread")]
    fn nested_session_on_one_thread_panics() {
        let _outer = session();
        let _inner = session();
    }

    #[test]
    fn nested_session_panic_keeps_the_outer_one() {
        let outer = session();
        let tr = Tracer::for_new_world();
        let nested = std::panic::catch_unwind(session);
        assert!(nested.is_err(), "a second session must be refused");
        tr.emit(0, VTime::from_us(1), EventKind::Inject, "pkt", 1, 64);
        assert_eq!(outer.sink().injected(), 1);
        assert_eq!(
            Tracer::for_new_world().tail_report(8),
            outer.sink().tail_report(8)
        );
    }

    #[test]
    fn tail_report_hints_when_disabled() {
        let r = tail_report(8);
        assert!(r.contains("-- trace: none --"), "got: {r}");
        assert!(r.contains("tracing disabled"), "got: {r}");
        assert!(r.contains("thread that builds the world"), "got: {r}");
        assert_eq!(Tracer::default().tail_report(8), r);
    }
}
