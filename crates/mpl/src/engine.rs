//! The MPL matching engine: eager/rendezvous protocols, tag matching,
//! non-overtaking delivery, and `rcvncall` dispatch.
//!
//! Like the LAPI engine, one `MplEngine` exists per node and is shared by
//! the application thread (which drives progress from inside blocking calls
//! in polling mode) and a dispatcher thread (interrupt mode / `rcvncall`).
//! All CPU costs are charged to the node's single virtual clock.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spsim::SimCondvar;
use spsim::{trace, MachineConfig, NodeId, OrDiag, Stamped, StatCounter, VClock, VTime};
use spswitch::{Adapter, SendReceipt, WirePacket};

use crate::context::{MplHandlerCtx, MplMode, Status};
use crate::wire::{MplBody, Seq, Tag};

/// Protocol statistics.
#[derive(Clone, Debug, Default)]
pub struct MplStats {
    /// Messages sent.
    pub sends: StatCounter,
    /// Receives completed.
    pub recvs: StatCounter,
    /// Messages that used the eager protocol.
    pub eager_msgs: StatCounter,
    /// Messages that used the rendezvous protocol.
    pub rndv_msgs: StatCounter,
    /// Messages that arrived before a matching receive was posted
    /// (buffered, paying the receive-side copy).
    pub unexpected: StatCounter,
    /// `rcvncall` handler invocations (each pays the AIX context cost).
    pub rcvncall_invocations: StatCounter,
    /// Packets processed.
    pub packets: StatCounter,
}

/// A `rcvncall` handler: invoked with the completed message.
pub type RcvncallFn = Arc<dyn Fn(&MplHandlerCtx<'_>, Vec<u8>, Status) + Send + Sync>;

/// Completion state of one receive.
pub(crate) struct RecvState {
    st: Mutex<RecvInner>,
    cv: SimCondvar,
}

struct RecvInner {
    buf: Vec<u8>,
    done: bool,
    done_at: VTime,
    status: Status,
}

impl RecvState {
    fn new() -> Arc<Self> {
        Arc::new(RecvState {
            st: Mutex::new(RecvInner {
                buf: Vec::new(),
                done: false,
                done_at: VTime::ZERO,
                status: Status {
                    src: 0,
                    tag: 0,
                    len: 0,
                },
            }),
            cv: SimCondvar::new(),
        })
    }

    pub(crate) fn is_done(&self) -> bool {
        self.st.lock().done
    }

    pub(crate) fn take_if_done(&self, clock: &VClock) -> Option<(Vec<u8>, Status)> {
        let mut st = self.st.lock();
        if st.done {
            clock.merge(st.done_at);
            Some((std::mem::take(&mut st.buf), st.status))
        } else {
            None
        }
    }

    pub(crate) fn wait_done(&self, engine: &MplEngine) -> (Vec<u8>, Status) {
        let mut st = self.st.lock();
        let deadline = Instant::now() + engine.escape;
        // liveness: the dispatcher thread sets st.done and notifies the
        // cv when the last fragment lands; wait_until escapes past the
        // real-time deadline into the diagnostic panic below.
        while !st.done {
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                panic!(
                    "MPL receive never completed — simulated deadlock \
                     (no matching send, or the sender stopped making progress?)\n{}",
                    engine.adapter.tracer().tail_report(trace::REPORT_TAIL)
                );
            }
        }
        engine.clock().merge(st.done_at);
        (std::mem::take(&mut st.buf), st.status)
    }
}

/// Completion state of one send (buffer-reusable semantics).
pub(crate) struct SendState {
    st: Mutex<(bool, VTime)>,
    cv: SimCondvar,
}

impl SendState {
    fn new() -> Arc<Self> {
        Arc::new(SendState {
            st: Mutex::new((false, VTime::ZERO)),
            cv: SimCondvar::new(),
        })
    }

    fn complete(&self, at: VTime) {
        let mut st = self.st.lock();
        st.0 = true;
        st.1 = st.1.max(at);
        drop(st);
        self.cv.notify_all();
    }

    pub(crate) fn merge_if_done(&self, clock: &VClock) -> bool {
        let st = self.st.lock();
        if st.0 {
            clock.merge(st.1);
            true
        } else {
            false
        }
    }

    pub(crate) fn wait_done(&self, engine: &MplEngine) {
        let mut st = self.st.lock();
        let deadline = Instant::now() + engine.escape;
        // liveness: the dispatcher thread marks the send complete (CTS
        // arrival / final ack) and notifies the cv; wait_until escapes
        // past the real-time deadline into the diagnostic panic below.
        while !st.0 {
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                panic!(
                    "MPL send never completed (no CTS?) — simulated deadlock \
                     (rendezvous needs the receiver to post and make progress)\n{}",
                    engine.adapter.tracer().tail_report(trace::REPORT_TAIL)
                );
            }
        }
        engine.clock().merge(st.1);
    }
}

/// A deferred `rcvncall` invocation, executed outside the state lock.
struct HandlerFire {
    h: RcvncallFn,
    buf: Vec<u8>,
    status: Status,
}

/// A posted receive (or a persistent `rcvncall` registration).
struct Posted {
    src: Option<NodeId>,
    tag: Option<Tag>,
    state: Arc<RecvState>,
    handler: Option<RcvncallFn>,
}

/// One inbound message being matched/assembled.
struct InMsg {
    tag: Tag,
    total: usize,
    rndv: bool,
    received: usize,
    /// Fragments seen so far (a zero-length message still has one empty
    /// fragment; completion requires at least one).
    frags_seen: usize,
    /// Fragments buffered before the message was matched.
    frags: Vec<(usize, Vec<u8>)>,
    /// Set at match time.
    dest: Option<MatchedDest>,
}

struct MatchedDest {
    state: Arc<RecvState>,
    handler: Option<RcvncallFn>,
}

/// Inbound stream from one source (seq-ordered).
///
/// Non-overtaking delivery requires that a message's envelope only become
/// *visible for matching* once every lower-sequence message from the same
/// source has been seen — otherwise a late first message could be
/// overtaken by a second one that happened to arrive first. `contig`
/// tracks the first sequence number not yet seen; only `seq < contig`
/// envelopes may match.
#[derive(Default)]
struct StreamIn {
    msgs: BTreeMap<Seq, InMsg>,
    /// First sequence number whose envelope has NOT yet been seen.
    contig: Seq,
    /// Envelopes seen out of order (≥ `contig`).
    seen: BTreeSet<Seq>,
}

impl StreamIn {
    /// Record that `seq`'s envelope has arrived; advance the contiguous
    /// prefix.
    fn note_seen(&mut self, seq: Seq) {
        if seq >= self.contig {
            self.seen.insert(seq);
            while self.seen.remove(&self.contig) {
                self.contig += 1;
            }
        }
    }

    /// May `seq` participate in matching yet?
    fn visible(&self, seq: Seq) -> bool {
        seq < self.contig
    }
}

/// A rendezvous send parked until its CTS.
struct RndvSend {
    data: Vec<u8>,
    state: Arc<SendState>,
}

struct MatchState {
    posted: VecDeque<Posted>,
    streams: Vec<StreamIn>,
    send_seq: Vec<Seq>,
    // BTreeMap, not HashMap: parked sends are iterated by diagnostics and
    // the map lives on the trace-sensitive matching path (lint rule L2).
    rndv_sends: BTreeMap<(NodeId, Seq), RndvSend>,
}

/// Per-node MPL machinery.
pub(crate) struct MplEngine {
    adapter: Adapter<MplBody>,
    state: Mutex<MatchState>,
    mode: Mutex<MplMode>,
    mode_cv: SimCondvar,
    pub(crate) stats: MplStats,
    pub(crate) escape: Duration,
    terminated: AtomicBool,
}

impl MplEngine {
    pub(crate) fn new(adapter: Adapter<MplBody>, mode: MplMode, escape: Duration) -> Arc<Self> {
        let n = adapter.nodes();
        Arc::new(MplEngine {
            adapter,
            state: Mutex::new(MatchState {
                posted: VecDeque::new(),
                streams: (0..n).map(|_| StreamIn::default()).collect(),
                send_seq: vec![0; n],
                rndv_sends: BTreeMap::new(),
            }),
            mode: Mutex::new(mode),
            mode_cv: SimCondvar::new(),
            stats: MplStats::default(),
            escape,
            terminated: AtomicBool::new(false),
        })
    }

    pub(crate) fn id(&self) -> NodeId {
        self.adapter.id()
    }

    pub(crate) fn tasks(&self) -> usize {
        self.adapter.nodes()
    }

    pub(crate) fn clock(&self) -> &VClock {
        self.adapter.clock()
    }

    pub(crate) fn config(&self) -> &MachineConfig {
        self.adapter.config()
    }

    pub(crate) fn adapter(&self) -> &Adapter<MplBody> {
        &self.adapter
    }

    pub(crate) fn mode(&self) -> MplMode {
        *self.mode.lock()
    }

    pub(crate) fn set_mode(&self, m: MplMode) {
        *self.mode.lock() = m;
        self.mode_cv.notify_all();
        // A dispatcher parked on the ring must leave it for mode_cv.
        self.adapter.rx().wake_receiver();
    }

    pub(crate) fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::Acquire)
    }

    /// Emit a trace event on this node's timeline at the current virtual
    /// time, through the world's tracer. One branch for an untraced world.
    #[inline]
    pub(crate) fn tr(
        &self,
        kind: trace::EventKind,
        detail: &'static str,
        msg_id: u64,
        bytes: usize,
    ) {
        self.adapter
            .tracer()
            .emit(self.id(), self.clock().now(), kind, detail, msg_id, bytes);
    }

    /// Diagnostic snapshot for the real-time escape hatches: matching-state
    /// depths plus the merged trace tail when tracing is enabled.
    pub(crate) fn deadlock_report(&self, what: &str) -> String {
        let st = self.state.lock();
        let pending: Vec<(NodeId, usize, Seq)> = st
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.msgs.is_empty())
            .map(|(src, s)| (src, s.msgs.len(), s.contig))
            .collect();
        let report = format!(
            "node {} ({:?} mode): {what}\n\
             posted receives: {} unmatched inbound (src, msgs, contig): {pending:?}\n\
             parked rendezvous sends: {} rx-queue depth: {} clock: {}ns\n{}",
            self.id(),
            self.mode(),
            st.posted.len(),
            st.rndv_sends.len(),
            self.adapter.rx().len(),
            self.clock().now().as_ns(),
            self.adapter.tracer().tail_report(trace::REPORT_TAIL)
        );
        drop(st);
        report
    }

    // ----------------------------------------------------------- sending

    /// Inject one packet through the adapter's reliability protocol. MPL
    /// has no error-return surface (the library guarantees reliable
    /// in-order delivery), so an exhausted retransmission budget — a dead
    /// link outliving the retry bound — is fatal, with the adapter's flow
    /// and trace diagnostics attached.
    fn wire_send(&self, dst: NodeId, wire_bytes: usize, body: MplBody) -> SendReceipt {
        self.adapter
            .try_send_at(self.clock().now(), dst, wire_bytes, body)
            .unwrap_or_else(|e| {
                spsim::sim_panic!(
                    "node {}: MPL cannot honour its delivery guarantee: {e}",
                    self.id()
                )
            })
    }

    /// Send `data` to `dst` with `tag`; returns the completion state
    /// (already complete for eager sends — buffer was copied out).
    pub(crate) fn isend(&self, dst: NodeId, tag: Tag, data: &[u8]) -> Arc<SendState> {
        assert!(
            dst < self.tasks(),
            "MPL send: destination {dst} out of range"
        );
        self.stats.sends.incr();
        let cfg = self.config();
        let clock = self.clock();
        let seq = {
            let mut st = self.state.lock();
            let s = st.send_seq[dst];
            st.send_seq[dst] += 1;
            s
        };
        let state = SendState::new();
        clock.advance(cfg.mpl_send_issue);
        self.tr(trace::EventKind::Issue, "send", seq, data.len());
        if data.len() <= cfg.mpl_eager_limit {
            // Eager: copy into protocol buffers (the extra copy), inject,
            // and the user buffer is immediately reusable.
            self.stats.eager_msgs.incr();
            clock.advance(cfg.memcpy_time(data.len()));
            self.tr(trace::EventKind::EagerCopy, "eager", seq, data.len());
            self.inject_fragments(dst, data, |offset, chunk| MplBody::Eager {
                seq,
                tag,
                total_len: data.len(),
                offset,
                data: chunk.to_vec(),
            });
            state.complete(clock.now());
        } else {
            // Rendezvous: ship the envelope, park the data until the CTS.
            self.stats.rndv_msgs.incr();
            self.tr(trace::EventKind::Rts, "rndv", seq, data.len());
            self.state.lock().rndv_sends.insert(
                (dst, seq),
                RndvSend {
                    data: data.to_vec(),
                    state: Arc::clone(&state),
                },
            );
            self.wire_send(
                dst,
                cfg.mpl_header_bytes,
                MplBody::Rts {
                    seq,
                    tag,
                    total_len: data.len(),
                },
            );
        }
        state
    }

    /// Fragment a buffer onto the wire (16-byte headers) with one batched
    /// link reservation for the whole message. Returns the time the last
    /// fragment finished injecting (when the source buffer has been fully
    /// read by the adapter).
    fn inject_fragments(
        &self,
        dst: NodeId,
        data: &[u8],
        mk: impl Fn(usize, &[u8]) -> MplBody,
    ) -> VTime {
        let cfg = self.config();
        let clock = self.clock();
        let cap = cfg.payload_per_packet(cfg.mpl_header_bytes);
        let mut frags = Vec::with_capacity(data.len() / cap + 1);
        let mut offset = 0usize;
        loop {
            let end = (offset + cap).min(data.len());
            frags.push((
                cfg.mpl_header_bytes + (end - offset),
                mk(offset, &data[offset..end]),
            ));
            offset = end;
            if offset >= data.len() {
                break;
            }
        }
        let k = frags.len();
        let receipts = self
            .adapter
            .try_send_batch_at(clock.now(), cfg.lapi_pkt_issue, dst, frags)
            .unwrap_or_else(|e| {
                spsim::sim_panic!(
                    "node {}: MPL cannot honour its delivery guarantee: {e}",
                    self.id()
                )
            });
        // Charge the same per-fragment issue gap the one-at-a-time loop did.
        if k > 1 {
            clock.advance(cfg.lapi_pkt_issue * (k as u64 - 1));
        }
        receipts
            .last()
            .map(|r| r.injected_at)
            .unwrap_or_else(|| clock.now())
    }

    // ---------------------------------------------------------- receiving

    /// Post a receive (optionally with a `rcvncall` handler); returns its
    /// completion state. Matching against already-buffered messages happens
    /// immediately.
    pub(crate) fn post_recv(
        &self,
        src: Option<NodeId>,
        tag: Option<Tag>,
        handler: Option<RcvncallFn>,
    ) -> Arc<RecvState> {
        let state = RecvState::new();
        let posted = Posted {
            src,
            tag,
            state: Arc::clone(&state),
            handler,
        };
        let mut fires = Vec::new();
        let mut st = self.state.lock();
        self.post_locked(&mut st, posted, &mut fires);
        drop(st);
        self.run_handlers(fires);
        state
    }

    /// Post under the state lock: match against an already-arrived
    /// (unexpected) message — lowest sequence number first per source,
    /// sources in id order — or queue the receive.
    fn post_locked(&self, st: &mut MatchState, posted: Posted, fires: &mut Vec<HandlerFire>) {
        let mut found: Option<(NodeId, Seq)> = None;
        'outer: for (s, stream) in st.streams.iter().enumerate() {
            if let Some(want) = posted.src {
                if want != s {
                    continue;
                }
            }
            for (&seq, msg) in &stream.msgs {
                if stream.visible(seq)
                    && msg.dest.is_none()
                    && posted.tag.map(|t| t == msg.tag).unwrap_or(true)
                {
                    found = Some((s, seq));
                    break 'outer;
                }
            }
        }
        match found {
            Some((s, seq)) => {
                self.stats.unexpected.incr();
                self.match_msg(st, s, seq, posted, fires);
            }
            None => st.posted.push_back(posted),
        }
    }

    /// Bind message `(src, seq)` to `posted`. Charges the receive-side copy
    /// for buffered fragments, sends the CTS for rendezvous messages, and
    /// finishes the receive if all data is already here.
    fn match_msg(
        &self,
        st: &mut MatchState,
        src: NodeId,
        seq: Seq,
        posted: Posted,
        fires: &mut Vec<HandlerFire>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        let msg = st.streams[src]
            .msgs
            .get_mut(&seq)
            .or_diag("matched message missing from its stream");
        debug_assert!(msg.dest.is_none());
        self.tr(trace::EventKind::Match, "recv", seq, msg.total);
        {
            let mut ri = posted.state.st.lock();
            ri.buf = vec![0; msg.total];
            ri.status = Status {
                src,
                tag: msg.tag,
                len: msg.total,
            };
        }
        // Deposit (and pay for) fragments that arrived before the match.
        let frags = std::mem::take(&mut msg.frags);
        if !frags.is_empty() {
            let bytes: usize = frags.iter().map(|(_, d)| d.len()).sum();
            clock.advance(cfg.memcpy_time(bytes));
            let mut ri = posted.state.st.lock();
            for (off, d) in frags {
                ri.buf[off..off + d.len()].copy_from_slice(&d);
            }
        }
        msg.dest = Some(MatchedDest {
            state: posted.state,
            handler: posted.handler,
        });
        if msg.rndv {
            // Negotiate: tell the sender to go ahead.
            clock.advance(cfg.mpl_rndv_setup);
            self.tr(trace::EventKind::Cts, "rndv", seq, 0);
            self.wire_send(src, cfg.mpl_header_bytes, MplBody::Cts { seq });
        }
        if msg.frags_seen > 0 && msg.received >= msg.total {
            self.finish_recv(st, src, seq, fires);
        }
    }

    /// All bytes of `(src, seq)` are in its destination buffer: complete
    /// the receive. Queues the `rcvncall` firing (run after the state lock
    /// is released — handlers may call back into the engine) and re-arms
    /// persistent handlers through the normal posting path, so requests
    /// that arrived while the handler slot was consumed get matched.
    fn finish_recv(
        &self,
        st: &mut MatchState,
        src: NodeId,
        seq: Seq,
        fires: &mut Vec<HandlerFire>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        let msg = st.streams[src]
            .msgs
            .remove(&seq)
            .or_diag("finished message missing from its stream");
        let dest = msg.dest.or_diag("finished message was never matched");
        clock.advance(cfg.mpl_recv_match);
        self.stats.recvs.incr();
        self.tr(trace::EventKind::Complete, "recv", seq, msg.total);
        {
            let mut ri = dest.state.st.lock();
            ri.done = true;
            ri.done_at = clock.now();
        }
        dest.state.cv.notify_all();
        let Some(h) = dest.handler else { return };
        let (buf, status) = {
            let mut ri = dest.state.st.lock();
            (std::mem::take(&mut ri.buf), ri.status)
        };
        fires.push(HandlerFire {
            h: Arc::clone(&h),
            buf,
            status,
        });
        // Persistent rcvncall (as GA uses it): re-arm for the same tag via
        // the normal posting path so an unmatched request that arrived
        // while this slot was consumed gets matched immediately (it may
        // already be complete, queueing a further firing).
        self.post_locked(
            st,
            Posted {
                src: None,
                tag: Some(status.tag),
                state: RecvState::new(),
                handler: Some(h),
            },
            fires,
        );
    }

    /// Run deferred `rcvncall` firings (no engine locks held): charge the
    /// AIX handler-context creation cost, then the user handler.
    fn run_handlers(&self, fires: Vec<HandlerFire>) {
        for HandlerFire { h, buf, status } in fires {
            self.clock().advance(self.config().rcvncall_ctx);
            self.stats.rcvncall_invocations.incr();
            let hctx = MplHandlerCtx { engine: self };
            h(&hctx, buf, status);
        }
    }

    // ---------------------------------------------------------- progress

    /// Process one arrived packet.
    pub(crate) fn process_packet(&self, s: Stamped<WirePacket<MplBody>>) {
        let cfg = self.config();
        let clock = self.clock();
        clock.merge(s.at);
        clock.advance(cfg.mpl_pkt_dispatch);
        self.stats.packets.incr();
        let src = s.item.src;
        self.adapter.tracer().emit(
            self.id(),
            s.at,
            trace::EventKind::Deliver,
            "pkt",
            src as u64,
            s.item.wire_bytes,
        );
        let mut fires = Vec::new();
        let mut st = self.state.lock();
        match s.item.body {
            MplBody::Eager {
                seq,
                tag,
                total_len,
                offset,
                data,
            } => {
                self.note_envelope(&mut st, src, seq, tag, total_len, false, &mut fires);
                self.deposit(&mut st, src, seq, offset, data, &mut fires);
            }
            MplBody::Rts {
                seq,
                tag,
                total_len,
            } => self.note_envelope(&mut st, src, seq, tag, total_len, true, &mut fires),
            MplBody::Cts { seq } => {
                let rndv = st
                    .rndv_sends
                    .remove(&(src, seq))
                    .or_diag("CTS for unknown rendezvous send");
                drop(st);
                // Inject the parked data straight from the user buffer
                // (no extra copy — the rendezvous advantage). The send only
                // completes when the adapter has read the user buffer out,
                // i.e. when the last fragment is on the wire.
                let injected =
                    self.inject_fragments(src, &rndv.data, |offset, chunk| MplBody::RndvData {
                        seq,
                        offset,
                        total_len: rndv.data.len(),
                        data: chunk.to_vec(),
                    });
                rndv.state.complete(injected);
                return;
            }
            MplBody::RndvData {
                seq,
                offset,
                total_len,
                data,
            } => {
                debug_assert!(total_len > 0);
                self.deposit(&mut st, src, seq, offset, data, &mut fires);
            }
        }
        drop(st);
        self.run_handlers(fires);
    }

    /// Record the envelope of `(src, seq)` and attempt matching on arrival.
    #[allow(clippy::too_many_arguments)]
    fn note_envelope(
        &self,
        st: &mut MatchState,
        src: NodeId,
        seq: Seq,
        tag: Tag,
        total: usize,
        rndv: bool,
        fires: &mut Vec<HandlerFire>,
    ) {
        let stream = &mut st.streams[src];
        let was_contig = stream.contig;
        stream.msgs.entry(seq).or_insert(InMsg {
            tag,
            total,
            rndv,
            received: 0,
            frags_seen: 0,
            frags: Vec::new(),
            dest: None,
        });
        stream.note_seen(seq);
        let now_contig = stream.contig;
        if now_contig > was_contig {
            // This arrival extended the visible prefix: every unmatched
            // message that just became visible may now match.
            let newly: Vec<Seq> = st.streams[src]
                .msgs
                .range(..now_contig)
                .filter(|(_, m)| m.dest.is_none())
                .map(|(&s, _)| s)
                .collect();
            for s_seq in newly {
                self.try_match_arrival(st, src, s_seq, fires);
            }
        }
    }

    /// Match a newly-arrived message against the posted queue, respecting
    /// non-overtaking: it may only match if no earlier unmatched message
    /// from the same source also matches the same posted receive.
    fn try_match_arrival(
        &self,
        st: &mut MatchState,
        src: NodeId,
        seq: Seq,
        fires: &mut Vec<HandlerFire>,
    ) {
        if !st.streams[src].visible(seq) {
            // An earlier message from this source hasn't even been seen
            // yet; matching now could overtake it.
            return;
        }
        // A match earlier in this cascade may have fired a persistent
        // rcvncall whose re-arm already matched *and finished* this seq
        // (finish_recv removes it from the stream) — nothing left to do.
        let Some(msg) = st.streams[src].msgs.get(&seq) else {
            return;
        };
        if msg.dest.is_some() {
            return;
        }
        let tag = msg.tag;
        // Non-overtaking guard: an earlier unmatched message with the same
        // tag from this source must match first.
        let overtaken = st.streams[src]
            .msgs
            .range(..seq)
            .any(|(_, m)| m.dest.is_none() && m.tag == tag);
        if overtaken {
            return;
        }
        let idx = st.posted.iter().position(|p| {
            p.src.map(|s| s == src).unwrap_or(true) && p.tag.map(|t| t == tag).unwrap_or(true)
        });
        if let Some(idx) = idx {
            let posted = st.posted.remove(idx).or_diag("posted index out of range");
            self.match_msg(st, src, seq, posted, fires);
        }
    }

    /// Deposit a fragment (into the matched buffer, or the stash).
    fn deposit(
        &self,
        st: &mut MatchState,
        src: NodeId,
        seq: Seq,
        offset: usize,
        data: Vec<u8>,
        fires: &mut Vec<HandlerFire>,
    ) {
        let msg = st.streams[src]
            .msgs
            .get_mut(&seq)
            .or_diag("fragment arrived before its envelope was recorded");
        msg.received += data.len();
        msg.frags_seen += 1;
        let complete = msg.received >= msg.total;
        match &msg.dest {
            Some(d) => {
                let mut ri = d.state.st.lock();
                ri.buf[offset..offset + data.len()].copy_from_slice(&data);
            }
            None => msg.frags.push((offset, data)),
        }
        if complete && msg.dest.is_some() {
            self.finish_recv(st, src, seq, fires);
        }
    }

    /// Drive this node's progress until `done` yields a value: the one
    /// polling-mode wait behind blocking sends and receives. Panics with a
    /// diagnostic if `done` stays `None` for the escape.
    pub(crate) fn poll_until<R>(&self, mut done: impl FnMut() -> Option<R>) -> R {
        let deadline = Instant::now() + self.escape;
        // liveness: poll_step processes every arriving packet, which is
        // what completes the sends and receives `done` reads (a dispatcher
        // that raced a flip to polling wakes the ring park after its
        // batch); past the deadline poll_step panics with a diagnostic.
        loop {
            if let Some(r) = done() {
                return r;
            }
            self.poll_step(deadline);
        }
    }

    /// One polling step: process the next packet, parking on the receive
    /// ring until one arrives or a waker fires. Panics past `deadline`.
    // liveness: the ring park ends on every packet the switch delivers to
    // this node, on wake_receiver (set_mode, the dispatcher) and on close
    // (terminate); `deadline` bounds it.
    fn poll_step(&self, deadline: Instant) {
        self.adapter.pump(self.clock().now());
        match self.adapter.rx().recv_until(Some(deadline)) {
            Ok(Some(s)) => self.process_packet(s),
            Ok(None) if Instant::now() >= deadline => panic!(
                "{}",
                self.deadlock_report(&format!(
                    "MPL made no progress for {:?} of real time — simulated deadlock",
                    self.escape
                ))
            ),
            Ok(None) => {}
            Err(_) => spsim::sim_panic!("MPL adapter queue closed while waiting for progress"),
        }
    }

    /// Interrupt-mode dispatcher loop. Idle is legal here, so every park
    /// is untimed.
    pub(crate) fn dispatcher_loop(&self) {
        // liveness: set_mode and terminate notify mode_cv (terminate under
        // the mode lock this loop checks it in); the ring park ends on
        // every arriving packet, on set_mode's wake_receiver and on the
        // close in terminate.
        loop {
            {
                let mut mode = self.mode.lock();
                if self.is_terminated() {
                    return;
                }
                if *mode == MplMode::Polling {
                    SimCondvar::wait(&self.mode_cv, &mut mode);
                    continue;
                }
            }
            match self.adapter.rx().recv_until(None) {
                Err(_) => return,
                Ok(None) => continue,
                Ok(Some(s)) => {
                    self.clock().merge(s.at);
                    self.process_packet(s);
                    while let Ok(Some(next)) = self.adapter.rx().try_recv() {
                        self.process_packet(next);
                    }
                    self.adapter.pump(self.clock().now());
                    // A flip to polling mid-batch leaves the application
                    // parked on the ring, waiting on what this batch did.
                    if self.mode() == MplMode::Polling {
                        self.adapter.rx().wake_receiver();
                    }
                }
            }
        }
    }

    pub(crate) fn terminate(&self) {
        {
            // Under the mode lock, which the dispatcher checks the flag
            // under, so the mode_cv notify below cannot slip in between.
            let _mode = self.mode.lock();
            self.terminated.store(true, Ordering::Release);
        }
        self.mode_cv.notify_all();
        self.adapter.shutdown();
    }
}
