//! The LAPI engine: issue paths, the dispatcher, reassembly, completion.
//!
//! One [`Engine`] exists per node. It is shared by
//!
//! * the **application thread** (issuing operations; in polling mode also
//!   driving the dispatcher logic from inside wait calls),
//! * the **dispatcher thread** (interrupt mode: woken by arriving packets,
//!   charging the interrupt cost, then processing the backlog — the paper's
//!   observation that a packet received while a previous one is still being
//!   processed avoids its interrupt falls out of the drain loop), and
//! * the **completion-handler thread** (running user completion handlers
//!   concurrently with the dispatcher, as §2.1 specifies).
//!
//! All of them charge their CPU costs to the *same* node clock, modelling
//! the single P2SC processor each paper node had.

// BTreeMap, not HashMap: handler tables, reassembly state and rmw slots are
// iterated by diagnostics and live on trace-sensitive paths (lint rule L2).
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use spsim::SimCondvar;
use spsim::{trace, MachineConfig, NodeId, OrDiag, Stamped, TimedQueue, VClock, VTime};
use spswitch::{Adapter, DeliveryTimeout, SendReceipt, WirePacket};

use crate::addr::{Addr, AddressSpace};
use crate::counter::{Counter, CounterId, RemoteCounter};
use crate::error::LapiError;
use crate::handlers::{AmInfo, CompletionFn, HandlerCtx, HeaderHandlerFn};
use crate::stats::LapiStats;
use crate::wire::{Bytes, DataKind, IoVec, LapiBody, MsgId, RmwOp};
use crate::LapiResult;

/// Progress mode (§2.1): the typical mode is interrupt; polling avoids the
/// interrupt cost but requires the target to make LAPI calls for progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Arriving packets interrupt the node; the dispatcher runs unbidden.
    Interrupt,
    /// Progress happens only inside LAPI calls.
    Polling,
}

/// User error handler registered at init (the `err_hndlr` argument of the
/// real `LAPI_Init`): invoked for asynchronous communication failures that
/// have no user call to return through (e.g. a dispatcher-side reply hitting
/// a dead link).
pub type ErrHandler = Arc<dyn Fn(&LapiError) + Send + Sync>;

/// Reassembly state of one in-flight inbound message.
enum Reasm {
    /// Put / get-reply fragments (landing addresses ride in each packet).
    Data { received: usize },
    /// Active message whose header has run: we know the buffer.
    Am {
        buffer: Option<Addr>,
        received: usize,
        completion: Option<CompletionFn>,
        tgt_cntr: Option<CounterId>,
        cmpl_cntr: Option<CounterId>,
    },
    /// A putv stream whose vector table has arrived: fragments scatter
    /// through the table.
    VecPut {
        vecs: Vec<IoVec>,
        received: usize,
        tgt_cntr: Option<CounterId>,
        cmpl_cntr: Option<CounterId>,
    },
    /// Active-message or putv data that arrived before its header packet
    /// (out-of-order routes): stash until the header shows up.
    AmEarly { stash: Vec<(usize, Bytes)> },
}

/// Work handed to the completion-handler thread.
struct CmplWork {
    f: Option<CompletionFn>,
    src: NodeId,
    tgt_cntr: Option<CounterId>,
    cmpl_cntr: Option<CounterId>,
}

/// One-shot slot for an rmw reply. Filled with `Ok(prev)` by the reply
/// packet, or poisoned with a structured error when the target is declared
/// dead before the reply arrives (peer-death propagation).
pub(crate) struct RmwSlot {
    st: Mutex<Option<LapiResult<u64>>>,
    cv: SimCondvar,
}

/// Handle to a pending `LAPI_Rmw`: resolves to the previous cell value.
pub struct RmwFuture {
    engine: Arc<Engine>,
    slot: Arc<RmwSlot>,
}

impl RmwFuture {
    /// Block until the reply arrives or the target is declared dead
    /// (driving progress in polling mode). `Ok` carries the previous value
    /// of the target cell; `Err` is the peer-death cancellation.
    pub fn wait_result(&self) -> LapiResult<u64> {
        let engine = &self.engine;
        match engine.mode() {
            Mode::Interrupt => {
                let mut st = self.slot.st.lock();
                let deadline = Instant::now() + engine.escape;
                // liveness: the slot is filled by the dispatcher thread on
                // RmwReply arrival, or poisoned (with cv notify) by
                // declare_peer_dead; wait_until escapes past the deadline.
                while st.is_none() {
                    if self.slot.cv.wait_until(&mut st, deadline).timed_out() {
                        panic!(
                            "{}",
                            engine.deadlock_report(
                                "LAPI_Rmw reply never arrived — simulated deadlock"
                            )
                        );
                    }
                }
                st.clone().or_diag("rmw slot filled but empty after wakeup")
            }
            // The reply packet fills the slot; peer death poisons it.
            Mode::Polling => engine.poll_until(|| self.slot.st.lock().clone()),
        }
    }

    /// Block until the reply arrives, panicking (with the structured
    /// diagnostic) if the operation was cancelled by peer death. Callers
    /// that can surface errors use [`RmwFuture::wait_result`].
    pub fn wait(&self) -> u64 {
        self.wait_result()
            .unwrap_or_else(|e| spsim::sim_panic!("LAPI_Rmw cancelled: {e}"))
    }

    /// Non-blocking check; panics if the operation was cancelled by peer
    /// death (see [`RmwFuture::try_result`]).
    pub fn try_get(&self) -> Option<u64> {
        self.try_result()
            .map(|r| r.unwrap_or_else(|e| spsim::sim_panic!("LAPI_Rmw cancelled: {e}")))
    }

    /// Non-blocking check preserving the cancellation error.
    pub fn try_result(&self) -> Option<LapiResult<u64>> {
        self.slot.st.lock().clone()
    }
}

/// Per-node LAPI machinery (see module docs).
pub struct Engine {
    adapter: Adapter<LapiBody>,
    space: Mutex<AddressSpace>,
    counters: Mutex<Vec<Counter>>,
    handlers: RwLock<BTreeMap<u32, HeaderHandlerFn>>,
    reasm: Mutex<BTreeMap<(NodeId, MsgId), Reasm>>,
    outstanding: Mutex<Vec<i64>>,
    outstanding_cv: SimCondvar,
    /// Pending rmw tickets with the target each awaits a reply from, so
    /// peer-death propagation can poison exactly the tickets it strands.
    rmw_slots: Mutex<BTreeMap<u64, (NodeId, Arc<RmwSlot>)>>,
    /// Per-peer death latch: flipped exactly once per peer by
    /// [`Engine::declare_peer_dead`], which is the only path allowed to
    /// fire the `err_hndlr` for a communication failure.
    dead_peers: Mutex<Vec<bool>>,
    /// Per-target list of *local* counter ids that a future inbound packet
    /// from that target would bump (put/am/putv `cmpl_cntr` via `Done`,
    /// get/getv `org_cntr` via the data reply). Credited en masse when the
    /// peer is declared dead so `Waitcntr` sleepers wake instead of
    /// deadlocking; the arrival paths gate their bump on un-noting so a
    /// stale packet cannot double-credit.
    pending_cmpl: Mutex<Vec<Vec<CounterId>>>,
    next_msg: AtomicU64,
    next_ticket: AtomicU64,
    mode: Mutex<Mode>,
    mode_cv: SimCondvar,
    cmpl_q: TimedQueue<CmplWork>,
    pub(crate) stats: LapiStats,
    pub(crate) escape: Duration,
    terminated: AtomicBool,
    /// Crash-stop latch (fault injection): unlike plain termination, a
    /// crashed node's service loops stop *without* draining their
    /// backlogs — a crashed adapter delivers nothing — and teardown writes
    /// the stranded packets off instead.
    crashed: AtomicBool,
    err_hndlr: RwLock<Option<ErrHandler>>,
}

impl Engine {
    pub(crate) fn new(adapter: Adapter<LapiBody>, mode: Mode, escape: Duration) -> Arc<Self> {
        let n = adapter.nodes();
        let cmpl_q = TimedQueue::with_escape(escape).with_tracer(adapter.tracer().clone());
        Arc::new(Engine {
            adapter,
            space: Mutex::new(AddressSpace::new()),
            counters: Mutex::new(Vec::new()),
            handlers: RwLock::new(BTreeMap::new()),
            reasm: Mutex::new(BTreeMap::new()),
            outstanding: Mutex::new(vec![0; n]),
            outstanding_cv: SimCondvar::new(),
            rmw_slots: Mutex::new(BTreeMap::new()),
            dead_peers: Mutex::new(vec![false; n]),
            pending_cmpl: Mutex::new(vec![Vec::new(); n]),
            next_msg: AtomicU64::new(1),
            next_ticket: AtomicU64::new(1),
            mode: Mutex::new(mode),
            mode_cv: SimCondvar::new(),
            cmpl_q,
            stats: LapiStats::default(),
            escape,
            terminated: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            err_hndlr: RwLock::new(None),
        })
    }

    // ------------------------------------------------------------- basics

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

    pub(crate) fn adapter(&self) -> &Adapter<LapiBody> {
        &self.adapter
    }

    pub(crate) fn is_terminated(&self) -> bool {
        // ordering: Acquire pairs with the Release store in `terminate` so
        // observers of the flag also see the closed queues.
        self.terminated.load(Ordering::Acquire)
    }

    pub(crate) fn is_crashed(&self) -> bool {
        // ordering: Acquire pairs with the Release store in `crash`.
        self.crashed.load(Ordering::Acquire)
    }

    /// Latch the crash-stop flag; the caller follows with [`Self::terminate`]
    /// so the service loops observe both and stop without draining.
    pub(crate) fn crash(&self) {
        // ordering: Release — the loops' Acquire load of the flag must see
        // every write that happened before the crash was declared.
        self.crashed.store(true, Ordering::Release);
    }

    pub(crate) fn check_live(&self) -> LapiResult {
        if self.is_terminated() {
            Err(LapiError::Terminated)
        } else {
            Ok(())
        }
    }

    pub(crate) fn check_target(&self, target: NodeId) -> LapiResult {
        if target >= self.tasks() {
            Err(LapiError::BadTarget {
                target,
                ntasks: self.tasks(),
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn mode(&self) -> Mode {
        *self.mode.lock()
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

    /// Diagnostic snapshot used when a wait hits its real-time escape hatch:
    /// engine state (mode, per-target outstanding ops, reassembly and queue
    /// depths) plus the tail of the merged event timeline when tracing is on.
    pub(crate) fn deadlock_report(&self, what: &str) -> String {
        let outstanding: Vec<i64> = self.outstanding.lock().clone();
        let reasm: Vec<(NodeId, MsgId)> = self.reasm.lock().keys().copied().collect();
        format!(
            "node {} ({:?} mode): {what}\n\
             outstanding ops per target: {outstanding:?}\n\
             incomplete reassemblies (src, msg): {reasm:?}\n\
             rx-queue depth: {} completion-queue depth: {} clock: {}ns\n{}{}",
            self.id(),
            self.mode(),
            self.adapter.rx().len(),
            self.cmpl_q.len(),
            self.clock().now().as_ns(),
            self.adapter.flows_report(),
            self.adapter.tracer().tail_report(trace::REPORT_TAIL)
        )
    }

    pub(crate) fn set_mode(&self, mode: Mode) {
        *self.mode.lock() = mode;
        self.mode_cv.notify_all();
        // A dispatcher parked on the ring must leave it for mode_cv.
        self.adapter.rx().wake_receiver();
    }

    /// Wake this node's application if a polling wait has it parked on
    /// the receive ring (see [`Self::poll_step`]): the waker for a state
    /// change made on another thread. Interrupt-mode waits sleep on the
    /// condvar of what they watch instead. The change is made before the
    /// mode is read, so a later flip to polling already finds it.
    fn wake_poller(&self) {
        if self.mode() == Mode::Polling {
            self.adapter.rx().wake_receiver();
        }
    }

    // ----------------------------------------------------- delivery errors

    /// Register the job's communication error handler (`LAPI_Init`'s
    /// `err_hndlr`). Replaces any previous handler.
    pub(crate) fn register_err_hndlr(&self, f: ErrHandler) {
        *self.err_hndlr.write() = Some(f);
    }

    /// Map an adapter-level delivery timeout to the program-visible error.
    fn delivery_error(&self, e: DeliveryTimeout) -> LapiError {
        self.stats.delivery_timeouts.incr();
        LapiError::DeliveryTimeout {
            target: e.dst,
            seq: e.seq,
            acked: e.cum_acked,
            retries: e.retries,
            fast_failed: e.fast_failed,
            detail: e.to_string(),
        }
    }

    /// The structured error returned for an operation refused because its
    /// target was previously declared dead (no wire activity involved).
    fn peer_dead_error(&self, target: NodeId) -> LapiError {
        LapiError::DeliveryTimeout {
            target,
            seq: 0,
            acked: 0,
            retries: 0,
            fast_failed: true,
            detail: format!(
                "node {}: operation against task {target} refused: peer previously \
                 declared dead",
                self.id()
            ),
        }
    }

    /// Has `target` been declared dead by this node?
    pub(crate) fn is_peer_dead(&self, target: NodeId) -> bool {
        self.dead_peers.lock()[target]
    }

    /// Tasks this node has declared dead, ascending.
    pub(crate) fn dead_peer_list(&self) -> Vec<NodeId> {
        self.dead_peers
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect()
    }

    /// Latch `target` as dead and unwind everything outstanding against it:
    ///
    /// * the adapter's [`spswitch::PeerHealth`] table is marked so later
    ///   sends fast-fail without wire activity;
    /// * fence accounting toward the peer is retired wholesale (fence and
    ///   gfence waiters wake; subsequent fences to the peer fail fast);
    /// * pending completion counters are credited so `Waitcntr` sleepers
    ///   wake instead of deadlocking;
    /// * rmw tickets awaiting a reply from the peer are poisoned with a
    ///   structured cancellation error.
    ///
    /// Returns `true` when this call performed the latch transition.
    /// Exactly one caller per peer ever sees `true`, and only that caller
    /// fires the registered `err_hndlr` — with one aggregated diagnostic,
    /// not one callback per killed flow.
    pub(crate) fn declare_peer_dead(&self, target: NodeId, cause: &LapiError) -> bool {
        {
            let mut dead = self.dead_peers.lock();
            if dead[target] {
                return false;
            }
            dead[target] = true;
        }
        self.stats.peer_deaths.incr();
        self.adapter.peer_health().mark_dead(target);
        let now = self.clock().now();
        self.adapter.tracer().emit(
            self.id(),
            now,
            trace::EventKind::PeerDead,
            "peer",
            target as u64,
            0,
        );

        // Retire the fence accounting: ops to a dead peer will never
        // complete, so fence/gfence waiters must wake now.
        let retired = {
            let mut o = self.outstanding.lock();
            let r = o[target].max(0);
            o[target] = 0;
            r
        };
        self.outstanding_cv.notify_all();

        // Credit counters an inbound packet from the peer would have
        // bumped (Done cmpl_cntr, get-reply org_cntr).
        let credited: Vec<CounterId> = std::mem::take(&mut self.pending_cmpl.lock()[target]);
        for &id in &credited {
            self.adapter.tracer().emit(
                self.id(),
                now,
                trace::EventKind::OpCancelled,
                "cntr",
                id as u64,
                0,
            );
            self.stats.ops_cancelled.incr();
            self.bump_counter(id, now);
        }

        // Poison rmw tickets stranded by the death.
        let stranded: Vec<(u64, Arc<RmwSlot>)> = {
            let mut slots = self.rmw_slots.lock();
            let tickets: Vec<u64> = slots
                .iter()
                .filter(|(_, (node, _))| *node == target)
                .map(|(t, _)| *t)
                .collect();
            tickets
                .into_iter()
                .map(|t| {
                    let (_, slot) = slots.remove(&t).or_diag("ticket listed but missing");
                    (t, slot)
                })
                .collect()
        };
        for (ticket, slot) in &stranded {
            self.adapter.tracer().emit(
                self.id(),
                now,
                trace::EventKind::OpCancelled,
                "rmw",
                *ticket,
                0,
            );
            self.stats.ops_cancelled.incr();
            *slot.st.lock() = Some(Err(LapiError::DeliveryTimeout {
                target,
                seq: *ticket,
                acked: 0,
                retries: 0,
                fast_failed: true,
                detail: format!("rmw ticket {ticket} cancelled: peer {target} declared dead"),
            }));
            slot.cv.notify_all();
        }

        // One aggregated err_hndlr invocation for the whole peer death.
        let err = LapiError::DeliveryTimeout {
            target,
            seq: match cause {
                LapiError::DeliveryTimeout { seq, .. } => *seq,
                _ => 0,
            },
            acked: match cause {
                LapiError::DeliveryTimeout { acked, .. } => *acked,
                _ => 0,
            },
            retries: match cause {
                LapiError::DeliveryTimeout { retries, .. } => *retries,
                _ => 0,
            },
            fast_failed: false,
            detail: format!(
                "node {}: peer {target} declared dead — {retired} outstanding ops \
                 retired, {} pending completions credited, {} rmw tickets poisoned; \
                 cause: {cause}\n{}",
                self.id(),
                credited.len(),
                stranded.len(),
                self.adapter.flows_report(),
            ),
        };
        // A polling waiter on this node watches what was just unwound.
        self.wake_poller();
        if let Some(h) = self.err_hndlr.read().clone() {
            h(&err);
        }
        true
    }

    /// Synchronous send on an issue path: a delivery timeout unwinds the
    /// outstanding-op tracking (the op will never complete) and surfaces as
    /// a `LapiError` through the user's call. `pending` is the completion
    /// note the caller registered for this op; it is retracted *before* the
    /// peer-death declaration credits the remaining notes, so the failing
    /// op's own counter never ticks (the caller gets the error directly).
    fn wire_send(
        &self,
        target: NodeId,
        wire_bytes: usize,
        body: LapiBody,
        pending: Option<CounterId>,
    ) -> LapiResult<SendReceipt> {
        match self
            .adapter
            .try_send_at(self.clock().now(), target, wire_bytes, body)
        {
            Ok(r) => Ok(r),
            Err(e) => {
                let err = self.delivery_error(e);
                self.retract_pending(target, pending);
                self.outstanding_decr(target);
                self.declare_peer_dead(target, &err);
                Err(err)
            }
        }
    }

    /// Send from dispatcher/completion context (replies, acknowledgements):
    /// there is no user call to return an error through, so a delivery
    /// timeout is routed to the registered `err_hndlr` via the peer-death
    /// latch; without one it is a fatal condition, as in the real library.
    /// Returns `None` when the packet could not be delivered.
    fn wire_send_async(
        &self,
        target: NodeId,
        wire_bytes: usize,
        body: LapiBody,
    ) -> Option<SendReceipt> {
        match self
            .adapter
            .try_send_at(self.clock().now(), target, wire_bytes, body)
        {
            Ok(r) => Some(r),
            Err(e) => {
                let err = self.delivery_error(e);
                if self.err_hndlr.read().is_none() {
                    panic!(
                        "{}",
                        self.deadlock_report(&format!(
                            "unrecoverable communication failure with no err_hndlr \
                             registered: {err}"
                        ))
                    );
                }
                self.declare_peer_dead(target, &err);
                None
            }
        }
    }

    /// Batched counterpart of [`Self::wire_send`]: inject every fragment of
    /// one message with one batched link reservation
    /// ([`Adapter::try_send_batch_at`]), fragment `i` timed at
    /// `now + i * step`, then charge the clock the same `(k-1) * step` the
    /// fragment-at-a-time loop would have. Returns the last receipt.
    /// `pending` follows the same retract-before-declare rule as
    /// [`Self::wire_send`].
    fn wire_send_batch(
        &self,
        target: NodeId,
        step: spsim::VDur,
        frags: Vec<(usize, LapiBody)>,
        pending: Option<CounterId>,
    ) -> LapiResult<Option<SendReceipt>> {
        let k = frags.len();
        if k == 0 {
            return Ok(None);
        }
        match self
            .adapter
            .try_send_batch_at(self.clock().now(), step, target, frags)
        {
            Ok(receipts) => {
                if k > 1 {
                    self.clock().advance(step * (k as u64 - 1));
                }
                Ok(receipts.into_iter().last())
            }
            Err(e) => {
                let err = self.delivery_error(e);
                self.retract_pending(target, pending);
                self.outstanding_decr(target);
                self.declare_peer_dead(target, &err);
                Err(err)
            }
        }
    }

    /// Batched counterpart of [`Self::wire_send_async`]: same injection and
    /// clock algebra as [`Self::wire_send_batch`], but delivery timeouts are
    /// routed to the registered `err_hndlr` through the peer-death latch
    /// (there is no user call to return through). Returns `None` when the
    /// batch could not be delivered.
    fn wire_send_batch_async(
        &self,
        target: NodeId,
        step: spsim::VDur,
        frags: Vec<(usize, LapiBody)>,
    ) -> Option<SendReceipt> {
        let k = frags.len();
        if k == 0 {
            return None;
        }
        match self
            .adapter
            .try_send_batch_at(self.clock().now(), step, target, frags)
        {
            Ok(receipts) => {
                if k > 1 {
                    self.clock().advance(step * (k as u64 - 1));
                }
                receipts.into_iter().last()
            }
            Err(e) => {
                let err = self.delivery_error(e);
                if self.err_hndlr.read().is_none() {
                    panic!(
                        "{}",
                        self.deadlock_report(&format!(
                            "unrecoverable communication failure with no err_hndlr \
                             registered: {err}"
                        ))
                    );
                }
                self.declare_peer_dead(target, &err);
                None
            }
        }
    }

    // ------------------------------------------------------------- memory

    pub(crate) fn alloc(&self, len: usize) -> Addr {
        self.space.lock().alloc(len)
    }

    pub(crate) fn mem_read(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.space.lock().read_into(addr, &mut out);
        out
    }

    pub(crate) fn mem_write(&self, addr: Addr, data: &[u8]) {
        self.space.lock().write(addr, data)
    }

    pub(crate) fn with_space<R>(&self, f: impl FnOnce(&AddressSpace) -> R) -> R {
        f(&self.space.lock())
    }

    pub(crate) fn with_space_mut<R>(&self, f: impl FnOnce(&mut AddressSpace) -> R) -> R {
        f(&mut self.space.lock())
    }

    // ----------------------------------------------------------- counters

    pub(crate) fn new_counter(&self) -> Counter {
        let mut tab = self.counters.lock();
        let c = Counter::new(tab.len() as CounterId);
        tab.push(c.clone());
        c
    }

    fn counter_by_id(&self, id: CounterId) -> Counter {
        self.counters
            .lock()
            .get(id as usize)
            .unwrap_or_else(|| spsim::sim_panic!("node {}: no counter with id {id}", self.id()))
            .clone()
    }

    fn bump_counter(&self, id: CounterId, at: VTime) {
        self.adapter.tracer().emit(
            self.id(),
            at,
            trace::EventKind::Counter,
            "cntr",
            id as u64,
            0,
        );
        self.counter_by_id(id).incr_at(at);
    }

    pub(crate) fn register_handler(&self, id: u32, f: HeaderHandlerFn) {
        self.handlers.write().insert(id, f);
    }

    // -------------------------------------------------------- issue paths

    fn alloc_msg_id(&self) -> MsgId {
        // ordering: pure id allocation — only uniqueness matters, no other
        // memory is published under this counter.
        self.next_msg.fetch_add(1, Ordering::Relaxed)
    }

    fn track_outstanding(&self, target: NodeId) {
        self.outstanding.lock()[target] += 1;
    }

    fn outstanding_decr(&self, target: NodeId) {
        let mut o = self.outstanding.lock();
        if o[target] <= 0 {
            // A stale completion for an op already retired wholesale by
            // peer-death propagation (declare_peer_dead zeroed the slot
            // while this packet was in flight).
            drop(o);
            debug_assert!(
                self.is_peer_dead(target),
                "outstanding count went negative for a live peer"
            );
        } else {
            o[target] -= 1;
            drop(o);
        }
        self.outstanding_cv.notify_all();
    }

    /// Record that a future inbound packet from `target` would bump local
    /// counter `id` (see the `pending_cmpl` field docs).
    fn note_pending(&self, target: NodeId, id: CounterId) {
        self.pending_cmpl.lock()[target].push(id);
    }

    /// Remove one pending note for (`target`, `id`). Returns `false` when
    /// no note remains — the peer was declared dead and the unwinding
    /// already credited the counter, so the caller must not bump it again.
    fn unnote_pending(&self, target: NodeId, id: CounterId) -> bool {
        let mut p = self.pending_cmpl.lock();
        match p[target].iter().position(|&x| x == id) {
            Some(pos) => {
                p[target].remove(pos);
                true
            }
            None => false,
        }
    }

    /// Retract the pending-completion note of an op that failed on its
    /// issue path: the caller surfaces the error synchronously, so no
    /// waiter-wakeup crediting is needed — and the counter must not tick,
    /// because no data moved. If peer-death unwinding raced us and already
    /// credited the note there is nothing to retract; that extra credit is
    /// the asynchronous-death wakeup doing its job.
    fn retract_pending(&self, target: NodeId, id: Option<CounterId>) {
        if let Some(id) = id {
            let _ = self.unnote_pending(target, id);
        }
    }

    pub(crate) fn outstanding_to(&self, target: NodeId) -> i64 {
        self.outstanding.lock()[target]
    }

    pub(crate) fn rmw_pending(&self) -> usize {
        self.rmw_slots.lock().len()
    }

    /// `LAPI_Put`: fragment `data` and inject it toward `target`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_put(
        &self,
        issue_cost: spsim::VDur,
        target: NodeId,
        tgt_addr: Addr,
        data: &[u8],
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
        cmpl_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.check_live()?;
        self.check_target(target)?;
        self.stats.puts.incr();
        self.track_outstanding(target);
        let cfg = self.config();
        let cap = cfg.payload_per_packet(cfg.lapi_header_bytes);
        let msg_id = self.alloc_msg_id();
        let kind = DataKind::Put {
            tgt_addr,
            tgt_cntr: tgt_cntr.map(|r| r.0),
            cmpl_cntr: cmpl_cntr.map(Counter::id),
        };
        self.clock().advance(issue_cost);
        self.tr(trace::EventKind::Issue, "put", msg_id, data.len());
        // One allocation for the whole message; every fragment is a window.
        let payload = Bytes::from(data);
        let mut frags = Vec::with_capacity(data.len() / cap + 1);
        let mut offset = 0usize;
        loop {
            let end = (offset + cap).min(data.len());
            frags.push((
                cfg.lapi_header_bytes + (end - offset),
                LapiBody::Data {
                    msg_id,
                    offset,
                    total_len: data.len(),
                    data: payload.slice(offset..end),
                    kind: kind.clone(),
                },
            ));
            offset = end;
            if offset >= data.len() {
                break;
            }
        }
        // Note the completion counter before the send so a Done racing in
        // on the dispatcher thread always finds it; the send retracts the
        // note on failure.
        if let Some(c) = cmpl_cntr {
            self.note_pending(target, c.id());
        }
        let last = self.wire_send_batch(
            target,
            cfg.lapi_pkt_issue,
            frags,
            cmpl_cntr.map(Counter::id),
        )?;
        if let (Some(c), Some(r)) = (org_cntr, last) {
            // Origin buffer reusable once the last fragment is on the wire.
            c.incr_at(r.injected_at);
            self.adapter.tracer().emit(
                self.id(),
                r.injected_at,
                trace::EventKind::Counter,
                "org",
                msg_id,
                0,
            );
        }
        Ok(())
    }

    /// `LAPI_Get`: ship the request; the target replies with the data.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_get(
        &self,
        target: NodeId,
        tgt_addr: Addr,
        len: usize,
        org_addr: Addr,
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.check_live()?;
        self.check_target(target)?;
        self.stats.gets.incr();
        self.track_outstanding(target);
        let cfg = self.config();
        self.clock().advance(cfg.lapi_get_issue);
        let get_msg = self.alloc_msg_id();
        self.tr(trace::EventKind::Issue, "get", get_msg, len);
        let body = LapiBody::GetReq {
            msg_id: get_msg,
            tgt_addr,
            len,
            org_addr,
            org_cntr: org_cntr.map(Counter::id),
            tgt_cntr: tgt_cntr.map(|r| r.0),
        };
        // The get completes locally when the reply lands, bumping org_cntr
        // — note it so peer death can credit the waiter.
        if let Some(c) = org_cntr {
            self.note_pending(target, c.id());
        }
        self.wire_send(
            target,
            cfg.lapi_header_bytes,
            body,
            org_cntr.map(Counter::id),
        )?;
        Ok(())
    }

    /// `LAPI_Amsend`: user header + optional data to a registered handler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_am(
        &self,
        issue_cost: spsim::VDur,
        target: NodeId,
        handler: u32,
        uhdr: &[u8],
        udata: &[u8],
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
        cmpl_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.check_live()?;
        self.check_target(target)?;
        let cfg = self.config();
        if uhdr.len() > cfg.lapi_max_uhdr {
            return Err(LapiError::UhdrTooLarge {
                len: uhdr.len(),
                max: cfg.lapi_max_uhdr,
            });
        }
        self.stats.amsends.incr();
        self.track_outstanding(target);
        let msg_id = self.alloc_msg_id();
        self.clock().advance(issue_cost);
        self.tr(trace::EventKind::Issue, "amsend", msg_id, udata.len());

        // First packet: uhdr plus whatever data fits after it.
        let payload = Bytes::from(udata);
        let head_cap = cfg
            .packet_size
            .saturating_sub(cfg.lapi_header_bytes + uhdr.len());
        let head_len = udata.len().min(head_cap);
        let cap = cfg.payload_per_packet(cfg.lapi_header_bytes);
        let mut frags = vec![(
            cfg.lapi_header_bytes + uhdr.len() + head_len,
            LapiBody::AmHeader {
                msg_id,
                handler,
                uhdr: uhdr.to_vec(),
                total_len: udata.len(),
                chunk: payload.slice(0..head_len),
                tgt_cntr: tgt_cntr.map(|r| r.0),
                cmpl_cntr: cmpl_cntr.map(Counter::id),
            },
        )];
        // Remaining data as plain AM fragments.
        let mut offset = head_len;
        while offset < udata.len() {
            let end = (offset + cap).min(udata.len());
            frags.push((
                cfg.lapi_header_bytes + (end - offset),
                LapiBody::Data {
                    msg_id,
                    offset,
                    total_len: udata.len(),
                    data: payload.slice(offset..end),
                    kind: DataKind::AmData,
                },
            ));
            offset = end;
        }
        if let Some(c) = cmpl_cntr {
            self.note_pending(target, c.id());
        }
        let last = self
            .wire_send_batch(
                target,
                cfg.lapi_pkt_issue,
                frags,
                cmpl_cntr.map(Counter::id),
            )?
            .or_diag("batch contained at least the header packet");
        if let Some(c) = org_cntr {
            c.incr_at(last.injected_at);
            self.adapter.tracer().emit(
                self.id(),
                last.injected_at,
                trace::EventKind::Counter,
                "org",
                msg_id,
                0,
            );
        }
        Ok(())
    }

    /// `LAPI_Putv` (§6 extension): scatter contiguous `data` across the
    /// target's vector table in a single message — no per-segment message
    /// overhead and no packing copies.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue_putv(
        &self,
        issue_cost: spsim::VDur,
        target: NodeId,
        vecs: &[IoVec],
        data: &[u8],
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
        cmpl_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.check_live()?;
        self.check_target(target)?;
        let cfg = self.config();
        let desc_bytes = vecs.len() * IoVec::DESC_BYTES;
        if desc_bytes > cfg.payload_per_packet(cfg.lapi_header_bytes) {
            return Err(LapiError::TooManyVecs {
                nvecs: vecs.len(),
                max: cfg.payload_per_packet(cfg.lapi_header_bytes) / IoVec::DESC_BYTES,
            });
        }
        debug_assert_eq!(IoVec::total(vecs), data.len());
        self.stats.puts.incr();
        self.track_outstanding(target);
        let msg_id = self.alloc_msg_id();
        self.clock()
            .advance(issue_cost + cfg.lapi_vec_desc * vecs.len() as u64);
        self.tr(trace::EventKind::Issue, "putv", msg_id, data.len());

        // Header packet: the vector table plus whatever data still fits.
        let payload = Bytes::from(data);
        let head_cap = cfg
            .packet_size
            .saturating_sub(cfg.lapi_header_bytes + desc_bytes);
        let head_len = data.len().min(head_cap);
        let cap = cfg.payload_per_packet(cfg.lapi_header_bytes);
        let mut frags = vec![(
            cfg.lapi_header_bytes + desc_bytes + head_len,
            LapiBody::PutVHeader {
                msg_id,
                vecs: vecs.to_vec(),
                total_len: data.len(),
                chunk: payload.slice(0..head_len),
                tgt_cntr: tgt_cntr.map(|r| r.0),
                cmpl_cntr: cmpl_cntr.map(Counter::id),
            },
        )];
        let mut offset = head_len;
        while offset < data.len() {
            let end = (offset + cap).min(data.len());
            frags.push((
                cfg.lapi_header_bytes + (end - offset),
                LapiBody::Data {
                    msg_id,
                    offset,
                    total_len: data.len(),
                    data: payload.slice(offset..end),
                    kind: DataKind::VecData,
                },
            ));
            offset = end;
        }
        if let Some(c) = cmpl_cntr {
            self.note_pending(target, c.id());
        }
        let last = self
            .wire_send_batch(
                target,
                cfg.lapi_pkt_issue,
                frags,
                cmpl_cntr.map(Counter::id),
            )?
            .or_diag("batch contained at least the header packet");
        if let Some(c) = org_cntr {
            c.incr_at(last.injected_at);
        }
        Ok(())
    }

    /// `LAPI_Getv` (§6 extension): gather the target's vector table into a
    /// contiguous local buffer.
    pub(crate) fn issue_getv(
        &self,
        target: NodeId,
        vecs: &[IoVec],
        org_addr: Addr,
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.check_live()?;
        self.check_target(target)?;
        let cfg = self.config();
        let desc_bytes = vecs.len() * IoVec::DESC_BYTES;
        if desc_bytes > cfg.payload_per_packet(cfg.lapi_header_bytes) {
            return Err(LapiError::TooManyVecs {
                nvecs: vecs.len(),
                max: cfg.payload_per_packet(cfg.lapi_header_bytes) / IoVec::DESC_BYTES,
            });
        }
        self.stats.gets.incr();
        self.track_outstanding(target);
        self.clock()
            .advance(cfg.lapi_get_issue + cfg.lapi_vec_desc * vecs.len() as u64);
        let getv_msg = self.alloc_msg_id();
        self.tr(
            trace::EventKind::Issue,
            "getv",
            getv_msg,
            IoVec::total(vecs),
        );
        if let Some(c) = org_cntr {
            self.note_pending(target, c.id());
        }
        self.wire_send(
            target,
            cfg.lapi_header_bytes + desc_bytes,
            LapiBody::GetVReq {
                msg_id: getv_msg,
                vecs: vecs.to_vec(),
                org_addr,
                org_cntr: org_cntr.map(Counter::id),
                tgt_cntr: tgt_cntr.map(|r| r.0),
            },
            org_cntr.map(Counter::id),
        )?;
        Ok(())
    }

    /// `LAPI_Rmw`: atomic read-modify-write on a u64 cell at the target.
    pub(crate) fn issue_rmw(
        self: &Arc<Self>,
        target: NodeId,
        op: RmwOp,
        tgt_addr: Addr,
        in_val: u64,
        cmp_val: u64,
    ) -> LapiResult<RmwFuture> {
        self.check_live()?;
        self.check_target(target)?;
        self.stats.rmws.incr();
        self.track_outstanding(target);
        let cfg = self.config();
        // ordering: ticket allocation only needs uniqueness; the slot itself
        // is published through the rmw_slots mutex below.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(RmwSlot {
            st: Mutex::new(None),
            cv: SimCondvar::new(),
        });
        self.rmw_slots
            .lock()
            .insert(ticket, (target, Arc::clone(&slot)));
        // Rmw issue is lightweight compared to put/get: it ships only the
        // operands (still a full LAPI header on the wire).
        self.clock().advance(cfg.lapi_handler_issue);
        self.tr(trace::EventKind::Issue, "rmw", ticket, 8);
        let body = LapiBody::RmwReq {
            ticket,
            op,
            tgt_addr,
            in_val,
            cmp_val,
        };
        if let Err(e) =
            self.adapter
                .try_send_at(self.clock().now(), target, cfg.lapi_header_bytes, body)
        {
            let err = self.delivery_error(e);
            // The reply will never come; retire the ticket *before* the
            // death declaration so its poison sweep does not also cancel
            // this op — the caller gets the error synchronously.
            self.rmw_slots.lock().remove(&ticket);
            self.outstanding_decr(target);
            self.declare_peer_dead(target, &err);
            return Err(err);
        }
        Ok(RmwFuture {
            engine: Arc::clone(self),
            slot,
        })
    }

    fn send_done(&self, to: NodeId, fence_decr: bool, cmpl_cntr: Option<CounterId>) {
        self.stats.done_sent.incr();
        let cfg = self.config();
        self.wire_send_async(
            to,
            cfg.ack_bytes,
            LapiBody::Done {
                fence_decr,
                cmpl_cntr,
            },
        );
    }

    // --------------------------------------------------------- dispatcher

    /// Process one arrived packet (clock merged to arrival, dispatch cost
    /// charged here). Called from the dispatcher thread (interrupt mode) or
    /// from inside wait/probe calls (polling mode).
    pub(crate) fn process_packet(&self, s: Stamped<WirePacket<LapiBody>>) {
        let clock = self.clock();
        clock.merge(s.at);
        clock.advance(self.config().lapi_dispatch);
        self.stats.packets_dispatched.incr();
        let src = s.item.src;
        self.adapter.tracer().emit(
            self.id(),
            s.at,
            trace::EventKind::Deliver,
            "pkt",
            src as u64,
            s.item.wire_bytes,
        );
        match s.item.body {
            LapiBody::Data {
                msg_id,
                offset,
                total_len,
                data,
                kind,
            } => match kind {
                DataKind::Put {
                    tgt_addr,
                    tgt_cntr,
                    cmpl_cntr,
                } => {
                    self.with_space_mut(|sp| sp.write(tgt_addr.offset(offset), &data));
                    if self.data_complete(src, msg_id, total_len, data.len()) {
                        self.finish_put(src, tgt_cntr, cmpl_cntr);
                    }
                }
                DataKind::GetReply { org_addr, org_cntr } => {
                    self.with_space_mut(|sp| sp.write(org_addr.offset(offset), &data));
                    if self.data_complete(src, msg_id, total_len, data.len()) {
                        let cfg = self.config();
                        clock.advance(cfg.lapi_completion_msg + cfg.lapi_counter_update);
                        if let Some(id) = org_cntr {
                            // Gated on the pending note: if the peer was
                            // declared dead while the reply was in flight,
                            // the unwinding already credited the counter.
                            if self.unnote_pending(src, id) {
                                self.bump_counter(id, clock.now());
                            }
                        }
                        // The reply's arrival is the origin-side completion
                        // of the get: no extra ack needed for fencing.
                        self.outstanding_decr(src);
                    }
                }
                DataKind::AmData => self.am_data(src, msg_id, offset, total_len, data),
                DataKind::VecData => self.vec_data(src, msg_id, offset, total_len, data),
            },
            LapiBody::AmHeader {
                msg_id,
                handler,
                uhdr,
                total_len,
                chunk,
                tgt_cntr,
                cmpl_cntr,
            } => self.am_header(
                src, msg_id, handler, uhdr, total_len, chunk, tgt_cntr, cmpl_cntr,
            ),
            LapiBody::PutVHeader {
                msg_id,
                vecs,
                total_len,
                chunk,
                tgt_cntr,
                cmpl_cntr,
            } => self.putv_header(src, msg_id, vecs, total_len, chunk, tgt_cntr, cmpl_cntr),
            LapiBody::GetVReq {
                msg_id,
                vecs,
                org_addr,
                org_cntr,
                tgt_cntr,
            } => self.serve_getv(src, msg_id, vecs, org_addr, org_cntr, tgt_cntr),
            LapiBody::GetReq {
                msg_id,
                tgt_addr,
                len,
                org_addr,
                org_cntr,
                tgt_cntr,
            } => self.serve_get(src, msg_id, tgt_addr, len, org_addr, org_cntr, tgt_cntr),
            LapiBody::RmwReq {
                ticket,
                op,
                tgt_addr,
                in_val,
                cmp_val,
            } => {
                let cfg = self.config();
                clock.advance(cfg.lapi_counter_update);
                let prev = self
                    .with_space_mut(|sp| sp.rmw_u64(tgt_addr, |v| op.apply(v, in_val, cmp_val)));
                self.wire_send_async(
                    src,
                    cfg.lapi_header_bytes,
                    LapiBody::RmwReply { ticket, prev },
                );
            }
            LapiBody::RmwReply { ticket, prev } => {
                // An unknown ticket is a reply whose waiter was already
                // poisoned and retired by peer-death propagation (the
                // reply raced the declaration): drop it silently — the
                // waiter has woken with the cancellation error and the
                // fence accounting was retired wholesale.
                if let Some((_, slot)) = self.rmw_slots.lock().remove(&ticket) {
                    *slot.st.lock() = Some(Ok(prev));
                    slot.cv.notify_all();
                    self.outstanding_decr(src);
                }
            }
            LapiBody::Done {
                fence_decr,
                cmpl_cntr,
            } => {
                clock.advance(self.config().lapi_counter_update);
                if let Some(id) = cmpl_cntr {
                    // Gated on the pending note — see the GetReply path.
                    if self.unnote_pending(src, id) {
                        self.bump_counter(id, clock.now());
                    }
                }
                if fence_decr {
                    self.outstanding_decr(src);
                }
            }
        }
    }

    /// Returns true when the message is fully received. Single-packet
    /// messages bypass the reassembly table.
    fn data_complete(&self, src: NodeId, msg_id: MsgId, total: usize, got: usize) -> bool {
        if got >= total {
            return true;
        }
        let mut map = self.reasm.lock();
        match map
            .entry((src, msg_id))
            .or_insert(Reasm::Data { received: 0 })
        {
            Reasm::Data { received } => {
                *received += got;
                if *received >= total {
                    map.remove(&(src, msg_id));
                    true
                } else {
                    false
                }
            }
            // sim_panic (not deadlock_report): the reasm lock is held here.
            _ => spsim::sim_panic!("message {msg_id} from {src} mixes AM and data reassembly"),
        }
    }

    fn finish_put(&self, src: NodeId, tgt_cntr: Option<CounterId>, cmpl_cntr: Option<CounterId>) {
        let cfg = self.config();
        let clock = self.clock();
        clock.advance(cfg.lapi_completion_msg + cfg.lapi_counter_update);
        self.tr(trace::EventKind::Complete, "put", src as u64, 0);
        if let Some(id) = tgt_cntr {
            self.bump_counter(id, clock.now());
        }
        self.send_done(src, true, cmpl_cntr);
    }

    #[allow(clippy::too_many_arguments)]
    fn am_header(
        &self,
        src: NodeId,
        msg_id: MsgId,
        handler: u32,
        uhdr: Vec<u8>,
        total_len: usize,
        chunk: Bytes,
        tgt_cntr: Option<CounterId>,
        cmpl_cntr: Option<CounterId>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        clock.advance(cfg.lapi_hdr_handler);
        self.stats.hdr_handlers.incr();
        self.tr(trace::EventKind::HandlerEnter, "hdr", msg_id, total_len);
        let outcome = {
            let handlers = self.handlers.read();
            let h = handlers.get(&handler).unwrap_or_else(|| {
                // sim_panic (not deadlock_report): the handlers lock is held.
                spsim::sim_panic!(
                    "node {}: active message from {src} names unregistered handler {handler}",
                    self.id()
                )
            });
            h(
                &HandlerCtx { engine: self },
                AmInfo {
                    src,
                    uhdr: &uhdr,
                    data_len: total_len,
                },
            )
        };
        self.tr(trace::EventKind::HandlerExit, "hdr", msg_id, total_len);
        if total_len > 0 && outcome.buffer.is_none() {
            spsim::sim_panic!(
                "node {}: header handler {handler} returned no buffer for a \
                 {total_len}-byte message — LAPI header handlers cannot refuse data (§5.3.1)",
                self.id()
            );
        }

        // Deposit the first chunk and any early-arrived fragments.
        let mut received = chunk.len();
        if let Some(buf) = outcome.buffer {
            if !chunk.is_empty() {
                self.with_space_mut(|sp| sp.write(buf, &chunk));
            }
        }
        let stash = {
            let mut map = self.reasm.lock();
            match map.remove(&(src, msg_id)) {
                Some(Reasm::AmEarly { stash }) => stash,
                // sim_panic (not deadlock_report): the reasm lock is held here.
                Some(_) => spsim::sim_panic!("AM header collides with non-AM reassembly state"),
                None => Vec::new(),
            }
        };
        if let Some(buf) = outcome.buffer {
            for (off, frag) in &stash {
                received += frag.len();
                self.with_space_mut(|sp| sp.write(buf.offset(*off), frag));
            }
        }

        if received >= total_len {
            self.finish_am(src, tgt_cntr, cmpl_cntr, outcome.completion);
        } else {
            self.reasm.lock().insert(
                (src, msg_id),
                Reasm::Am {
                    buffer: outcome.buffer,
                    received,
                    completion: outcome.completion,
                    tgt_cntr,
                    cmpl_cntr,
                },
            );
        }
    }

    fn am_data(&self, src: NodeId, msg_id: MsgId, offset: usize, total: usize, data: Bytes) {
        let mut map = self.reasm.lock();
        match map
            .entry((src, msg_id))
            .or_insert(Reasm::AmEarly { stash: Vec::new() })
        {
            Reasm::Am {
                buffer, received, ..
            } => {
                let buf = buffer.or_diag("data-bearing AM has no buffer");
                *received += data.len();
                let done = *received >= total;
                // Write under the reasm lock is fine: space is a separate lock.
                self.with_space_mut(|sp| sp.write(buf.offset(offset), &data));
                if done {
                    let Some(Reasm::Am {
                        completion,
                        tgt_cntr,
                        cmpl_cntr,
                        ..
                    }) = map.remove(&(src, msg_id))
                    else {
                        unreachable!("entry just matched as Am");
                    };
                    drop(map);
                    self.finish_am(src, tgt_cntr, cmpl_cntr, completion);
                }
            }
            Reasm::AmEarly { stash } => {
                // Header not here yet (slower route): stash the fragment.
                self.stats.early_am_data.incr();
                stash.push((offset, data));
            }
            Reasm::Data { .. } | Reasm::VecPut { .. } => {
                // sim_panic (not deadlock_report): the reasm lock is held here.
                spsim::sim_panic!("AM fragment collides with other reassembly state")
            }
        }
    }

    fn finish_am(
        &self,
        src: NodeId,
        tgt_cntr: Option<CounterId>,
        cmpl_cntr: Option<CounterId>,
        completion: Option<CompletionFn>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        clock.advance(cfg.lapi_completion_msg);
        self.tr(trace::EventKind::Complete, "amsend", src as u64, 0);
        match completion {
            None => {
                clock.advance(cfg.lapi_counter_update);
                if let Some(id) = tgt_cntr {
                    self.bump_counter(id, clock.now());
                }
                // One ack carries both the fence decrement and cmpl_cntr.
                self.send_done(src, true, cmpl_cntr);
            }
            Some(f) => {
                // Data has landed: release the fence immediately (§5.3.2 —
                // fence does not wait for completion handlers)…
                self.send_done(src, true, None);
                // …and hand the handler to the completion thread, which
                // will bump tgt_cntr and send the cmpl_cntr ack afterwards.
                self.cmpl_q.push(
                    clock.now(),
                    CmplWork {
                        f: Some(f),
                        src,
                        tgt_cntr,
                        cmpl_cntr,
                    },
                );
            }
        }
    }

    /// Scatter `data` at stream offset `offset` across the vector table.
    fn scatter_into_vecs(&self, vecs: &[IoVec], offset: usize, data: &[u8]) {
        self.with_space_mut(|sp| {
            let mut pos = 0usize; // consumed bytes of `data`
            let mut stream = 0usize; // stream offset of current vec start
            for v in vecs {
                let v_end = stream + v.len;
                if offset + pos < v_end && offset + data.len() > stream {
                    let from = (offset + pos).max(stream);
                    let to = (offset + data.len()).min(v_end);
                    let inner = from - stream;
                    sp.write(v.addr.offset(inner), &data[pos..pos + (to - from)]);
                    pos += to - from;
                    if pos == data.len() {
                        break;
                    }
                }
                stream = v_end;
            }
            debug_assert_eq!(pos, data.len(), "fragment fell outside the vector table");
        });
    }

    /// First packet of a putv: record the vector table, deposit the inline
    /// chunk and any early-arrived fragments.
    #[allow(clippy::too_many_arguments)]
    fn putv_header(
        &self,
        src: NodeId,
        msg_id: MsgId,
        vecs: Vec<IoVec>,
        total_len: usize,
        chunk: Bytes,
        tgt_cntr: Option<CounterId>,
        cmpl_cntr: Option<CounterId>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        clock.advance(cfg.lapi_vec_desc * vecs.len() as u64);
        debug_assert_eq!(IoVec::total(&vecs), total_len);
        let mut received = chunk.len();
        if !chunk.is_empty() {
            self.scatter_into_vecs(&vecs, 0, &chunk);
        }
        let stash = {
            let mut map = self.reasm.lock();
            match map.remove(&(src, msg_id)) {
                Some(Reasm::AmEarly { stash }) => stash,
                // sim_panic (not deadlock_report): the reasm lock is held here.
                Some(_) => spsim::sim_panic!("putv header collides with other reassembly state"),
                None => Vec::new(),
            }
        };
        for (off, frag) in &stash {
            received += frag.len();
            self.scatter_into_vecs(&vecs, *off, frag);
        }
        if received >= total_len {
            self.finish_put(src, tgt_cntr, cmpl_cntr);
        } else {
            self.reasm.lock().insert(
                (src, msg_id),
                Reasm::VecPut {
                    vecs,
                    received,
                    tgt_cntr,
                    cmpl_cntr,
                },
            );
        }
    }

    /// A putv data fragment (scatter it, or stash until the table arrives).
    fn vec_data(&self, src: NodeId, msg_id: MsgId, offset: usize, total: usize, data: Bytes) {
        let mut map = self.reasm.lock();
        match map
            .entry((src, msg_id))
            .or_insert(Reasm::AmEarly { stash: Vec::new() })
        {
            Reasm::VecPut { vecs, received, .. } => {
                *received += data.len();
                let done = *received >= total;
                // Scatter under the reasm lock (space is a separate lock;
                // same order as the AM data path).
                self.scatter_into_vecs(vecs, offset, &data);
                if done {
                    let Some(Reasm::VecPut {
                        tgt_cntr,
                        cmpl_cntr,
                        ..
                    }) = map.remove(&(src, msg_id))
                    else {
                        unreachable!("entry just matched as VecPut");
                    };
                    drop(map);
                    self.finish_put(src, tgt_cntr, cmpl_cntr);
                }
            }
            Reasm::AmEarly { stash } => {
                self.stats.early_am_data.incr();
                stash.push((offset, data));
            }
            // sim_panic (not deadlock_report): the reasm lock is held here.
            _ => spsim::sim_panic!("putv fragment collides with other reassembly state"),
        }
    }

    /// Serve a getv: gather the vector table and stream it back into the
    /// origin's contiguous buffer (no intermediate packing copy — the DMA
    /// gather the §6 extension promises).
    fn serve_getv(
        &self,
        src: NodeId,
        msg_id: MsgId,
        vecs: Vec<IoVec>,
        org_addr: Addr,
        org_cntr: Option<CounterId>,
        tgt_cntr: Option<CounterId>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        clock.advance(cfg.lapi_handler_issue + cfg.lapi_vec_desc * vecs.len() as u64);
        let total = IoVec::total(&vecs);
        let mut data = vec![0; total];
        self.with_space(|sp| {
            let mut at = 0;
            for v in &vecs {
                sp.read_into(v.addr, &mut data[at..at + v.len]);
                at += v.len;
            }
        });
        let frags = self.reply_frags(cfg, msg_id, data, org_addr, org_cntr);
        // A dead reply flow yields None; the origin's own wait diagnoses it.
        if let (Some(id), Some(r)) = (
            tgt_cntr,
            self.wire_send_batch_async(src, cfg.lapi_pkt_issue, frags),
        ) {
            self.bump_counter(id, r.injected_at);
        }
    }

    /// Fragment a get/getv reply into `(wire_bytes, body)` pairs for one
    /// batched injection: one shared allocation, one window per packet.
    fn reply_frags(
        &self,
        cfg: &spsim::MachineConfig,
        msg_id: MsgId,
        data: Vec<u8>,
        org_addr: Addr,
        org_cntr: Option<CounterId>,
    ) -> Vec<(usize, LapiBody)> {
        let cap = cfg.payload_per_packet(cfg.lapi_header_bytes);
        let kind = DataKind::GetReply { org_addr, org_cntr };
        let payload = Bytes::from(data);
        let mut frags = Vec::with_capacity(payload.len() / cap + 1);
        let mut offset = 0usize;
        loop {
            let end = (offset + cap).min(payload.len());
            frags.push((
                cfg.lapi_header_bytes + (end - offset),
                LapiBody::Data {
                    msg_id,
                    offset,
                    total_len: payload.len(),
                    data: payload.slice(offset..end),
                    kind: kind.clone(),
                },
            ));
            offset = end;
            if offset >= payload.len() {
                break;
            }
        }
        frags
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_get(
        &self,
        src: NodeId,
        msg_id: MsgId,
        tgt_addr: Addr,
        len: usize,
        org_addr: Addr,
        org_cntr: Option<CounterId>,
        tgt_cntr: Option<CounterId>,
    ) {
        let cfg = self.config();
        let clock = self.clock();
        clock.advance(cfg.lapi_handler_issue);
        let data = self.mem_read(tgt_addr, len);
        let frags = self.reply_frags(cfg, msg_id, data, org_addr, org_cntr);
        // A dead reply flow yields None; the origin's own wait diagnoses it.
        if let (Some(id), Some(r)) = (
            tgt_cntr,
            self.wire_send_batch_async(src, cfg.lapi_pkt_issue, frags),
        ) {
            // Target-side completion of a get: data copied out (§2.3).
            self.bump_counter(id, r.injected_at);
        }
    }

    // ----------------------------------------------------------- progress

    /// Drive this node's progress until `done` yields a value: the one
    /// polling-mode wait behind `Waitcntr`, fences, rmw replies and
    /// `Gfence`. Panics with a diagnostic if `done` stays `None` for the
    /// escape.
    pub(crate) fn poll_until<R>(&self, mut done: impl FnMut() -> Option<R>) -> R {
        let deadline = Instant::now() + self.escape;
        // liveness: poll_step processes every arriving packet, which is
        // what changes the state `done` reads; a change made on another
        // thread (completion loop, peer-death unwinding, barrier release)
        // ends the ring park through wake_receiver; past the deadline
        // poll_step panics with a diagnostic.
        loop {
            if let Some(r) = done() {
                return r;
            }
            self.poll_step(deadline);
        }
    }

    /// One polling step: process the next packet, parking on the receive
    /// ring until one arrives or a waker fires. Panics past `deadline` —
    /// simulated deadlock.
    // liveness: the ring park ends on every packet the switch delivers to
    // this node, on wake_receiver (wake_poller, barrier wakers, set_mode)
    // and on close (terminate, crash-stop); `deadline` bounds it.
    fn poll_step(&self, deadline: Instant) {
        self.adapter.pump(self.clock().now());
        match self.adapter.rx().recv_until(Some(deadline)) {
            Ok(Some(s)) => self.process_packet(s),
            Ok(None) if Instant::now() >= deadline => panic!(
                "{}",
                self.deadlock_report(&format!(
                    "polling-mode LAPI made no progress for {:?} of real time — \
                     simulated deadlock (is the peer polling?)",
                    self.escape
                ))
            ),
            Ok(None) => {}
            Err(_) => spsim::sim_panic!("adapter receive queue closed while waiting for progress"),
        }
    }

    /// Drain everything already arrived (non-blocking). Returns how many
    /// packets were processed. This is `LAPI_Probe`.
    pub(crate) fn probe(&self) -> usize {
        let mut n = 0;
        // Lock-free emptiness hint gates the drain: polling loops call this
        // back-to-back, and the common case is an empty queue.
        if !self.adapter.rx().is_empty() {
            while let Ok(Some(s)) = self.adapter.rx().try_recv() {
                self.process_packet(s);
                n += 1;
            }
        }
        if n == 0 {
            self.clock().advance(self.config().lapi_poll);
        }
        // Flush any coalesced-ACK deadline that has come due on our
        // outgoing flows (free when the reliability protocol is disarmed).
        self.adapter.pump(self.clock().now());
        n
    }

    /// `LAPI_Waitcntr` with mode-appropriate progress.
    pub(crate) fn wait_counter(&self, c: &Counter, val: i64) {
        match self.mode() {
            Mode::Interrupt => {
                c.wait_consume(self.clock(), val, self.escape, self.adapter.tracer())
            }
            // This thread produces the counter updates it waits for, and
            // the completion loop and peer-death unwinding wake it.
            Mode::Polling => self.poll_until(|| c.try_consume(self.clock(), val).then_some(())),
        }
    }

    /// `LAPI_Fence(tgt)`: wait until no operation issued from this node to
    /// `tgt` is still in flight (data landed in remote buffers).
    pub(crate) fn fence(&self, target: NodeId) -> LapiResult {
        self.check_live()?;
        self.check_target(target)?;
        // Fail fast and deterministically against a dead peer: the fence
        // cannot be meaningfully satisfied (ops were retired, not
        // completed), so surface the degradation instead of returning a
        // vacuous success.
        if self.is_peer_dead(target) {
            return Err(self.peer_dead_error(target));
        }
        self.tr(trace::EventKind::FenceBegin, "fence", target as u64, 0);
        match self.mode() {
            Mode::Interrupt => {
                let deadline = Instant::now() + self.escape;
                let mut o = self.outstanding.lock();
                // liveness: outstanding_cv is notified by every
                // outstanding_decr and by declare_peer_dead (which zeroes
                // the slot); wait_until escapes past the deadline.
                while o[target] != 0 {
                    if self.outstanding_cv.wait_until(&mut o, deadline).timed_out() {
                        let stuck = o[target];
                        drop(o); // deadlock_report re-takes the lock
                        panic!(
                            "{}",
                            self.deadlock_report(&format!(
                                "LAPI_Fence to {target} stuck ({stuck} ops outstanding) — \
                                 simulated deadlock"
                            ))
                        );
                    }
                }
                drop(o);
                if self.is_peer_dead(target) {
                    return Err(self.peer_dead_error(target));
                }
            }
            Mode::Polling => {
                // Packets decrement the slot; declare_peer_dead zeroes it.
                let dead = self.poll_until(|| {
                    let dead = self.is_peer_dead(target);
                    (dead || self.outstanding.lock()[target] == 0).then_some(dead)
                });
                if dead {
                    return Err(self.peer_dead_error(target));
                }
            }
        }
        self.tr(trace::EventKind::FenceEnd, "fence", target as u64, 0);
        Ok(())
    }

    /// Fence against every task (the per-task half of `LAPI_Gfence`).
    pub(crate) fn fence_all(&self) -> LapiResult {
        for t in 0..self.tasks() {
            self.fence(t)?;
        }
        Ok(())
    }

    // ------------------------------------------------------ service loops

    /// Charge the hardware-interrupt cost for a packet that arrived while
    /// the node was (virtually) idle. A packet whose arrival time is
    /// behind the node clock landed while the CPU was still busy with
    /// earlier work, so it is picked up without a fresh interrupt — the
    /// paper's §5.3.1 observation that back-to-back messages avoid
    /// interrupts. Keying on *virtual* rather than real wake-ups keeps the
    /// cost model independent of host thread scheduling.
    fn charge_interrupt_if_idle(&self, at: VTime) {
        let clock = self.clock();
        if at >= clock.now() {
            clock.merge(at);
            clock.advance(self.config().interrupt_cost);
            self.stats.interrupts.incr();
            self.tr(trace::EventKind::Interrupt, "hw-int", 0, 0);
        }
    }

    /// Interrupt-mode dispatcher loop (runs on its own thread). Idle is
    /// legal here, so every park is untimed.
    pub(crate) fn dispatcher_loop(&self) {
        // liveness: set_mode and terminate notify mode_cv (terminate under
        // the mode lock this loop checks it in); the ring park ends on
        // every arriving packet, on set_mode's wake_receiver and on the
        // close in terminate.
        loop {
            // Park while the node is in polling mode: progress is then the
            // application's job.
            {
                let mut mode = self.mode.lock();
                if self.is_terminated() {
                    return;
                }
                if *mode == Mode::Polling {
                    SimCondvar::wait(&self.mode_cv, &mut mode);
                    continue;
                }
            }
            match self.adapter.rx().recv_until(None) {
                Err(_) => return, // queue closed: job over
                Ok(None) => continue,
                Ok(Some(s)) => {
                    // A crash-stop stops processing immediately: the packet
                    // in hand (and anything still queued, retired by the
                    // teardown's write_off_stranded) will never be
                    // delivered by this dead node.
                    if self.is_crashed() {
                        self.write_off_packet(&s);
                        return;
                    }
                    self.charge_interrupt_if_idle(s.at);
                    self.process_packet(s);
                    while let Ok(Some(next)) = self.adapter.rx().try_recv() {
                        if self.is_crashed() {
                            self.write_off_packet(&next);
                            return;
                        }
                        self.charge_interrupt_if_idle(next.at);
                        self.process_packet(next);
                    }
                    self.adapter.pump(self.clock().now());
                    // The mode may have flipped to polling mid-batch.
                    self.wake_poller();
                }
            }
        }
    }

    /// Completion-handler thread loop. Idle waiting is normal here (work
    /// only arrives when messages with completion handlers land), so the
    /// park is untimed.
    pub(crate) fn completion_loop(&self) {
        // liveness: finish_am's cmpl_q pushes end the park, and terminate()
        // closes cmpl_q, which surfaces as Err and ends the loop.
        loop {
            match self.cmpl_q.recv_until(None) {
                Err(_) => return,
                Ok(None) => continue,
                Ok(Some(Stamped { at, item: work })) => {
                    // A crashed node runs no more completion handlers
                    // (pending work is not ledger-tracked — just drop it).
                    if self.is_crashed() {
                        return;
                    }
                    let cfg = self.config();
                    let clock = self.clock();
                    clock.merge(at);
                    clock.advance(cfg.lapi_cmpl_handler);
                    self.stats.cmpl_handlers.incr();
                    self.tr(trace::EventKind::HandlerEnter, "cmpl", work.src as u64, 0);
                    if let Some(f) = work.f {
                        f(&HandlerCtx { engine: self });
                    }
                    self.tr(trace::EventKind::HandlerExit, "cmpl", work.src as u64, 0);
                    clock.advance(cfg.lapi_counter_update);
                    if let Some(id) = work.tgt_cntr {
                        self.bump_counter(id, clock.now());
                    }
                    if work.cmpl_cntr.is_some() {
                        self.send_done(work.src, false, work.cmpl_cntr);
                    }
                    // A polling waitcntr on tgt_cntr is parked on the ring.
                    self.wake_poller();
                }
            }
        }
    }

    /// Terminate: close queues so the service threads exit.
    pub(crate) fn terminate(&self) {
        {
            // Under the mode lock, which the dispatcher checks the flag
            // under, so the mode_cv notify below cannot slip in between.
            let _mode = self.mode.lock();
            self.terminated.store(true, Ordering::Release);
        }
        self.mode_cv.notify_all();
        self.adapter.shutdown();
        self.cmpl_q.close();
    }

    /// Write one received-but-never-processed packet off the trace ledger.
    fn write_off_packet(&self, s: &Stamped<WirePacket<LapiBody>>) {
        self.adapter.tracer().emit(
            self.id(),
            s.at,
            trace::EventKind::WriteOff,
            "stranded",
            s.item.src as u64,
            1,
        );
    }

    /// Retire every packet still sitting in the receive queue after a
    /// crash-stop: no dispatcher will ever process them, so each is written
    /// off at its arrival time to keep the trace ledger balanced
    /// (`injected == delivered + written_off`) — a crashed run must tear
    /// down without falsely tripping the quiescence checker.
    pub(crate) fn write_off_stranded(&self) {
        while let Ok(Some(s)) = self.adapter.rx().try_recv() {
            self.write_off_packet(&s);
        }
    }
}
