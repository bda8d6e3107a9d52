//! The per-task MPL context: `send`/`recv`, `rcvncall`, collectives.

use spsim::ServiceHandle;
use std::sync::Arc;

use spsim::{trace, NodeId, VClock, VDur, VTime};

use crate::engine::{MplEngine, MplStats, RcvncallFn, RecvState, SendState};
use crate::wire::Tag;
use crate::world::MplExchange;

/// Progress mode: `Polling` (default; progress inside blocking calls, like
/// the non-threaded MPL library) or `Interrupt` (a dispatcher thread makes
/// progress unbidden, required for `rcvncall`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MplMode {
    /// Progress only inside MPL calls.
    Polling,
    /// Dispatcher thread delivers and matches autonomously.
    Interrupt,
}

/// Completion status of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Source task.
    pub src: NodeId,
    /// Message tag.
    pub tag: Tag,
    /// Message length in bytes.
    pub len: usize,
}

/// Handle to a pending (nonblocking) send.
pub struct SendReq {
    pub(crate) engine: Arc<MplEngine>,
    pub(crate) state: Arc<SendState>,
}

impl SendReq {
    /// Has the send completed (origin buffer reusable)?
    pub fn test(&self) -> bool {
        self.state.merge_if_done(self.engine.clock())
    }

    /// Block until the send completes (drives progress in polling mode).
    pub fn wait(&self) {
        match self.engine.mode() {
            MplMode::Interrupt => self.state.wait_done(&self.engine),
            MplMode::Polling => self
                .engine
                .poll_until(|| self.state.merge_if_done(self.engine.clock()).then_some(())),
        }
    }
}

/// Handle to a pending (nonblocking) receive.
pub struct RecvReq {
    pub(crate) engine: Arc<MplEngine>,
    pub(crate) state: Arc<RecvState>,
}

impl RecvReq {
    /// Has the receive completed?
    pub fn test(&self) -> bool {
        self.state.is_done()
    }

    /// Block until the message is here; returns its data and status.
    pub fn wait(&self) -> (Vec<u8>, Status) {
        match self.engine.mode() {
            MplMode::Interrupt => self.state.wait_done(&self.engine),
            MplMode::Polling => self
                .engine
                .poll_until(|| self.state.take_if_done(self.engine.clock())),
        }
    }
}

/// Restricted context handed to `rcvncall` handlers: they run on the
/// dispatcher and may reply with nonblocking sends but must not block.
pub struct MplHandlerCtx<'a> {
    pub(crate) engine: &'a MplEngine,
}

impl MplHandlerCtx<'_> {
    /// This task's id.
    pub fn id(&self) -> NodeId {
        self.engine.id()
    }

    /// Number of tasks.
    pub fn tasks(&self) -> usize {
        self.engine.tasks()
    }

    /// Charge CPU work the handler models.
    pub fn charge(&self, cost: VDur) {
        self.engine.clock().advance(cost);
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.engine.clock().now()
    }

    /// The simulated machine's cost model.
    pub fn machine(&self) -> &spsim::MachineConfig {
        self.engine.config()
    }

    /// Nonblocking send from inside the handler (replies). The engine owns
    /// the data until injection completes, so the handler never blocks.
    pub fn isend(&self, dst: NodeId, tag: Tag, data: &[u8]) {
        let _ = self.engine.isend(dst, tag, data);
    }
}

/// One task's MPL context.
pub struct MplContext {
    pub(crate) engine: Arc<MplEngine>,
    pub(crate) dispatcher: Option<ServiceHandle>,
    pub(crate) barrier: spsim::VBarrier,
    pub(crate) exchange: Arc<MplExchange>,
}

impl MplContext {
    /// This task's id.
    pub fn id(&self) -> NodeId {
        self.engine.id()
    }

    /// Number of tasks in the job.
    pub fn tasks(&self) -> usize {
        self.engine.tasks()
    }

    /// The node's virtual clock.
    pub fn clock(&self) -> &VClock {
        self.engine.clock()
    }

    /// Record a trace event on this node's timeline at the current virtual
    /// time, through the world's tracer. Layers built on this context (GA)
    /// trace through here.
    pub fn trace(&self, kind: trace::EventKind, detail: &'static str, msg_id: u64, bytes: usize) {
        self.engine.tr(kind, detail, msg_id, bytes);
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.engine.clock().now()
    }

    /// The simulated machine's cost model.
    pub fn machine(&self) -> &spsim::MachineConfig {
        self.engine.config()
    }

    /// Charge local computation.
    pub fn compute(&self, cost: VDur) {
        self.engine.clock().advance(cost);
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &MplStats {
        &self.engine.stats
    }

    /// Wire statistics of this node's adapter.
    pub fn wire_stats(&self) -> &spswitch::AdapterStats {
        self.engine.adapter().stats()
    }

    /// Current progress mode.
    pub fn mode(&self) -> MplMode {
        self.engine.mode()
    }

    /// Switch progress mode.
    pub fn set_mode(&self, m: MplMode) {
        self.engine.set_mode(m)
    }

    /// Blocking send: returns when the origin buffer is reusable (eager:
    /// after the protocol copy; rendezvous: after the CTS'd injection).
    pub fn send(&self, dst: NodeId, tag: Tag, data: &[u8]) {
        let req = self.isend(dst, tag, data);
        req.wait();
    }

    /// Nonblocking send.
    pub fn isend(&self, dst: NodeId, tag: Tag, data: &[u8]) -> SendReq {
        SendReq {
            engine: Arc::clone(&self.engine),
            state: self.engine.isend(dst, tag, data),
        }
    }

    /// Blocking receive (wildcards: `None` matches any source / any tag).
    pub fn recv(&self, src: Option<NodeId>, tag: Option<Tag>) -> (Vec<u8>, Status) {
        self.irecv(src, tag).wait()
    }

    /// Nonblocking receive.
    pub fn irecv(&self, src: Option<NodeId>, tag: Option<Tag>) -> RecvReq {
        RecvReq {
            engine: Arc::clone(&self.engine),
            state: self.engine.post_recv(src, tag, None),
        }
    }

    /// `rcvncall`: register a persistent interrupt-driven receive handler
    /// for `tag`. Each invocation pays the handler-context cost the paper
    /// blames for MPL's 200 µs interrupt round trip. Requires (and
    /// switches to) interrupt mode.
    pub fn rcvncall<F>(&self, tag: Tag, f: F)
    where
        F: Fn(&MplHandlerCtx<'_>, Vec<u8>, Status) + Send + Sync + 'static,
    {
        self.engine.set_mode(MplMode::Interrupt);
        let h: RcvncallFn = Arc::new(f);
        let _ = self.engine.post_recv(None, Some(tag), Some(h));
    }

    /// Job-wide barrier (`MP_SYNC`): aligns virtual clocks; returns the
    /// aligned virtual time.
    pub fn barrier(&self) -> VTime {
        self.barrier.wait(self.engine.clock())
    }

    /// Collective exchange of one u64 per task (utility for tests and GA).
    pub fn exchange(&self, value: u64) -> Vec<u64> {
        self.exchange
            .exchange(self.engine.clock(), self.id(), value)
    }

    /// Job-wide sum of one f64 per task (`MP_REDUCE`-style helper).
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.exchange(value.to_bits())
            .into_iter()
            .map(f64::from_bits)
            .sum()
    }

    /// Shut down this task's context (after a final [`MplContext::barrier`]
    /// so no peer still has traffic toward this node in flight).
    pub fn term(&mut self) {
        if !self.engine.is_terminated() {
            self.engine.terminate();
        }
        if let Some(h) = self.dispatcher.take() {
            let r = h.join();
            if !std::thread::panicking() {
                r.expect("MPL dispatcher thread panicked");
            }
        }
    }
}

impl Drop for MplContext {
    fn drop(&mut self) {
        if !self.engine.is_terminated() {
            self.engine.terminate();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for MplContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MplContext")
            .field("task", &self.id())
            .field("tasks", &self.tasks())
            .finish()
    }
}
