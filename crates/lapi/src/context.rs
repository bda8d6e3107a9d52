//! The per-task LAPI context: the public API surface of Table 1.

use std::sync::Arc;

use spsim::{trace, NodeId, ServiceHandle, VClock, VDur, VTime};

use crate::addr::Addr;
use crate::counter::{Counter, RemoteCounter};
use crate::engine::{Engine, RmwFuture};
use crate::error::LapiError;
use crate::handlers::{AmInfo, HdrOutcome};
use crate::stats::LapiStats;
use crate::wire::RmwOp;
use crate::world::Exchange;
use crate::LapiResult;

pub use crate::engine::Mode;

/// `LAPI_Qenv` selectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Qenv {
    /// This task's id.
    TaskId,
    /// Number of tasks in the job.
    NumTasks,
    /// Maximum user-header size for `amsend` (the paper's ≈900 bytes of
    /// user data that ride in a single AM packet, §5.3.1).
    MaxUhdrSz,
    /// Maximum payload of a single switch packet under the LAPI header.
    MaxDataSz,
    /// 1 if interrupt mode is on, 0 if polling.
    InterruptSet,
}

/// `LAPI_Senv` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Senv {
    /// Switch between interrupt and polling modes.
    InterruptSet(bool),
}

/// One task's LAPI context (`LAPI_Init` creates it; see [`crate::LapiWorld`]).
pub struct LapiContext {
    pub(crate) engine: Arc<Engine>,
    pub(crate) dispatcher: Option<ServiceHandle>,
    pub(crate) completion: Vec<ServiceHandle>,
    pub(crate) barrier: spsim::VBarrier,
    pub(crate) exchange: Arc<Exchange>,
}

impl LapiContext {
    // ----------------------------------------------------------- identity

    /// This task's id (`LAPI_Qenv(TASK_ID)`).
    pub fn id(&self) -> NodeId {
        self.engine.id()
    }

    /// Number of tasks in the job (`LAPI_Qenv(NUM_TASKS)`).
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

    /// Charge local computation to the node (models application work).
    pub fn compute(&self, cost: VDur) {
        self.engine.clock().advance(cost);
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &LapiStats {
        &self.engine.stats
    }

    /// Wire-level statistics of this node's adapter.
    pub fn wire_stats(&self) -> &spswitch::AdapterStats {
        self.engine.adapter().stats()
    }

    /// Operations issued toward `target` whose data has not yet landed
    /// remotely (what `fence(target)` would wait on).
    pub fn pending(&self, target: NodeId) -> i64 {
        self.engine.outstanding_to(target)
    }

    /// `LAPI_Rmw` tickets still awaiting a reply. A ticket whose issue
    /// failed (e.g. [`crate::LapiError::DeliveryTimeout`]) is unwound
    /// before the error surfaces, so after every outstanding
    /// [`crate::RmwFuture`] has resolved this is 0.
    pub fn rmw_pending(&self) -> usize {
        self.engine.rmw_pending()
    }

    /// `LAPI_Qenv`.
    pub fn qenv(&self, q: Qenv) -> usize {
        let cfg = self.engine.config();
        match q {
            Qenv::TaskId => self.id(),
            Qenv::NumTasks => self.tasks(),
            Qenv::MaxUhdrSz => cfg.lapi_max_uhdr,
            Qenv::MaxDataSz => cfg.payload_per_packet(cfg.lapi_header_bytes),
            Qenv::InterruptSet => (self.engine.mode() == Mode::Interrupt) as usize,
        }
    }

    /// `LAPI_Senv`.
    pub fn senv(&self, s: Senv) {
        match s {
            Senv::InterruptSet(on) => {
                self.engine
                    .set_mode(if on { Mode::Interrupt } else { Mode::Polling })
            }
        }
    }

    // ------------------------------------------------------------- memory

    /// Allocate `len` bytes in this task's address space.
    pub fn alloc(&self, len: usize) -> Addr {
        self.engine.alloc(len)
    }

    /// Read local memory.
    pub fn mem_read(&self, addr: Addr, len: usize) -> Vec<u8> {
        self.engine.mem_read(addr, len)
    }

    /// Write local memory.
    pub fn mem_write(&self, addr: Addr, data: &[u8]) {
        self.engine.mem_write(addr, data)
    }

    /// Read f64s from local memory.
    pub fn mem_read_f64s(&self, addr: Addr, n: usize) -> Vec<f64> {
        self.engine.with_space(|s| s.read_f64s(addr, n))
    }

    /// Write f64s to local memory.
    pub fn mem_write_f64s(&self, addr: Addr, vals: &[f64]) {
        self.engine.with_space_mut(|s| s.write_f64s(addr, vals))
    }

    /// Read the u64 cell at `addr` (e.g. an Rmw target).
    pub fn mem_read_u64(&self, addr: Addr) -> u64 {
        self.engine.with_space(|s| s.read_u64(addr))
    }

    /// Write the u64 cell at `addr`.
    pub fn mem_write_u64(&self, addr: Addr, v: u64) {
        self.engine.with_space_mut(|s| s.write_u64(addr, v))
    }

    // ----------------------------------------------------------- counters

    /// Create a counter (ids are allocated in call order, so symmetric
    /// SPMD allocation yields matching ids on every task).
    pub fn new_counter(&self) -> Counter {
        self.engine.new_counter()
    }

    /// `LAPI_Setcntr`.
    pub fn setcntr(&self, c: &Counter, val: i64) {
        c.set(val)
    }

    /// `LAPI_Getcntr`.
    pub fn getcntr(&self, c: &Counter) -> i64 {
        c.get()
    }

    /// `LAPI_Waitcntr`: wait until `c` reaches `val`, then decrement by
    /// `val`. Drives progress in polling mode.
    pub fn waitcntr(&self, c: &Counter, val: i64) {
        self.engine.wait_counter(c, val)
    }

    /// `LAPI_Probe`: process any arrived packets (polling-mode progress).
    /// Returns the number of packets processed.
    pub fn probe(&self) -> usize {
        self.engine.probe()
    }

    // ----------------------------------------------------- communication

    /// Register an active-message header handler under `id`.
    pub fn register_handler<F>(&self, id: u32, f: F)
    where
        F: Fn(&crate::handlers::HandlerCtx<'_>, AmInfo<'_>) -> HdrOutcome + Send + Sync + 'static,
    {
        self.engine.register_handler(id, Box::new(f));
    }

    /// Register this task's communication error handler — the `err_hndlr`
    /// argument of the real `LAPI_Init`. It is invoked (from whichever
    /// thread detects the failure) for delivery timeouts that have no user
    /// call to return through, e.g. a dispatcher-side get reply hitting a
    /// dead link. Without a handler such failures are fatal, as in the
    /// real library. Replaces any previously registered handler.
    pub fn register_err_hndlr<F>(&self, f: F)
    where
        F: Fn(&LapiError) + Send + Sync + 'static,
    {
        self.engine.register_err_hndlr(Arc::new(f));
    }

    /// `LAPI_Put`: copy `data` into `target`'s space at `tgt_addr`.
    /// Non-blocking; the three counters signal the events of Figure 1.
    pub fn put(
        &self,
        target: NodeId,
        tgt_addr: Addr,
        data: &[u8],
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
        cmpl_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.engine.issue_put(
            self.engine.config().lapi_put_issue,
            target,
            tgt_addr,
            data,
            tgt_cntr,
            org_cntr,
            cmpl_cntr,
        )
    }

    /// Blocking put: issue and wait for origin-side completion at the
    /// target (`cmpl_cntr`), per the paper's note that blocking variants
    /// are the non-blocking call plus an immediate wait.
    pub fn put_wait(&self, target: NodeId, tgt_addr: Addr, data: &[u8]) -> LapiResult {
        let cmpl = self.new_counter();
        self.put(target, tgt_addr, data, None, None, Some(&cmpl))?;
        self.waitcntr(&cmpl, 1);
        Ok(())
    }

    /// `LAPI_Putv` (the §6 "non-contiguous interface" extension): scatter
    /// the contiguous `data` across `target`'s vector table in one
    /// message — removing both the multiple-request overhead and the
    /// packing-copy overhead of AM-based noncontiguous transfers.
    #[allow(clippy::too_many_arguments)]
    pub fn putv(
        &self,
        target: NodeId,
        vecs: &[crate::wire::IoVec],
        data: &[u8],
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
        cmpl_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.engine.issue_putv(
            self.engine.config().lapi_put_issue,
            target,
            vecs,
            data,
            tgt_cntr,
            org_cntr,
            cmpl_cntr,
        )
    }

    /// `LAPI_Getv` (§6 extension): gather `target`'s vector table into the
    /// contiguous local buffer at `org_addr`.
    pub fn getv(
        &self,
        target: NodeId,
        vecs: &[crate::wire::IoVec],
        org_addr: Addr,
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.engine
            .issue_getv(target, vecs, org_addr, tgt_cntr, org_cntr)
    }

    /// Maximum vector-table entries per `putv`/`getv` message.
    pub fn max_vecs(&self) -> usize {
        let cfg = self.engine.config();
        cfg.payload_per_packet(cfg.lapi_header_bytes) / crate::wire::IoVec::DESC_BYTES
    }

    /// `LAPI_Get`: copy `len` bytes from `target`'s `tgt_addr` into the
    /// local `org_addr`. Non-blocking; `org_cntr` fires when data lands.
    pub fn get(
        &self,
        target: NodeId,
        tgt_addr: Addr,
        len: usize,
        org_addr: Addr,
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.engine
            .issue_get(target, tgt_addr, len, org_addr, tgt_cntr, org_cntr)
    }

    /// Blocking get: issue, wait, and return the fetched bytes.
    pub fn get_wait(&self, target: NodeId, tgt_addr: Addr, len: usize) -> LapiResult<Vec<u8>> {
        let org_addr = self.alloc(len);
        let org = self.new_counter();
        self.get(target, tgt_addr, len, org_addr, None, Some(&org))?;
        self.waitcntr(&org, 1);
        Ok(self.mem_read(org_addr, len))
    }

    /// `LAPI_Amsend`: active message to `handler` at `target` with user
    /// header `uhdr` and data `udata`.
    #[allow(clippy::too_many_arguments)]
    pub fn amsend(
        &self,
        target: NodeId,
        handler: u32,
        uhdr: &[u8],
        udata: &[u8],
        tgt_cntr: Option<RemoteCounter>,
        org_cntr: Option<&Counter>,
        cmpl_cntr: Option<&Counter>,
    ) -> LapiResult {
        self.engine.issue_am(
            self.engine.config().lapi_am_issue,
            target,
            handler,
            uhdr,
            udata,
            tgt_cntr,
            org_cntr,
            cmpl_cntr,
        )
    }

    /// `LAPI_Rmw`: atomic op on the u64 cell at `tgt_addr` of `target`;
    /// the returned future resolves to the previous value. `cmp_val` is
    /// only read by [`RmwOp::CompareAndSwap`].
    pub fn rmw(
        &self,
        target: NodeId,
        op: RmwOp,
        tgt_addr: Addr,
        in_val: u64,
        cmp_val: u64,
    ) -> LapiResult<RmwFuture> {
        self.engine.issue_rmw(target, op, tgt_addr, in_val, cmp_val)
    }

    /// `LAPI_Fence`: wait until all operations this task issued toward
    /// `target` have deposited their data remotely (§5.3.2: completion
    /// handlers may still be running).
    pub fn fence(&self, target: NodeId) -> LapiResult {
        self.engine.fence(target)
    }

    /// `LAPI_Gfence`: fence against all tasks, then synchronize all tasks.
    ///
    /// In polling mode the barrier wait keeps servicing the receive queue:
    /// a peer may still be blocked on a request (rmw, get) it issued before
    /// heading to its own fence, and polling-mode LAPI only makes progress
    /// when the target polls. Parking without draining would strand that
    /// request and deadlock the job.
    pub fn gfence(&self) -> LapiResult {
        self.engine.fence_all()?;
        self.sync_among(self.tasks());
        Ok(())
    }

    /// The barrier half of `LAPI_Gfence` over `expected` participants. A
    /// polling node keeps serving its peers until the barrier releases: it
    /// parks on its receive ring like every polling wait, and the arrival
    /// that releases the barrier wakes it there.
    fn sync_among(&self, expected: usize) {
        let clock = self.engine.clock();
        match self.engine.mode() {
            Mode::Polling => {
                let engine = Arc::clone(&self.engine);
                let me = self.barrier.arrive(
                    clock,
                    expected,
                    Some(Box::new(move || engine.adapter().rx().wake_receiver())),
                );
                self.engine.poll_until(|| self.barrier.released(&me, clock));
            }
            Mode::Interrupt => {
                self.barrier.wait_among(clock, expected);
            }
        }
    }

    /// Survivor-set `LAPI_Gfence`: fence and synchronize over the *live*
    /// members only, as scheduled by the machine's
    /// [`spsim::FaultPlan`] crash entries. Returns the survivor set
    /// (ascending task ids).
    ///
    /// With no node scheduled to crash this is exactly
    /// [`LapiContext::gfence`]. Otherwise every scheduled-dead peer is
    /// first declared dead locally — unblocking operations whose data was
    /// delivered before the crash but whose completion acknowledgement
    /// will never come — a `fence-degraded` trace event records the
    /// degradation, each survivor is fenced, and the barrier releases at
    /// the survivor count instead of the full job size.
    ///
    /// The fault plan is the shared membership ground truth: every
    /// survivor computes the same set deterministically, so all of them
    /// pass the same expected count to the barrier (mixing counts would
    /// release early or strand arrivals). A task that is itself scheduled
    /// dead must not call this; it gets [`LapiError::Terminated`].
    pub fn gfence_surviving(&self) -> LapiResult<Vec<NodeId>> {
        self.engine.check_live()?;
        let survivors = self.machine().faults.survivors(self.tasks());
        if survivors.len() == self.tasks() {
            self.gfence()?;
            return Ok(survivors);
        }
        if !survivors.contains(&self.id()) {
            return Err(LapiError::Terminated);
        }
        // Declare every scheduled-dead peer dead now (idempotent): an op
        // whose data was delivered pre-crash never sees a send failure,
        // so without this proactive declaration nothing would unblock its
        // waiters.
        for t in 0..self.tasks() {
            if t != self.id() && !survivors.contains(&t) {
                let cause = LapiError::DeliveryTimeout {
                    target: t,
                    seq: 0,
                    acked: 0,
                    retries: 0,
                    fast_failed: true,
                    detail: format!(
                        "task {t} scheduled to crash in the fault plan; declared dead \
                         at gfence_surviving"
                    ),
                };
                self.engine.declare_peer_dead(t, &cause);
            }
        }
        self.trace(
            trace::EventKind::FenceDegraded,
            "gfence",
            survivors.len() as u64,
            0,
        );
        for &t in &survivors {
            self.engine.fence(t)?;
        }
        self.sync_among(survivors.len());
        Ok(survivors)
    }

    /// Barrier without the fence half (job-wide clock alignment); returns
    /// the aligned virtual time.
    pub fn barrier(&self) -> VTime {
        self.barrier.wait(self.engine.clock())
    }

    /// Tasks this context has declared dead (ascending), whether via an
    /// exhausted retransmission budget or a `gfence_surviving` schedule.
    pub fn dead_peers(&self) -> Vec<NodeId> {
        self.engine.dead_peer_list()
    }

    // ------------------------------------------------- address exchange

    /// Collective exchange of one u64 per task; returns the vector indexed
    /// by task id. The building block of `LAPI_Address_init`.
    pub fn exchange(&self, value: u64) -> Vec<u64> {
        self.exchange
            .exchange(self.engine.clock(), self.id(), value)
    }

    /// `LAPI_Address_init`: every task contributes a local address, every
    /// task receives the full table.
    pub fn address_init(&self, addr: Addr) -> Vec<Addr> {
        self.exchange(addr.0).into_iter().map(Addr).collect()
    }

    /// Exchange counter ids so remote origins can name a local counter as
    /// their `tgt_cntr`.
    pub fn counter_init(&self, c: &Counter) -> Vec<RemoteCounter> {
        self.exchange(c.id() as u64)
            .into_iter()
            .map(|v| RemoteCounter(v as u32))
            .collect()
    }

    // -------------------------------------------------------------- term

    /// `LAPI_Term`: shut down this task's context. Call after a final
    /// [`LapiContext::gfence`] so no peer still has traffic toward this
    /// node in flight.
    pub fn term(&mut self) -> LapiResult {
        self.engine.check_live()?;
        self.engine.terminate();
        let propagate = !std::thread::panicking();
        if let Some(h) = self.dispatcher.take() {
            let r = h.join();
            if propagate {
                r.expect("dispatcher thread panicked");
            }
        }
        for h in self.completion.drain(..) {
            let r = h.join();
            if propagate {
                r.expect("completion thread panicked");
            }
        }
        Ok(())
    }

    /// Crash-stop this node mid-run (node-level fault injection): the
    /// context dies instantly without the cooperative `term` handshake.
    /// Service loops stop without draining their backlogs — a crashed
    /// adapter delivers nothing — and every packet received but never
    /// processed is written off so the trace ledger stays balanced
    /// (`injected == delivered + written_off`). Pair it with
    /// [`spsim::FaultPlan::with_crash`] at the same instant so the fabric
    /// black-holes traffic to and from this node; survivors then observe
    /// the death through exhausted retransmissions or
    /// [`LapiContext::gfence_surviving`]. Idempotent; subsequent API calls
    /// return [`LapiError::Terminated`].
    pub fn crash_stop(&mut self) {
        if self.engine.is_terminated() {
            return;
        }
        self.engine.crash();
        self.engine.terminate();
        let propagate = !std::thread::panicking();
        if let Some(h) = self.dispatcher.take() {
            let r = h.join();
            if propagate {
                r.expect("dispatcher thread panicked");
            }
        }
        for h in self.completion.drain(..) {
            let r = h.join();
            if propagate {
                r.expect("completion thread panicked");
            }
        }
        // With the service threads gone, retire whatever they left behind.
        self.engine.write_off_stranded();
    }
}

impl Drop for LapiContext {
    fn drop(&mut self) {
        if !self.engine.is_terminated() {
            self.engine.terminate();
        }
        // Reap service threads without double-panicking during unwinds.
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        for h in self.completion.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for LapiContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LapiContext")
            .field("task", &self.id())
            .field("tasks", &self.tasks())
            .field("terminated", &self.engine.check_live().is_err())
            .finish()
    }
}

// Re-exported error for doc links.
#[allow(unused_imports)]
use LapiError as _DocLink;
