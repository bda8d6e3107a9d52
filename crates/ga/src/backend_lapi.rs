//! GA over LAPI — the paper's §5.3 implementation.
//!
//! Protocol structure reproduced from the paper:
//!
//! * **Hybrid protocols**: small and noncontiguous requests travel as
//!   active messages whose entire payload rides in the ≤900-byte AM user
//!   header ("a substantial room for user data in the AM header"), medium
//!   requests are *pipelined* as a stream of such single-packet AMs, and
//!   large contiguous requests use `LAPI_Put`/`LAPI_Get` directly — with
//!   ≥0.5 MB 2-D patches switching to per-column RMC.
//! * **Generalized counters** (§5.3.2): one per remote node, counting the
//!   completion of every store-type operation sent there; GA's fence waits
//!   on them (covering completion handlers, which `LAPI_Fence` alone does
//!   not) and then on the LAPI-level fence.
//! * **AM buffer pool** (§5.3.1): bulk accumulates carry their payload as
//!   AM `udata` landing in preallocated pool buffers, combined by the
//!   completion handler (which is where up to three "threads" touch the
//!   same element — the mutual exclusion of §5.3.3 is the arena lock).
//! * **`read_inc` via `LAPI_Rmw`** (FetchAndAdd) and **locks via
//!   compare-and-swap** with backoff.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use lapi::{Addr, Counter, HdrOutcome, IoVec, LapiContext, RemoteCounter, RmwOp};
use parking_lot::Mutex;
use spsim::{NodeId, VClock, VDur};

use crate::backend::{GaBackend, GaStats, Segment};
use crate::config::GaConfig;
use crate::reqwire::{bytes_to_f64s, f64s_to_bytes, GaReq, Op};

/// The AM handler id GA registers on every node.
pub const GA_HANDLER: u32 = 0x6A;

/// Per-remote-node generalized counter (§5.3.2).
struct GenCntr {
    cntr: Counter,
    issued: AtomicI64,
}

/// State shared with the AM handler closures.
struct Shared {
    stats: GaStats,
    cfg: GaConfig,
    pool: Mutex<Vec<Addr>>,
}

impl Shared {
    fn take_pool_buffer(&self, need: usize) -> (Addr, bool) {
        if need <= self.cfg.pool_buffer_bytes {
            if let Some(a) = self.pool.lock().pop() {
                return (a, true);
            }
        }
        self.stats.pool_exhausted.incr();
        (Addr(0), false) // caller allocates
    }
}

/// GA's LAPI backend: owns the task's [`LapiContext`].
pub struct LapiGaBackend {
    ctx: LapiContext,
    shared: Arc<Shared>,
    gen: Vec<GenCntr>,
    /// Reused origin counter for blocking waits (single app thread).
    org_cntr: Counter,
    /// Reused reply counter for blocking gets.
    reply_cntr: Counter,
    /// Reusable landing area for get replies.
    scratch: Mutex<(Addr, usize)>,
    /// Mutex cell bases per owner task (set by `setup_mutexes`).
    mutex_bases: Mutex<Vec<Addr>>,
}

impl LapiGaBackend {
    /// Wrap a LAPI context (one per task; collective — all tasks must
    /// construct theirs before any communicates).
    pub fn new(ctx: LapiContext, cfg: GaConfig) -> Arc<Self> {
        let shared = Arc::new(Shared {
            stats: GaStats::default(),
            cfg: cfg.clone(),
            pool: Mutex::new(
                (0..cfg.pool_buffers)
                    .map(|_| ctx.alloc(cfg.pool_buffer_bytes))
                    .collect(),
            ),
        });
        let gen = (0..ctx.tasks())
            .map(|_| GenCntr {
                cntr: ctx.new_counter(),
                issued: AtomicI64::new(0),
            })
            .collect();
        let org_cntr = ctx.new_counter();
        let reply_cntr = ctx.new_counter();
        let h_shared = Arc::clone(&shared);
        ctx.register_handler(GA_HANDLER, move |hctx, info| {
            ga_header_handler(&h_shared, hctx, info)
        });
        Arc::new(LapiGaBackend {
            ctx,
            shared,
            gen,
            org_cntr,
            reply_cntr,
            scratch: Mutex::new((Addr(0), 0)),
            mutex_bases: Mutex::new(Vec::new()),
        })
    }

    /// Access the underlying LAPI context (e.g. for its statistics).
    pub fn lapi(&self) -> &LapiContext {
        &self.ctx
    }

    /// Usable request budget of one AM user header.
    fn uhdr_budget(&self) -> usize {
        self.ctx.machine().lapi_max_uhdr
    }

    fn ensure_scratch(&self, bytes: usize) -> Addr {
        let mut s = self.scratch.lock();
        if s.1 < bytes {
            let cap = bytes.next_power_of_two().max(4096);
            *s = (self.ctx.alloc(cap), cap);
        }
        s.0
    }

    /// Split `(segs, data)` into requests whose encoding fits one AM
    /// header, splitting long segments as needed.
    fn chunk_requests(
        &self,
        segs: &[Segment],
        data_elems: usize,
        with_data: bool,
    ) -> Vec<(Vec<Segment>, usize, usize)> {
        // Returns (segments, data element offset, data element count).
        let budget = self.uhdr_budget();
        let mut out = Vec::new();
        let mut cur: Vec<Segment> = Vec::new();
        let mut cur_elems = 0usize;
        let mut done_elems = 0usize;
        let fits = |nsegs: usize, nelems: usize| {
            GaReq::encoded_len(nsegs, if with_data { nelems } else { 0 }) <= budget
        };
        let mut pending: Vec<Segment> = segs.to_vec();
        pending.reverse(); // pop from the front cheaply
        while let Some(seg) = pending.pop() {
            if fits(cur.len() + 1, cur_elems + seg.len) {
                cur_elems += seg.len;
                cur.push(seg);
                continue;
            }
            // How much of this segment still fits in the current request?
            let mut room = 0usize;
            if with_data {
                while fits(cur.len() + 1, cur_elems + room + 1) {
                    room += 1;
                }
                room = room.min(seg.len);
            }
            if room > 0 {
                cur.push(Segment {
                    off: seg.off,
                    len: room,
                });
                cur_elems += room;
                pending.push(Segment {
                    off: seg.off + room,
                    len: seg.len - room,
                });
            } else if cur.is_empty() {
                // A single segment too large even alone (get path): split
                // at the largest size that fits.
                let mut cap = seg.len;
                while !fits(1, cap) {
                    cap /= 2;
                }
                let cap = cap.max(1);
                cur.push(Segment {
                    off: seg.off,
                    len: cap.min(seg.len),
                });
                cur_elems += cap.min(seg.len);
                if seg.len > cap {
                    pending.push(Segment {
                        off: seg.off + cap,
                        len: seg.len - cap,
                    });
                }
            } else {
                pending.push(seg);
            }
            out.push((std::mem::take(&mut cur), done_elems, cur_elems));
            done_elems += cur_elems;
            cur_elems = 0;
        }
        if !cur.is_empty() {
            out.push((cur, done_elems, cur_elems));
            done_elems += cur_elems;
        }
        debug_assert_eq!(done_elems, Segment::total(segs));
        debug_assert!(!with_data || done_elems == data_elems);
        out
    }

    fn gen_issue(&self, target: NodeId, k: i64) {
        // ordering: issue tally read only by this rank's own fence() —
        // single-writer, single-reader on the same thread.
        self.gen[target].issued.fetch_add(k, Ordering::Relaxed);
    }

    /// Trace which arm of the hybrid protocol (§5.3/§6) an operation took.
    #[inline]
    fn trace_branch(&self, taken: &'static str, bytes: usize) {
        self.ctx
            .trace(spsim::trace::EventKind::Branch, taken, 0, bytes);
    }

    /// Segment list → per-message vector tables (≤ the putv/getv limit),
    /// with the matching element ranges of the contiguous stream.
    fn vec_groups(&self, token: u64, segs: &[Segment]) -> Vec<(Vec<IoVec>, usize, usize)> {
        let max = self.ctx.max_vecs();
        let mut out = Vec::new();
        let mut elem_off = 0usize;
        for group in segs.chunks(max) {
            let vecs: Vec<IoVec> = group
                .iter()
                .map(|s| IoVec {
                    addr: Addr(token + s.off as u64 * 8),
                    len: s.len * 8,
                })
                .collect();
            let n: usize = group.iter().map(|s| s.len).sum();
            out.push((vecs, elem_off, n));
            elem_off += n;
        }
        out
    }
}

/// The GA header handler: decodes requests and serves them (§5.3).
fn ga_header_handler(
    shared: &Arc<Shared>,
    hctx: &lapi::HandlerCtx<'_>,
    info: lapi::AmInfo<'_>,
) -> HdrOutcome {
    let m = hctx.machine();
    let req = GaReq::decode(info.uhdr);
    match req.op {
        Op::Put => {
            hctx.charge(m.ga_serve_overhead);
            let mut pos = 0;
            hctx.mem_update(|sp| {
                for s in &req.segs {
                    sp.write_f64s(
                        Addr(req.token + s.off as u64 * 8),
                        &req.data[pos..pos + s.len],
                    );
                    pos += s.len;
                }
            });
            HdrOutcome::none()
        }
        Op::Acc if info.data_len == 0 => {
            // Short accumulate: applied right here in the header handler
            // (the paper's "header handler thread" case of §5.3.3).
            hctx.charge(m.ga_serve_overhead + m.ga_acc_per_elem * req.data.len() as u64);
            shared.stats.accs_applied.incr();
            apply_acc(hctx, &req);
            HdrOutcome::none()
        }
        Op::Acc => {
            // Bulk accumulate: payload (an encoded request) lands in a pool
            // buffer; the completion handler combines it (§5.3.1).
            let (buf, from_pool) = shared.take_pool_buffer(info.data_len);
            let buf = if from_pool {
                buf
            } else {
                hctx.alloc(info.data_len)
            };
            let shared = Arc::clone(shared);
            let len = info.data_len;
            HdrOutcome::into_buffer(buf).with_completion(Box::new(move |c| {
                let m = c.machine();
                let inner = GaReq::decode(&c.mem_read(buf, len));
                c.charge(m.ga_serve_overhead + m.ga_acc_per_elem * inner.data.len() as u64);
                shared.stats.accs_applied.incr();
                apply_acc(c, &inner);
                if from_pool {
                    shared.pool.lock().push(buf);
                }
            }))
        }
        Op::Get => {
            hctx.charge(m.ga_serve_overhead);
            // Gather the segments into a contiguous reply (the target-side
            // packing copy the paper says direct RMC avoids).
            let total = Segment::total(&req.segs);
            hctx.charge(m.memcpy_time(total * 8));
            let mut vals = Vec::with_capacity(total);
            for s in &req.segs {
                vals.extend(hctx.mem_read_f64s(Addr(req.token + s.off as u64 * 8), s.len));
            }
            hctx.reply_put(
                info.src,
                Addr(req.reply.0),
                &f64s_to_bytes(&vals),
                Some(RemoteCounter(req.reply.1)),
                None,
                None,
            )
            .expect("reply_put");
            HdrOutcome::none()
        }
        Op::ReadInc | Op::Lock | Op::Unlock | Op::Flush => {
            unreachable!(
                "{:?} is not an AM-served operation on the LAPI backend",
                req.op
            )
        }
    }
}

fn apply_acc(hctx: &lapi::HandlerCtx<'_>, req: &GaReq) {
    let mut pos = 0;
    hctx.mem_update(|sp| {
        for s in &req.segs {
            let addr = Addr(req.token + s.off as u64 * 8);
            let mut cur = sp.read_f64s(addr, s.len);
            for (c, v) in cur.iter_mut().zip(&req.data[pos..pos + s.len]) {
                *c += req.alpha * v;
            }
            sp.write_f64s(addr, &cur);
            pos += s.len;
        }
    });
}

impl GaBackend for LapiGaBackend {
    fn id(&self) -> NodeId {
        self.ctx.id()
    }

    fn tasks(&self) -> usize {
        self.ctx.tasks()
    }

    fn clock(&self) -> &VClock {
        self.ctx.clock()
    }

    fn memcpy_cost(&self, bytes: usize) -> VDur {
        self.ctx.machine().memcpy_time(bytes)
    }

    fn exchange(&self, value: u64) -> Vec<u64> {
        self.ctx.exchange(value)
    }

    fn sync(&self) {
        self.fence_all();
        self.ctx.gfence().expect("gfence");
    }

    fn create_block(&self, elems: usize) -> u64 {
        self.ctx.alloc(elems * 8).0
    }

    fn local_write(&self, token: u64, off: usize, data: &[f64]) {
        self.ctx.mem_write_f64s(Addr(token + off as u64 * 8), data);
    }

    fn local_read(&self, token: u64, off: usize, n: usize) -> Vec<f64> {
        self.ctx.mem_read_f64s(Addr(token + off as u64 * 8), n)
    }

    fn put(&self, target: NodeId, token: u64, segs: &[Segment], data: &[f64]) {
        debug_assert_eq!(Segment::total(segs), data.len());
        let m = self.ctx.machine();
        self.ctx.compute(m.ga_op_overhead);
        let cfg = &self.shared.cfg;
        let bytes = data.len() * 8;
        let stats = &self.shared.stats;
        if segs.len() == 1 && bytes >= cfg.direct_min_bytes {
            // Large contiguous: direct RMC, no copies (the 1-D fast path).
            stats.direct_rmc.incr();
            self.trace_branch("put-direct", bytes);
            self.gen_issue(target, 1);
            self.ctx
                .put(
                    target,
                    Addr(token + segs[0].off as u64 * 8),
                    &f64s_to_bytes(data),
                    None,
                    Some(&self.org_cntr),
                    Some(&self.gen[target].cntr),
                )
                .expect("put");
            self.ctx.waitcntr(&self.org_cntr, 1);
        } else if segs.len() > 1 && bytes >= cfg.direct_2d_min_bytes {
            // Very large 2-D: one LAPI_Put per column (§5.4).
            stats.per_column_rmc.incr();
            self.trace_branch("put-per-col", bytes);
            self.gen_issue(target, segs.len() as i64);
            let mut pos = 0;
            for s in segs {
                self.ctx
                    .put(
                        target,
                        Addr(token + s.off as u64 * 8),
                        &f64s_to_bytes(&data[pos..pos + s.len]),
                        None,
                        Some(&self.org_cntr),
                        Some(&self.gen[target].cntr),
                    )
                    .expect("put");
                pos += s.len;
            }
            self.ctx.waitcntr(&self.org_cntr, segs.len() as i64);
        } else if cfg.use_vector_rmc && segs.len() > 1 && bytes >= cfg.vector_min_bytes {
            // §6 extension: one putv message scatters the whole patch —
            // no per-segment messages, no packing copies.
            let groups = self.vec_groups(token, segs);
            stats.vector_rmc.add(groups.len() as u64);
            self.trace_branch("put-vector", bytes);
            self.gen_issue(target, groups.len() as i64);
            let k = groups.len() as i64;
            for (vecs, eoff, elems) in groups {
                self.ctx
                    .putv(
                        target,
                        &vecs,
                        &f64s_to_bytes(&data[eoff..eoff + elems]),
                        None,
                        Some(&self.org_cntr),
                        Some(&self.gen[target].cntr),
                    )
                    .expect("putv");
            }
            self.ctx.waitcntr(&self.org_cntr, k);
        } else {
            // Small/medium (incl. noncontiguous): pipelined header-payload
            // AMs, each a single switch packet.
            let chunks = self.chunk_requests(segs, data.len(), true);
            stats.am_requests.add(chunks.len() as u64);
            self.trace_branch("put-am", bytes);
            self.gen_issue(target, chunks.len() as i64);
            let k = chunks.len() as i64;
            for (csegs, doff, dlen) in chunks {
                let req = GaReq {
                    op: Op::Put,
                    token,
                    alpha: 1.0,
                    reply: (0, 0),
                    inc: 0,
                    segs: csegs,
                    data: data[doff..doff + dlen].to_vec(),
                };
                self.ctx
                    .amsend(
                        target,
                        GA_HANDLER,
                        &req.encode(),
                        &[],
                        None,
                        Some(&self.org_cntr),
                        Some(&self.gen[target].cntr),
                    )
                    .expect("amsend");
            }
            self.ctx.waitcntr(&self.org_cntr, k);
        }
    }

    fn get(&self, target: NodeId, token: u64, segs: &[Segment]) -> Vec<f64> {
        let m = self.ctx.machine();
        self.ctx.compute(m.ga_op_overhead);
        let cfg = &self.shared.cfg;
        let total = Segment::total(segs);
        let bytes = total * 8;
        let stats = &self.shared.stats;
        if segs.len() == 1 && bytes >= cfg.direct_min_bytes {
            // Direct LAPI_Get: avoids both packing copies (the 1-D path).
            stats.direct_rmc.incr();
            self.trace_branch("get-direct", bytes);
            let dst = self.ensure_scratch(bytes);
            self.ctx
                .get(
                    target,
                    Addr(token + segs[0].off as u64 * 8),
                    bytes,
                    dst,
                    None,
                    Some(&self.reply_cntr),
                )
                .expect("get");
            self.ctx.waitcntr(&self.reply_cntr, 1);
            bytes_to_f64s(&self.ctx.mem_read(dst, bytes))
        } else if segs.len() > 1 && bytes >= cfg.direct_2d_min_bytes {
            // Per-column LAPI_Get for huge 2-D patches.
            stats.per_column_rmc.incr();
            self.trace_branch("get-per-col", bytes);
            let dst = self.ensure_scratch(bytes);
            let mut pos = 0usize;
            for s in segs {
                self.ctx
                    .get(
                        target,
                        Addr(token + s.off as u64 * 8),
                        s.len * 8,
                        dst.offset(pos * 8),
                        None,
                        Some(&self.reply_cntr),
                    )
                    .expect("get");
                pos += s.len;
            }
            self.ctx.waitcntr(&self.reply_cntr, segs.len() as i64);
            bytes_to_f64s(&self.ctx.mem_read(dst, bytes))
        } else if cfg.use_vector_rmc && segs.len() > 1 && bytes >= cfg.vector_min_bytes {
            // §6 extension: one getv gathers the patch remotely.
            let dst = self.ensure_scratch(bytes);
            let groups = self.vec_groups(token, segs);
            stats.vector_rmc.add(groups.len() as u64);
            self.trace_branch("get-vector", bytes);
            let k = groups.len() as i64;
            for (vecs, eoff, _) in groups {
                self.ctx
                    .getv(
                        target,
                        &vecs,
                        dst.offset(eoff * 8),
                        None,
                        Some(&self.reply_cntr),
                    )
                    .expect("getv");
            }
            self.ctx.waitcntr(&self.reply_cntr, k);
            bytes_to_f64s(&self.ctx.mem_read(dst, bytes))
        } else {
            // AM request(s); target packs and reply_puts into our scratch.
            let dst = self.ensure_scratch(bytes);
            let chunks = self.chunk_requests(segs, 0, false);
            stats.am_requests.add(chunks.len() as u64);
            self.trace_branch("get-am", bytes);
            let k = chunks.len() as i64;
            let mut elem_off = 0usize;
            for (csegs, _, _) in chunks {
                let n: usize = csegs.iter().map(|s| s.len).sum();
                let req = GaReq {
                    op: Op::Get,
                    token,
                    alpha: 1.0,
                    reply: (dst.offset(elem_off * 8).0, self.reply_cntr.id()),
                    inc: 0,
                    segs: csegs,
                    data: vec![],
                };
                self.ctx
                    .amsend(target, GA_HANDLER, &req.encode(), &[], None, None, None)
                    .expect("amsend");
                elem_off += n;
            }
            self.ctx.waitcntr(&self.reply_cntr, k);
            bytes_to_f64s(&self.ctx.mem_read(dst, bytes))
        }
    }

    fn acc(&self, target: NodeId, token: u64, segs: &[Segment], alpha: f64, data: &[f64]) {
        debug_assert_eq!(Segment::total(segs), data.len());
        let m = self.ctx.machine();
        self.ctx.compute(m.ga_op_overhead);
        let cfg = &self.shared.cfg;
        let bytes = data.len() * 8;
        if bytes >= cfg.acc_udata_min_bytes {
            // Bulk: one AM with the encoded request as udata → pool buffer
            // → combined in the completion handler.
            self.shared.stats.am_bulk_requests.incr();
            self.trace_branch("acc-bulk", bytes);
            self.gen_issue(target, 1);
            let inner = GaReq {
                op: Op::Acc,
                token,
                alpha,
                reply: (0, 0),
                inc: 0,
                segs: segs.to_vec(),
                data: data.to_vec(),
            };
            let head = GaReq {
                op: Op::Acc,
                token,
                alpha,
                reply: (0, 0),
                inc: 0,
                segs: vec![],
                data: vec![],
            };
            // Building the udata image is a real packing copy: charge it.
            self.ctx.compute(m.memcpy_time(bytes));
            self.ctx
                .amsend(
                    target,
                    GA_HANDLER,
                    &head.encode(),
                    &inner.encode(),
                    None,
                    Some(&self.org_cntr),
                    Some(&self.gen[target].cntr),
                )
                .expect("amsend");
            self.ctx.waitcntr(&self.org_cntr, 1);
        } else {
            let chunks = self.chunk_requests(segs, data.len(), true);
            self.shared.stats.am_requests.add(chunks.len() as u64);
            self.trace_branch("acc-am", bytes);
            self.gen_issue(target, chunks.len() as i64);
            let k = chunks.len() as i64;
            for (csegs, doff, dlen) in chunks {
                let req = GaReq {
                    op: Op::Acc,
                    token,
                    alpha,
                    reply: (0, 0),
                    inc: 0,
                    segs: csegs,
                    data: data[doff..doff + dlen].to_vec(),
                };
                self.ctx
                    .amsend(
                        target,
                        GA_HANDLER,
                        &req.encode(),
                        &[],
                        None,
                        Some(&self.org_cntr),
                        Some(&self.gen[target].cntr),
                    )
                    .expect("amsend");
            }
            self.ctx.waitcntr(&self.org_cntr, k);
        }
    }

    fn read_inc(&self, target: NodeId, token: u64, off: usize, inc: i64) -> i64 {
        let m = self.ctx.machine();
        self.ctx.compute(m.ga_op_overhead);
        self.shared.stats.read_incs.incr();
        let fut = self
            .ctx
            .rmw(
                target,
                RmwOp::FetchAndAdd,
                Addr(token + off as u64 * 8),
                inc as u64,
                0,
            )
            .expect("rmw");
        fut.wait() as i64
    }

    fn setup_mutexes(&self, n: usize) {
        let p = self.tasks();
        let per = n.div_ceil(p).max(1);
        let base = self.ctx.alloc(per * 8);
        let bases = self
            .ctx
            .address_init(base)
            .into_iter()
            .collect::<Vec<Addr>>();
        *self.mutex_bases.lock() = bases;
    }

    fn lock(&self, mutex: usize) {
        let p = self.tasks();
        let owner = mutex % p;
        let addr = {
            let bases = self.mutex_bases.lock();
            assert!(!bases.is_empty(), "setup_mutexes not called");
            bases[owner].offset((mutex / p) * 8)
        };
        let backoff = VDur::from_us(self.shared.cfg.lock_backoff_us);
        loop {
            let prev = self
                .ctx
                .rmw(owner, RmwOp::CompareAndSwap, addr, 1, 0)
                .expect("rmw")
                .wait();
            if prev == 0 {
                return;
            }
            self.ctx.compute(backoff);
        }
    }

    fn unlock(&self, mutex: usize) {
        let p = self.tasks();
        let owner = mutex % p;
        let addr = {
            let bases = self.mutex_bases.lock();
            bases[owner].offset((mutex / p) * 8)
        };
        let prev = self
            .ctx
            .rmw(owner, RmwOp::Swap, addr, 0, 0)
            .expect("rmw")
            .wait();
        assert_eq!(prev, 1, "unlock of a mutex not held");
    }

    fn fence(&self, target: NodeId) {
        // Generalized-counter fence: wait for the completion of every
        // store-type operation issued toward `target`, including the
        // completion handlers of bulk accumulates (§5.3.2).
        // ordering: same-thread pairing with gen_issue — the issuing rank is
        // the fencing rank, so no cross-thread visibility is needed.
        let want = self.gen[target].issued.swap(0, Ordering::Relaxed);
        if want > 0 {
            self.ctx.waitcntr(&self.gen[target].cntr, want);
        }
        self.ctx.fence(target).expect("fence");
    }

    fn stats(&self) -> &GaStats {
        &self.shared.stats
    }
}
