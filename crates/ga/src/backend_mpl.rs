//! GA over MPL — the paper's previous-generation §5.2 implementation,
//! reproduced as the baseline for Figures 3–4 and the application study.
//!
//! Every remote access is a *request message* to an interrupt-driven
//! `rcvncall` handler at the owner:
//!
//! * the request header and any data must travel in **one MPL message**
//!   (MPL's in-order progress rules prevent separating them), so the
//!   origin pays a packing copy on every store and the handler pays an
//!   unpacking copy — the two extra copies the paper blames for MPL's
//!   bandwidth ceiling;
//! * each request invocation pays the AIX `rcvncall` handler-context cost
//!   (the >300 µs get latency of the previous-generation SP, ≈221 µs on
//!   the paper's hardware);
//! * atomicity of `accumulate`/`read_inc` comes from the single-threaded
//!   execution of the handler (the paper's `lockrnc` story);
//! * GA fence is a *flush* round trip: in-order delivery means a flush
//!   reply proves every earlier request from this origin was served.

use std::collections::VecDeque;
use std::sync::Arc;

use mpl::MplContext;
use parking_lot::Mutex;
use spsim::{NodeId, VClock, VDur};

use crate::backend::{GaBackend, GaStats, Segment};
use crate::reqwire::{GaReq, Op};

/// Tag of GA request messages (served by rcvncall).
pub const GA_REQ_TAG: i32 = 9000;
/// Tag of GA reply messages (get data, read_inc/lock/flush replies).
pub const GA_REPLY_TAG: i32 = 9001;

/// Handler-side state: block storage, locks.
struct Shared {
    stats: GaStats,
    blocks: Mutex<Vec<Vec<f64>>>,
    locks: Mutex<LockTable>,
}

#[derive(Default)]
struct LockTable {
    held: Vec<bool>,
    waiters: Vec<VecDeque<NodeId>>,
}

/// GA's MPL backend: owns the task's [`MplContext`].
pub struct MplGaBackend {
    ctx: MplContext,
    shared: Arc<Shared>,
}

impl MplGaBackend {
    /// Wrap an MPL context (collective; installs the rcvncall handler and
    /// switches the context to interrupt mode).
    pub fn new(ctx: MplContext) -> Arc<Self> {
        let shared = Arc::new(Shared {
            stats: GaStats::default(),
            blocks: Mutex::new(Vec::new()),
            locks: Mutex::new(LockTable::default()),
        });
        let h = Arc::clone(&shared);
        ctx.rcvncall(GA_REQ_TAG, move |hctx, data, st| {
            serve_request(&h, hctx, &data, st.src);
        });
        Arc::new(MplGaBackend { ctx, shared })
    }

    /// Access the underlying MPL context.
    pub fn mpl(&self) -> &MplContext {
        &self.ctx
    }

    fn request(&self, target: NodeId, req: &GaReq) {
        self.shared.stats.mpl_requests.incr();
        let bytes = req.encode();
        // The MPL backend has exactly one protocol arm (marshalled send /
        // rcvncall serve, §5.2) — traced so timelines show which backend a
        // GA operation went through.
        self.ctx.trace(
            spsim::trace::EventKind::Branch,
            "mpl-request",
            0,
            bytes.len(),
        );
        // Marshalling + the packing copy: header and data must share one
        // message under MPL's in-order progress rules (§5.2).
        let m = self.ctx.machine();
        self.ctx
            .compute(m.ga_mpl_request_overhead + m.memcpy_time(bytes.len()));
        self.ctx.send(target, GA_REQ_TAG, &bytes);
    }

    fn request_reply(&self, target: NodeId, req: &GaReq) -> Vec<u8> {
        self.request(target, req);
        let (data, _) = self.ctx.recv(Some(target), Some(GA_REPLY_TAG));
        data
    }
}

/// The rcvncall request handler (runs on the MPL dispatcher, one at a time
/// per node — which is what makes accumulate/read_inc atomic here).
fn serve_request(shared: &Arc<Shared>, hctx: &mpl::MplHandlerCtx<'_>, bytes: &[u8], src: NodeId) {
    let m = hctx.machine();
    let req = GaReq::decode(bytes);
    match req.op {
        Op::Put => {
            // Unpack into the block: the handler-side copy of §5.2.
            hctx.charge(m.ga_serve_overhead + m.memcpy_time(req.data.len() * 8));
            let mut blocks = shared.blocks.lock();
            let block = &mut blocks[req.token as usize];
            let mut pos = 0;
            for s in &req.segs {
                block[s.off..s.off + s.len].copy_from_slice(&req.data[pos..pos + s.len]);
                pos += s.len;
            }
        }
        Op::Acc => {
            hctx.charge(m.ga_serve_overhead + m.ga_acc_per_elem * req.data.len() as u64);
            shared.stats.accs_applied.incr();
            let mut blocks = shared.blocks.lock();
            let block = &mut blocks[req.token as usize];
            let mut pos = 0;
            for s in &req.segs {
                for (c, v) in block[s.off..s.off + s.len]
                    .iter_mut()
                    .zip(&req.data[pos..pos + s.len])
                {
                    *c += req.alpha * v;
                }
                pos += s.len;
            }
        }
        Op::Get => {
            // Pack the requested elements and send them back: the copy
            // into the reply message buffer.
            let total = Segment::total(&req.segs);
            hctx.charge(m.ga_serve_overhead + m.memcpy_time(total * 8));
            let blocks = shared.blocks.lock();
            let block = &blocks[req.token as usize];
            let mut out = Vec::with_capacity(total * 8);
            for s in &req.segs {
                for v in &block[s.off..s.off + s.len] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            drop(blocks);
            hctx.isend(src, GA_REPLY_TAG, &out);
        }
        Op::ReadInc => {
            hctx.charge(m.ga_serve_overhead);
            shared.stats.read_incs.incr();
            let off = req.segs[0].off;
            let mut blocks = shared.blocks.lock();
            let cell = &mut blocks[req.token as usize][off];
            let prev = cell.to_bits() as i64;
            *cell = f64::from_bits((prev + req.inc) as u64);
            drop(blocks);
            hctx.isend(src, GA_REPLY_TAG, &prev.to_le_bytes());
        }
        Op::Lock => {
            hctx.charge(m.ga_serve_overhead);
            let mutex = req.inc as usize;
            let mut lt = shared.locks.lock();
            ensure_lock_slot(&mut lt, mutex);
            if lt.held[mutex] {
                lt.waiters[mutex].push_back(src);
            } else {
                lt.held[mutex] = true;
                drop(lt);
                hctx.isend(src, GA_REPLY_TAG, b"grant");
            }
        }
        Op::Unlock => {
            hctx.charge(m.ga_serve_overhead);
            let mutex = req.inc as usize;
            let mut lt = shared.locks.lock();
            ensure_lock_slot(&mut lt, mutex);
            assert!(lt.held[mutex], "unlock of free GA mutex {mutex}");
            match lt.waiters[mutex].pop_front() {
                Some(next) => {
                    drop(lt);
                    hctx.isend(next, GA_REPLY_TAG, b"grant");
                }
                None => lt.held[mutex] = false,
            }
        }
        Op::Flush => {
            // In-order delivery: replying proves all earlier requests from
            // `src` were already served.
            hctx.isend(src, GA_REPLY_TAG, b"flushed");
        }
    }
}

fn ensure_lock_slot(lt: &mut LockTable, mutex: usize) {
    if lt.held.len() <= mutex {
        lt.held.resize(mutex + 1, false);
        lt.waiters.resize_with(mutex + 1, VecDeque::new);
    }
}

impl GaBackend for MplGaBackend {
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
        self.ctx.barrier();
    }

    fn create_block(&self, elems: usize) -> u64 {
        let mut blocks = self.shared.blocks.lock();
        blocks.push(vec![0.0; elems]);
        (blocks.len() - 1) as u64
    }

    fn local_write(&self, token: u64, off: usize, data: &[f64]) {
        self.shared.blocks.lock()[token as usize][off..off + data.len()].copy_from_slice(data);
    }

    fn local_read(&self, token: u64, off: usize, n: usize) -> Vec<f64> {
        self.shared.blocks.lock()[token as usize][off..off + n].to_vec()
    }

    fn put(&self, target: NodeId, token: u64, segs: &[Segment], data: &[f64]) {
        self.ctx.compute(self.ctx.machine().ga_op_overhead);
        self.request(
            target,
            &GaReq {
                op: Op::Put,
                token,
                alpha: 1.0,
                reply: (0, 0),
                inc: 0,
                segs: segs.to_vec(),
                data: data.to_vec(),
            },
        );
    }

    fn get(&self, target: NodeId, token: u64, segs: &[Segment]) -> Vec<f64> {
        self.ctx.compute(self.ctx.machine().ga_op_overhead);
        let reply = self.request_reply(
            target,
            &GaReq {
                op: Op::Get,
                token,
                alpha: 1.0,
                reply: (GA_REPLY_TAG as u64, 0),
                inc: 0,
                segs: segs.to_vec(),
                data: vec![],
            },
        );
        crate::reqwire::bytes_to_f64s(&reply)
    }

    fn acc(&self, target: NodeId, token: u64, segs: &[Segment], alpha: f64, data: &[f64]) {
        self.ctx.compute(self.ctx.machine().ga_op_overhead);
        self.request(
            target,
            &GaReq {
                op: Op::Acc,
                token,
                alpha,
                reply: (0, 0),
                inc: 0,
                segs: segs.to_vec(),
                data: data.to_vec(),
            },
        );
    }

    fn read_inc(&self, target: NodeId, token: u64, off: usize, inc: i64) -> i64 {
        self.ctx.compute(self.ctx.machine().ga_op_overhead);
        let reply = self.request_reply(
            target,
            &GaReq {
                op: Op::ReadInc,
                token,
                alpha: 1.0,
                reply: (GA_REPLY_TAG as u64, 0),
                inc,
                segs: vec![Segment { off, len: 1 }],
                data: vec![],
            },
        );
        i64::from_le_bytes(reply.try_into().expect("8-byte read_inc reply"))
    }

    fn setup_mutexes(&self, _n: usize) {
        // Lock table grows on demand at each owner; nothing to exchange.
        self.ctx.barrier();
    }

    fn lock(&self, mutex: usize) {
        let owner = mutex % self.tasks();
        let grant = self.request_reply(
            owner,
            &GaReq {
                op: Op::Lock,
                token: 0,
                alpha: 1.0,
                reply: (GA_REPLY_TAG as u64, 0),
                inc: mutex as i64,
                segs: vec![],
                data: vec![],
            },
        );
        assert_eq!(&grant, b"grant");
    }

    fn unlock(&self, mutex: usize) {
        let owner = mutex % self.tasks();
        self.request(
            owner,
            &GaReq {
                op: Op::Unlock,
                token: 0,
                alpha: 1.0,
                reply: (0, 0),
                inc: mutex as i64,
                segs: vec![],
                data: vec![],
            },
        );
    }

    fn fence(&self, target: NodeId) {
        let reply = self.request_reply(
            target,
            &GaReq {
                op: Op::Flush,
                token: 0,
                alpha: 1.0,
                reply: (GA_REPLY_TAG as u64, 0),
                inc: 0,
                segs: vec![],
                data: vec![],
            },
        );
        assert_eq!(&reply, b"flushed");
    }

    fn stats(&self) -> &GaStats {
        &self.shared.stats
    }
}
