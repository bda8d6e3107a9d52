//! `pingpong`: 2 nodes, polling, lossless. Each iteration of the closed
//! loop runs four 8-byte LAPI operations — `put_wait`, `get_wait`, a
//! FetchAndAdd `rmw`, and an `amsend` whose header handler answers with
//! `reply_put` (Table 2's round-trip method) — then one MPL 8-byte
//! send/recv round trip. The fixed per-operation software path dominates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lapi::{HdrOutcome, LapiWorld, Mode, RmwOp};
use mpl::{MplMode, MplWorld};
use spsim::run_spmd_with;

use crate::common::{
    add_lapi, add_mpl, add_wire, fill_times, machine, merge_spans, mix, Checks, Fabric, NodeTimes,
    Round, Tracer,
};

const AM_ECHO: u32 = 7;
const TAG_PING: i32 = 1;
const TAG_PONG: i32 = 2;
/// Paper anchors (Table 2, polling round trips), virtual µs.
const PAPER_LAPI_RTT_US: f64 = 60.0;
const PAPER_MPI_RTT_US: f64 = 86.0;
/// Operations per iteration: four LAPI ops and one MPL round trip.
pub const OPS_PER_ITER: u64 = 5;

/// Rank 0's results.
#[derive(Default)]
struct Origin {
    op_us: Vec<f64>,
    /// Virtual µs summed per op kind: put, get, rmw, am rtt, mpl rtt.
    vt_sum: [f64; 5],
    checks: Checks,
}

/// One round of `iters` iterations.
pub fn round(seed: u64, iters: usize, trace: bool) -> Round {
    let round_start = Instant::now();
    let mut r = Round::default();
    let cfg = machine(Fabric::Lossless);
    let t = Instant::now();
    let lapis = LapiWorld::init_seeded(2, cfg.clone(), Mode::Polling, seed);
    let mpls = MplWorld::init_seeded(2, cfg, MplMode::Polling, seed);
    r.init_s = t.elapsed().as_secs_f64();
    let lstats: Vec<_> = lapis
        .iter()
        .map(|c| (c.stats().clone(), c.wire_stats().clone()))
        .collect();
    let mstats: Vec<_> = mpls
        .iter()
        .map(|c| (c.stats().clone(), c.wire_stats().clone()))
        .collect();
    let echoes = Arc::new(AtomicU64::new(0));
    let ctxs: Vec<_> = lapis.into_iter().zip(mpls).collect();

    let spawn_call = Instant::now();
    let outs = run_spmd_with(ctxs, |rank, (lapi, mpl)| {
        let mut times = NodeTimes::new();
        let mut tr = Tracer::new(trace, round_start, rank as u32);
        let buf = lapi.alloc(8);
        let cell = lapi.alloc(8);
        let echo = lapi.alloc(8);
        let reply = lapi.new_counter();
        let served = lapi.new_counter();
        let bufs = lapi.address_init(buf);
        let cells = lapi.address_init(cell);
        let echo_addrs = lapi.address_init(echo);
        let reply_remotes = lapi.counter_init(&reply);
        let served_remotes = lapi.counter_init(&served);
        if rank == 1 {
            let (back, back_cntr, echoes) = (echo_addrs[0], reply_remotes[0], Arc::clone(&echoes));
            lapi.register_handler(AM_ECHO, move |hctx, info| {
                echoes.fetch_add(1, Ordering::Relaxed);
                hctx.reply_put(info.src, back, info.uhdr, Some(back_cntr), None, None)
                    .expect("reply_put from the header handler");
                HdrOutcome::none()
            });
        }
        lapi.barrier();
        mpl.barrier();
        times.start = Instant::now();
        let mut origin = Origin::default();
        if rank == 0 {
            let o = &mut origin;
            for k in 0..iters {
                let v = mix(seed ^ (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)).to_le_bytes();

                let op = tr.op();
                let (t0, v0) = (Instant::now(), lapi.now());
                let res = tr.span("lapi.put_wait", op, None, || lapi.put_wait(1, bufs[1], &v));
                o.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                o.vt_sum[0] += lapi.now().since(v0).as_us();
                o.checks
                    .check(res.is_ok(), || format!("put_wait {k}: {res:?}"));

                let op = tr.op();
                let (t0, v0) = (Instant::now(), lapi.now());
                let got = tr.span("lapi.get_wait", op, None, || lapi.get_wait(1, bufs[1], 8));
                o.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                o.vt_sum[1] += lapi.now().since(v0).as_us();
                let ok = matches!(&got, Ok(b) if b[..] == v[..]);
                o.checks.check(ok, || {
                    format!("get_wait {k} returned {got:?}, last put {v:?}")
                });

                let op = tr.op();
                let (t0, v0) = (Instant::now(), lapi.now());
                let prev = tr.span("lapi.rmw", op, None, || {
                    lapi.rmw(1, RmwOp::FetchAndAdd, cells[1], 1, 0)
                        .and_then(|f| f.wait_result())
                });
                o.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                o.vt_sum[2] += lapi.now().since(v0).as_us();
                let ok = matches!(prev, Ok(p) if p == k as u64);
                o.checks.check(ok, || format!("rmw {k} returned {prev:?}"));

                let op = tr.op();
                let (t0, v0) = (Instant::now(), lapi.now());
                let outer = tr.begin("lapi.am_rtt", op, None);
                let sent = tr.span("lapi.amsend", op, outer, || {
                    lapi.amsend(1, AM_ECHO, &v, &[], Some(served_remotes[1]), None, None)
                });
                if sent.is_ok() {
                    tr.span("lapi.waitcntr", op, outer, || lapi.waitcntr(&reply, 1));
                }
                tr.end(outer);
                o.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                o.vt_sum[3] += lapi.now().since(v0).as_us();
                let ok = sent.is_ok() && lapi.mem_read(echo, 8) == v;
                o.checks.check(ok, || format!("am echo {k}: {sent:?}"));

                let op = tr.op();
                let (t0, v0) = (Instant::now(), mpl.now());
                let outer = tr.begin("mpl.rtt", op, None);
                tr.span("mpl.send", op, outer, || mpl.send(1, TAG_PING, &v));
                let (back, _) =
                    tr.span("mpl.recv", op, outer, || mpl.recv(Some(1), Some(TAG_PONG)));
                tr.end(outer);
                o.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                o.vt_sum[4] += mpl.now().since(v0).as_us();
                o.checks
                    .check(back == v, || format!("mpl echo {k}: {back:?} != {v:?}"));
            }
        } else {
            for _ in 0..iters {
                // Polling mode: this wait drives the target's LAPI progress
                // for the put, get, rmw and the AM.
                lapi.waitcntr(&served, 1);
                let (d, st) = mpl.recv(Some(0), Some(TAG_PING));
                mpl.send(st.src, TAG_PONG, &d);
            }
        }
        times.end = Instant::now();
        let fenced = lapi.gfence();
        mpl.barrier();
        origin
            .checks
            .check(fenced.is_ok(), || format!("gfence: {fenced:?}"));
        drop((lapi, mpl));
        times.exited = Instant::now();
        (times, origin, tr.spans)
    });
    let returned = Instant::now();

    let times: Vec<NodeTimes> = outs.iter().map(|o| o.0).collect();
    fill_times(&mut r, round_start, spawn_call, returned, &times);
    let mut outs = outs.into_iter();
    let (_, origin, spans0) = outs.next().expect("rank 0");
    let (_, target, spans1) = outs.next().expect("rank 1");
    r.checks = origin.checks;
    r.checks.merge(target.checks);
    let n_echo = echoes.load(Ordering::Relaxed);
    r.checks.check(n_echo == iters as u64, || {
        format!("{n_echo} AM echoes for {iters} amsends")
    });
    r.ops = iters as u64 * OPS_PER_ITER;
    r.payload_bytes = r.ops * 8;
    r.op_us = origin.op_us;
    let n = iters.max(1) as f64;
    let [put, get, rmw, am, rtt] = origin.vt_sum.map(|s| s / n);
    r.vt_err_pct =
        ((am / PAPER_LAPI_RTT_US - 1.0).abs()).max((rtt / PAPER_MPI_RTT_US - 1.0).abs()) * 100.0;
    r.vt_mb_per_s = r.payload_bytes as f64 / origin.vt_sum.iter().sum::<f64>();
    r.layer = vec![
        ("lapi.put_wait_vt_us", put, "vus"),
        ("lapi.get_wait_vt_us", get, "vus"),
        ("lapi.rmw_vt_us", rmw, "vus"),
        ("lapi.am_rtt_vt_us", am, "vus"),
        ("mpl.rtt_vt_us", rtt, "vus"),
    ];
    for (l, w) in &lstats {
        add_lapi(&mut r.counts, l);
        add_wire(&mut r.counts, w);
    }
    for (m, w) in &mstats {
        add_mpl(&mut r.counts, m);
        add_wire(&mut r.counts, w);
    }
    r.spans = merge_spans([spans0, spans1]);
    r.wall_s = round_start.elapsed().as_secs_f64();
    r
}
