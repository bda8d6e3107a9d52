//! `stream` and `stream_lossy`: 2 nodes, polling. Rank 0 sends 256 KiB
//! LAPI puts, each completed on `cmpl_cntr`, then (lossless `stream` only)
//! 256 KiB MPL sends, each answered by a 0-byte ack; with the default 4 KB
//! eager limit those take the rendezvous path. About 270 packets per
//! message, so the per-packet path dominates. `stream_lossy` runs the LAPI
//! half on a seeded fabric that drops 10% and duplicates 2% of packets on
//! every link, so the adapter's reliability protocol does most of the work.

use std::time::Instant;

use lapi::{LapiWorld, Mode};
use mpl::{MplMode, MplWorld};
use spsim::run_spmd_with;

use crate::common::{
    add_lapi, add_mpl, add_wire, fill_times, machine, merge_spans, mix, Checks, Fabric, NodeTimes,
    Round, Tracer,
};

/// Bytes per message: 256 KiB, ~270 packets, so the per-packet path still
/// dominates while a message's copies fit in a 2 MiB per-core L2. With
/// 1 MiB messages they spilled into a shared L3, and on a 2-vCPU VM host
/// MB/s swung by a quarter between runs.
pub const MSG: usize = 1 << 18;
/// Extra seeded bytes past one message: each message is a window of the
/// base pattern starting at a seeded offset below this.
pub const WINDOW_SLACK: usize = 1 << 16;
const TAG_DATA: i32 = 1;
const TAG_ACK: i32 = 2;
/// Paper anchors (Figure 2 asymptotes), MB/s.
const PAPER_LAPI_MB_S: f64 = 97.0;
const PAPER_MPI_MB_S: f64 = 98.0;

fn window(base: &[u8], seed: u64, k: usize) -> &[u8] {
    let off = (mix(seed ^ 0x5EED ^ k as u64) as usize) % WINDOW_SLACK;
    &base[off..off + MSG]
}

#[derive(Default)]
struct NodeOut {
    op_us: Vec<f64>,
    /// Virtual seconds of the LAPI and MPL series at rank 0.
    vt_s: [f64; 2],
    checks: Checks,
}

/// One round of `msgs` LAPI messages (plus `msgs` MPL messages unless
/// `lossy`). `base` is `pattern(seed, MSG + WINDOW_SLACK)`.
pub fn round(seed: u64, msgs: usize, lossy: bool, base: &[u8], trace: bool) -> Round {
    let round_start = Instant::now();
    let mut r = Round::default();
    let cfg = machine(if lossy {
        Fabric::Lossy
    } else {
        Fabric::Lossless
    });
    let t = Instant::now();
    let lapis = LapiWorld::init_seeded(2, cfg.clone(), Mode::Polling, seed);
    let mpls: Vec<Option<_>> = if lossy {
        vec![None, None]
    } else {
        MplWorld::init_seeded(2, cfg, MplMode::Polling, seed)
            .into_iter()
            .map(Some)
            .collect()
    };
    r.init_s = t.elapsed().as_secs_f64();
    let lstats: Vec<_> = lapis
        .iter()
        .map(|c| (c.stats().clone(), c.wire_stats().clone()))
        .collect();
    let mstats: Vec<_> = mpls
        .iter()
        .flatten()
        .map(|c| (c.stats().clone(), c.wire_stats().clone()))
        .collect();
    let ctxs: Vec<_> = lapis.into_iter().zip(mpls).collect();

    let spawn_call = Instant::now();
    let outs = run_spmd_with(ctxs, |rank, (lapi, mpl)| {
        let mut times = NodeTimes::new();
        let mut tr = Tracer::new(trace, round_start, rank as u32);
        let mut out = NodeOut::default();
        // Every put lands in one reused slot, as in the paper's bandwidth
        // loop; the slot must end up holding the last message's pattern.
        let slot = lapi.alloc(MSG);
        let tgt = lapi.new_counter();
        let slot_addrs = lapi.address_init(slot);
        let tgt_remotes = lapi.counter_init(&tgt);
        let cmpl = lapi.new_counter();
        let put = |k: usize| {
            lapi.put(
                1,
                slot_addrs[1],
                window(base, seed, k),
                Some(tgt_remotes[1]),
                None,
                Some(&cmpl),
            )
        };

        // Set-up ends with one untimed message per series, so the first
        // timed op does not pay for lazily built flows and buffers.
        if rank == 0 {
            let res = put(msgs);
            if res.is_ok() {
                lapi.waitcntr(&cmpl, 1);
            }
            out.checks
                .check(res.is_ok(), || format!("priming put: {res:?}"));
        } else {
            lapi.waitcntr(&tgt, 1);
        }
        if let Some(m) = &mpl {
            if rank == 0 {
                m.send(1, TAG_DATA, window(base, seed, msgs));
                m.recv(Some(1), Some(TAG_ACK));
            } else {
                let (d, _) = m.recv(Some(0), Some(TAG_DATA));
                m.send(0, TAG_ACK, &[]);
                out.checks.check(d[..] == *window(base, seed, msgs), || {
                    "priming MPL message differs from its seeded pattern".into()
                });
            }
        }

        let v0 = lapi.barrier();
        if let Some(m) = &mpl {
            m.barrier();
        }
        times.start = Instant::now();
        if rank == 0 {
            for k in 0..msgs {
                let op = tr.op();
                let t0 = Instant::now();
                let outer = tr.begin("lapi.put_256kb", op, None);
                let res = tr.span("lapi.put", op, outer, || put(k));
                if res.is_ok() {
                    tr.span("lapi.waitcntr", op, outer, || lapi.waitcntr(&cmpl, 1));
                }
                tr.end(outer);
                out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                out.checks
                    .check(res.is_ok(), || format!("put {k}: {res:?}"));
            }
            out.vt_s[0] = lapi.now().since(v0).as_secs();
        } else {
            // Polling target: one wait covers the whole series.
            lapi.waitcntr(&tgt, msgs as i64);
        }
        if let Some(m) = &mpl {
            let v1 = m.barrier();
            if rank == 0 {
                for k in 0..msgs {
                    let op = tr.op();
                    let t0 = Instant::now();
                    let outer = tr.begin("mpl.send_256kb", op, None);
                    tr.span("mpl.send", op, outer, || {
                        m.send(1, TAG_DATA, window(base, seed, k))
                    });
                    let (ack, _) =
                        tr.span("mpl.recv", op, outer, || m.recv(Some(1), Some(TAG_ACK)));
                    tr.end(outer);
                    out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    out.checks.check(ack.is_empty(), || {
                        format!("ack {k} carried {} bytes", ack.len())
                    });
                }
                out.vt_s[1] = m.now().since(v1).as_secs();
            } else {
                for k in 0..msgs {
                    let (d, _) = m.recv(Some(0), Some(TAG_DATA));
                    m.send(0, TAG_ACK, &[]);
                    // Checked while the origin issues its next send, so the
                    // round keeps no more than one MPL message alive.
                    out.checks.check(d[..] == *window(base, seed, k), || {
                        format!("MPL message {k} differs from its seeded pattern")
                    });
                }
            }
        }
        times.end = Instant::now();

        if rank == 1 {
            let landed = lapi.mem_read(slot, MSG);
            out.checks
                .check(landed == window(base, seed, msgs - 1), || {
                    "LAPI target buffer differs from the last message's pattern".into()
                });
        }
        let fenced = lapi.gfence();
        out.checks
            .check(fenced.is_ok(), || format!("gfence: {fenced:?}"));
        if let Some(m) = &mpl {
            m.barrier();
        }
        drop((lapi, mpl));
        times.exited = Instant::now();
        (times, out, tr.spans)
    });
    let returned = Instant::now();

    let times: Vec<NodeTimes> = outs.iter().map(|o| o.0).collect();
    fill_times(&mut r, round_start, spawn_call, returned, &times);
    let mut outs = outs.into_iter();
    let (_, origin, spans0) = outs.next().expect("rank 0");
    let (_, target, spans1) = outs.next().expect("rank 1");
    r.checks = origin.checks;
    r.checks.merge(target.checks);
    let series = if lossy { 1 } else { 2 };
    r.ops = (msgs * series) as u64;
    r.payload_bytes = r.ops * MSG as u64;
    r.op_us = origin.op_us;

    let lapi_bytes = (msgs * MSG) as f64;
    let lapi_bw = lapi_bytes / 1e6 / origin.vt_s[0];
    r.layer
        .push(("lapi.put_256kb_vt_mb_per_s", lapi_bw, "vMB/s"));
    r.vt_err_pct = (lapi_bw / PAPER_LAPI_MB_S - 1.0).abs() * 100.0;
    if !lossy {
        let mpl_bw = lapi_bytes / 1e6 / origin.vt_s[1];
        r.layer
            .push(("mpl.send_256kb_vt_mb_per_s", mpl_bw, "vMB/s"));
        r.vt_err_pct = r
            .vt_err_pct
            .max((mpl_bw / PAPER_MPI_MB_S - 1.0).abs() * 100.0);
    }
    r.vt_mb_per_s = r.payload_bytes as f64 / 1e6 / (origin.vt_s[0] + origin.vt_s[1]);

    for (l, w) in &lstats {
        add_lapi(&mut r.counts, l);
        add_wire(&mut r.counts, w);
    }
    for (m, w) in &mstats {
        add_mpl(&mut r.counts, m);
        add_wire(&mut r.counts, w);
    }
    if lossy {
        // The fault injection must really be happening.
        let retx = r.counts["switch.retransmits"];
        let dups = r.counts["switch.dups_suppressed"];
        r.checks
            .check(retx > 0, || "no retransmissions on a lossy fabric".into());
        r.checks.check(dups > 0, || {
            "no duplicates suppressed on a lossy fabric".into()
        });
    }
    r.spans = merge_spans([spans0, spans1]);
    r.wall_s = round_start.elapsed().as_secs_f64();
    r
}
