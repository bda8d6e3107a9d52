//! `scf`: the §5.4 SCF pattern on GA over LAPI, interrupt mode. Each task
//! takes a ticket with `read_inc` from a single nxtval counter, `get`s an
//! 8×8 density block, charges its integrals with `compute`, and `acc`s the
//! contribution into the Fock matrix. The only workload where set-up,
//! memory, the M:N scheduler and GA dominate; the single ticket counter
//! drives many-to-one rmw traffic into one node's delivery queue.

use std::sync::Arc;
use std::time::Instant;

use ga::{Ga, GaBackend, GaConfig, GaKind, LapiGaBackend, Patch};
use lapi::{LapiWorld, Mode};
use spsim::{run_spmd_with, VDur};

use crate::common::{
    add_lapi, add_wire, fill_times, machine, merge_spans, mix, Checks, Fabric, NodeTimes, Round,
    Tracer,
};

/// Block edge of one ticket's patch.
pub const BLOCK: usize = 8;
/// Virtual cost of one block's "integrals".
const COMPUTE_US: u64 = 100;
/// Fock contribution of a density element `d`: `ALPHA·d + BETA`.
const ALPHA: f64 = 0.5;
const BETA: f64 = 0.25;
/// Paper anchor (§5.4): GA single-element get latency over LAPI, virtual µs.
const PAPER_GA_GET_US: f64 = 94.2;
/// Uncontended single-element gets rank 0 makes during set-up.
const PROBES: usize = 64;

/// Seeded density element in [-0.5, 0.5).
fn density(seed: u64, i: usize, j: usize) -> f64 {
    let h = mix(seed ^ ((i as u64) << 32 | j as u64));
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Patch elements in GA's column-major order.
fn col_major(p: &Patch, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    (p.lo.1..=p.hi.1)
        .flat_map(|j| (p.lo.0..=p.hi.0).map(move |i| (i, j)))
        .map(|(i, j)| f(i, j))
        .collect()
}

struct NodeOut {
    times: NodeTimes,
    tickets: Vec<usize>,
    terminal: usize,
    dot: f64,
    op_us: Vec<f64>,
    get_vt_us: Vec<f64>,
    probe_vt_us: Vec<f64>,
    vt_span: (f64, f64),
    create_s: f64,
    checks: Checks,
    spans: Vec<crate::common::Span>,
}

/// One round on `nodes` tasks with `grid × grid` tickets.
pub fn round(seed: u64, nodes: usize, grid: usize, trace: bool) -> Round {
    let round_start = Instant::now();
    let mut r = Round::default();
    let n = grid * BLOCK;
    let tickets = grid * grid;
    let t = Instant::now();
    let ctxs = LapiWorld::init_seeded(nodes, machine(Fabric::Lossless), Mode::Interrupt, seed);
    r.init_s = t.elapsed().as_secs_f64();
    let lstats: Vec<_> = ctxs
        .iter()
        .map(|c| (c.stats().clone(), c.wire_stats().clone()))
        .collect();
    let t = Instant::now();
    let gas: Vec<Ga> = ctxs
        .into_iter()
        .map(|c| Ga::new(LapiGaBackend::new(c, GaConfig::default()) as Arc<dyn GaBackend>))
        .collect();
    let backend_init_s = t.elapsed().as_secs_f64();
    let gstats: Vec<_> = gas.iter().map(|g| g.stats().clone()).collect();

    let spawn_call = Instant::now();
    let outs = run_spmd_with(gas, |rank, ga| {
        let mut times = NodeTimes::new();
        let mut tr = Tracer::new(trace, round_start, rank as u32);
        let mut checks = Checks::default();
        let setup = tr.op();
        let t = Instant::now();
        let (dens, fock, nxtval) = tr.span("ga.create", setup, None, || {
            (
                ga.create("density", n, n, GaKind::Double),
                ga.create("fock", n, n, GaKind::Double),
                ga.create("nxtval", 1, 1, GaKind::Int),
            )
        });
        let create_s = t.elapsed().as_secs_f64();
        if let Some(b) = dens.local_patch() {
            dens.put(b, &col_major(&b, |i, j| density(seed, i, j)));
        }
        fock.fill(0.0);
        nxtval.fill_int(0);
        tr.span("ga.sync", setup, None, || ga.sync());
        // The §5.4 anchor: while every other task waits in the barrier,
        // rank 0 times single-element gets from rank 1's block.
        let mut probe_vt_us = Vec::new();
        if rank == 0 {
            let b = dens.distribution(1).expect("rank 1 owns a block");
            for k in 0..PROBES {
                let at = (b.lo.0 + k % b.rows(), b.lo.1);
                let v0 = ga.now();
                let got = dens.get(Patch::new(at, at));
                probe_vt_us.push(ga.now().since(v0).as_us());
                checks.check(got == [density(seed, at.0, at.1)], || {
                    format!("probe get {k} returned {got:?}")
                });
            }
        }
        tr.span("ga.sync", setup, None, || ga.sync());

        times.start = Instant::now();
        let v_start = ga.now().as_us();
        let mut op_us = Vec::new();
        let mut get_vt_us = Vec::new();
        let mut mine = Vec::new();
        let terminal = loop {
            let op = tr.op();
            let task = tr.begin("scf.task", op, None);
            let t0 = Instant::now();
            let ticket = tr.span("ga.read_inc", op, task, || nxtval.read_inc(0, 0, 1)) as usize;
            op_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if ticket >= tickets {
                tr.end(task);
                break ticket;
            }
            mine.push(ticket);
            let (bi, bj) = (ticket / grid, ticket % grid);
            let p = Patch::new(
                (bi * BLOCK, bj * BLOCK),
                (bi * BLOCK + BLOCK - 1, bj * BLOCK + BLOCK - 1),
            );
            let (t0, v0) = (Instant::now(), ga.now());
            let d = tr.span("ga.get", op, task, || dens.get(p));
            op_us.push(t0.elapsed().as_secs_f64() * 1e6);
            get_vt_us.push(ga.now().since(v0).as_us());
            checks.check(d == col_major(&p, |i, j| density(seed, i, j)), || {
                format!("get of ticket {ticket} returned the wrong density block")
            });
            ga.compute(VDur::from_us(COMPUTE_US));
            let contrib: Vec<f64> = d.iter().map(|v| ALPHA * v + BETA).collect();
            let t0 = Instant::now();
            tr.span("ga.acc", op, task, || fock.acc(p, 1.0, &contrib));
            op_us.push(t0.elapsed().as_secs_f64() * 1e6);
            tr.end(task);
        };
        times.end = Instant::now();
        let v_end = ga.now().as_us();
        let done = tr.op();
        tr.span("ga.sync", done, None, || ga.sync());
        let dot = fock.dot(&dens);
        drop(ga);
        times.exited = Instant::now();
        NodeOut {
            times,
            tickets: mine,
            terminal,
            dot,
            op_us,
            get_vt_us,
            probe_vt_us,
            vt_span: (v_start, v_end),
            create_s,
            checks,
            spans: tr.spans,
        }
    });
    let returned = Instant::now();

    let times: Vec<NodeTimes> = outs.iter().map(|o| o.times).collect();
    fill_times(&mut r, round_start, spawn_call, returned, &times);

    // Every ticket handed out exactly once; each task saw one terminal
    // value past the end, all distinct.
    let mut handed: Vec<usize> = outs
        .iter()
        .flat_map(|o| o.tickets.iter().copied())
        .collect();
    handed.sort_unstable();
    r.checks
        .check(handed == (0..tickets).collect::<Vec<_>>(), || {
            format!("{} tickets handed out for {tickets}", handed.len())
        });
    let mut terminals: Vec<usize> = outs.iter().map(|o| o.terminal).collect();
    terminals.sort_unstable();
    r.checks.check(
        terminals == (tickets..tickets + nodes).collect::<Vec<_>>(),
        || "terminal read_inc values are not one per task".into(),
    );
    // fock = ALPHA·density + BETA, so fock·density has a closed form.
    let (mut s1, mut s2) = (0.0, 0.0);
    for j in 0..n {
        for i in 0..n {
            let d = density(seed, i, j);
            s1 += d;
            s2 += d * d;
        }
    }
    let want = ALPHA * s2 + BETA * s1;
    for o in &outs {
        let rel = ((o.dot - want) / want).abs();
        r.checks.check(rel <= 1e-9, || {
            format!("fock·density {} != {want} (rel {rel:e})", o.dot)
        });
    }

    let reads = (tickets + nodes) as u64;
    r.ops = reads + 2 * tickets as u64;
    r.payload_bytes = reads * 8 + 2 * (tickets * BLOCK * BLOCK * 8) as u64;
    let v_start = outs
        .iter()
        .map(|o| o.vt_span.0)
        .fold(f64::INFINITY, f64::min);
    let v_end = outs.iter().map(|o| o.vt_span.1).fold(0.0, f64::max);
    let makespan_us = v_end - v_start;
    r.vt_mb_per_s = r.payload_bytes as f64 / makespan_us;
    let mut get_vt: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.get_vt_us.iter().copied())
        .collect();
    get_vt.sort_by(f64::total_cmp);
    // The mean smooths the probe's schedule-dependent quantization.
    let probe_us = outs[0].probe_vt_us.iter().sum::<f64>() / PROBES as f64;
    r.vt_err_pct = (probe_us / PAPER_GA_GET_US - 1.0).abs() * 100.0;
    r.layer.push(("ga.get_1elem_vt_us", probe_us, "vus"));
    r.layer.push(("scf.makespan_vt_us", makespan_us, "vus"));
    r.layer.push((
        "ga.get_vt_us_p50",
        crate::common::percentile(&get_vt, 0.5),
        "vus",
    ));
    r.layer.push(("ga.backend_init_s", backend_init_s, "s"));
    r.layer.push((
        "ga.create_s",
        outs.iter().map(|o| o.create_s).fold(0.0, f64::max),
        "s",
    ));
    r.layer.push((
        "ga.tickets_per_rank_max",
        outs.iter().map(|o| o.tickets.len()).max().unwrap_or(0) as f64,
        "count",
    ));

    for (l, w) in &lstats {
        add_lapi(&mut r.counts, l);
        add_wire(&mut r.counts, w);
    }
    for g in &gstats {
        *r.counts.entry("ga.am_requests").or_default() += g.am_requests.get();
        *r.counts.entry("ga.direct_rmc").or_default() += g.direct_rmc.get();
        *r.counts.entry("ga.pool_exhausted").or_default() += g.pool_exhausted.get();
        *r.counts.entry("ga.read_incs").or_default() += g.read_incs.get();
    }
    let mut checks = Checks::default();
    let mut op_us = Vec::new();
    let mut spans = Vec::new();
    for o in outs {
        checks.merge(o.checks);
        op_us.extend(o.op_us);
        spans.push(o.spans);
    }
    r.checks.merge(checks);
    r.op_us = op_us;
    r.spans = merge_spans(spans);
    r.wall_s = round_start.elapsed().as_secs_f64();
    r
}
