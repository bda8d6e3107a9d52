//! The repository benchmark: four closed-loop workloads run in-process on
//! the simulated SP, measured end to end (host time, plus virtual-time
//! fidelity to the paper) and, in a separate traced run, per layer.
//!
//! ```text
//! perfbench --workload <pingpong|stream|stream_lossy|scf> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--spans <file>]
//! ```
//!
//! A run repeats whole rounds — set-up, a fixed amount of closed-loop
//! work, teardown — until `--seconds` have passed, then reports medians
//! over rounds. Every round of a run uses the same seed, so virtual-time
//! results and layer counters of the deterministic workloads repeat
//! exactly. Report lines start with `#`; the last line is one JSON object.

mod common;
mod pingpong;
mod scf;
mod stream;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use common::{median, pattern, percentile, Round, Span};

/// Workload sizes of one round.
struct Size {
    pingpong_iters: usize,
    stream_msgs: usize,
    scf_nodes: usize,
    scf_grid: usize,
    /// Rounds measured after the warm-up, at least.
    measured_rounds_min: usize,
}

/// Rounds run before measuring. The worker pool, fiber stacks and glibc's
/// adaptive mmap threshold settle over the first two: on `scf` both run
/// about 20% slower than the rest.
const WARMUP_ROUNDS: usize = 2;

const FULL: Size = Size {
    pingpong_iters: 2000,
    stream_msgs: 256,
    scf_nodes: 256,
    scf_grid: 128,
    measured_rounds_min: 3,
};

const TINY: Size = Size {
    pingpong_iters: 20,
    stream_msgs: 2,
    scf_nodes: 16,
    scf_grid: 8,
    measured_rounds_min: 2,
};

const WORKLOADS: [&str; 4] = ["pingpong", "stream", "stream_lossy", "scf"];

/// Spans written to `--spans` at most; all of them feed the metrics.
const SPANS_WRITTEN_MAX: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--spans" => a.spans = Some(val()?),
            "--tiny" => a.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn run_round(a: &Args, size: &Size, base: &[u8], trace: bool) -> Round {
    match a.workload.as_str() {
        "pingpong" => pingpong::round(a.seed, size.pingpong_iters, trace),
        "stream" => stream::round(a.seed, size.stream_msgs, false, base, trace),
        "stream_lossy" => stream::round(a.seed, size.stream_msgs, true, base, trace),
        _ => scf::round(a.seed, size.scf_nodes, size.scf_grid, trace),
    }
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

fn rate(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r) / r.timed_s).collect::<Vec<_>>())
}

/// Op latency percentiles `(p50, p99, ops)`: each chunk of consecutive
/// rounds holding at least `CHUNK_OPS` ops (so p99 has ten samples beyond
/// it) gives one p50 and one p99; the medians over chunks are reported,
/// so a burst of host noise moves one chunk, not the result.
fn op_percentiles(rounds: &[&Round]) -> (f64, f64, usize) {
    const CHUNK_OPS: usize = 1000;
    let (mut p50s, mut p99s, mut chunk, mut total) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for (i, r) in rounds.iter().enumerate() {
        chunk.extend_from_slice(&r.op_us);
        total += r.op_us.len();
        if chunk.len() >= CHUNK_OPS || (i + 1 == rounds.len() && p50s.is_empty()) {
            chunk.sort_by(f64::total_cmp);
            p50s.push(percentile(&chunk, 0.50));
            p99s.push(percentile(&chunk, 0.99));
            chunk.clear();
        }
    }
    (median(&p50s), median(&p99s), total)
}

fn end_to_end(rounds: &[&Round], rss_mb: f64) -> Vec<Metric> {
    let n = rounds.len();
    let (p50, _, ops) = op_percentiles(rounds);
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    vec![
        m("ops_per_s", rate(rounds, |r| r.ops as f64), "1/s", n),
        m(
            "mb_per_s",
            rate(rounds, |r| r.payload_bytes as f64 / 1e6),
            "MB/s",
            n,
        ),
        m("op_wall_us_p50", p50, "us", ops),
        m("setup_s", med(&|r| r.setup_s), "s", n),
        m("wall_s", med(&|r| r.wall_s), "s", n),
        m("peak_rss_mb", rss_mb, "MB", 1),
        m("vt_err_pct", med(&|r| r.vt_err_pct), "%", n),
        m("vt_mb_per_s", med(&|r| r.vt_mb_per_s), "vMB/s", n),
    ]
}

/// Host µs spans aggregated by call name.
fn span_us(rounds: &[&Round]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in rounds.iter().flat_map(|r| r.spans.iter()) {
        by.entry(s.name).or_default().push(s.us());
    }
    for v in by.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    by
}

/// Per-layer metrics; calls a workload does not make read 0.
fn per_layer(traced: &[&Round], untraced: &[&Round]) -> Vec<Metric> {
    let n = traced.len();
    let med = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let spans = span_us(traced);
    let pct = |name: &str, q: f64, scale: f64| {
        spans
            .get(name)
            .map_or((0.0, 0), |v| (percentile(v, q) * scale, v.len()))
    };
    let layer = |name: &str| med(&|r| r.layer.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1));
    let count = |name: &str| med(&|r| r.counts.get(name).copied().unwrap_or(0) as f64);
    let per_op =
        |name: &str| med(&|r| r.counts.get(name).copied().unwrap_or(0) as f64 / r.ops as f64);

    let mut out = vec![
        m("runtime.spawn_s", med(&|r| r.spawn_s), "s", n),
        m("runtime.join_s", med(&|r| r.join_s), "s", n),
        m("lapi.init_s", med(&|r| r.init_s), "s", n),
        m("ga.backend_init_s", layer("ga.backend_init_s"), "s", n),
        m("ga.create_s", layer("ga.create_s"), "s", n),
    ];
    // Host time of each traced call, in the unit its name carries.
    let timed = [
        ("lapi.put_wait", "us"),
        ("lapi.get_wait", "us"),
        ("lapi.rmw", "us"),
        ("lapi.am_rtt", "us"),
        ("mpl.rtt", "us"),
        ("lapi.put_256kb", "us"),
        ("mpl.send_256kb", "us"),
        ("ga.read_inc", "us"),
        ("ga.get", "us"),
        ("ga.acc", "us"),
        ("ga.sync", "us"),
    ];
    for (span, unit) in timed {
        let scale = if unit == "ms" { 1e-3 } else { 1.0 };
        let (v50, k) = pct(span, 0.50, scale);
        let (v99, _) = pct(span, 0.99, scale);
        out.push(m(format!("{span}_{unit}_p50"), v50, unit, k));
        out.push(m(format!("{span}_{unit}_p99"), v99, unit, k));
    }
    // Ungated: on the stream workloads this tail is dominated by host
    // preemption (see README), so it is not an end-to-end metric.
    let (_, p99, ops) = op_percentiles(untraced);
    out.push(m("op_wall_us_p99", p99, "us", ops));
    for name in [
        "lapi.put_wait_vt_us",
        "lapi.get_wait_vt_us",
        "lapi.rmw_vt_us",
        "lapi.am_rtt_vt_us",
        "mpl.rtt_vt_us",
        "ga.get_1elem_vt_us",
        "ga.get_vt_us_p50",
        "scf.makespan_vt_us",
    ] {
        out.push(m(name, layer(name), "vus", n));
    }
    for name in ["lapi.put_256kb_vt_mb_per_s", "mpl.send_256kb_vt_mb_per_s"] {
        out.push(m(name, layer(name), "vMB/s", n));
    }
    for (name, counter) in [
        ("lapi.packets_dispatched_per_op", "lapi.packets_dispatched"),
        ("lapi.hdr_handlers_per_op", "lapi.hdr_handlers"),
        ("lapi.done_sent_per_op", "lapi.done_sent"),
        ("lapi.interrupts_per_op", "lapi.interrupts"),
        ("lapi.early_am_data_per_op", "lapi.early_am_data"),
        ("mpl.eager_msgs_per_op", "mpl.eager_msgs"),
        ("mpl.rndv_msgs_per_op", "mpl.rndv_msgs"),
        ("mpl.unexpected_per_op", "mpl.unexpected"),
        ("switch.packets_per_op", "switch.packets_sent"),
        ("switch.retransmits_per_op", "switch.retransmits"),
        ("switch.acks_sent_per_op", "switch.acks_sent"),
        ("switch.dups_suppressed_per_op", "switch.dups_suppressed"),
        ("switch.timeouts_per_op", "switch.timeouts"),
        ("ga.am_requests_per_op", "ga.am_requests"),
        ("ga.direct_rmc_per_op", "ga.direct_rmc"),
        ("ga.pool_exhausted_per_op", "ga.pool_exhausted"),
        ("ga.read_incs_per_op", "ga.read_incs"),
    ] {
        out.push(m(name, per_op(counter), "1/op", n));
    }
    out.push(m(
        "switch.wire_bytes_per_payload_byte",
        med(&|r| r.counts["switch.bytes_sent"] as f64 / r.payload_bytes as f64),
        "B/B",
        n,
    ));
    out.push(m(
        "switch.host_ns_per_packet",
        med(&|r| r.timed_s * 1e9 / r.counts["switch.packets_sent"].max(1) as f64),
        "ns",
        n,
    ));
    let sent = count("switch.packets_sent");
    out.push(m(
        "switch.useful_packet_ratio",
        sent / (sent + count("switch.retransmits")).max(1.0),
        "ratio",
        n,
    ));
    out.push(m(
        "ga.tickets_per_rank_max",
        layer("ga.tickets_per_rank_max"),
        "count",
        n,
    ));
    // Tracing overhead: traced minus untraced rates.
    let ops = |rs: &[&Round]| rate(rs, |r| r.ops as f64);
    let mb = |rs: &[&Round]| rate(rs, |r| r.payload_bytes as f64 / 1e6);
    out.push(m(
        "trace.ops_per_s_delta",
        ops(traced) - ops(untraced),
        "1/s",
        n,
    ));
    out.push(m(
        "trace.mb_per_s_delta",
        mb(traced) - mb(untraced),
        "MB/s",
        n,
    ));
    out
}

fn spsim_env() -> String {
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SPSIM_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vars.sort();
    if vars.is_empty() {
        "(none)".into()
    } else {
        vars.join(" ")
    }
}

fn write_spans(path: &str, rounds: &[&Round]) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "round,rank,op,span,parent,name,start_ns,end_ns")?;
    let mut written = 0;
    'rounds: for (k, r) in rounds.iter().enumerate() {
        for (i, s) in r.spans.iter().enumerate() {
            if written == SPANS_WRITTEN_MAX {
                break 'rounds;
            }
            let Span {
                name,
                op,
                parent,
                rank,
                start_ns,
                end_ns,
            } = s;
            let parent = parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{k},{rank},{op},{i},{parent},{name},{start_ns},{end_ns}"
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, mt) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            mt.name, mt.value, mt.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let size = if a.tiny { &TINY } else { &FULL };
    // Pin the scheduler: the pooled M:N runtime on one worker per host
    // core, whatever SPSIM_SCHED / SPSIM_WORKERS say.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    spsim::set_sched_mode(Some(spsim::SchedMode::Pool));
    spsim::set_worker_cap(Some(nproc));
    let nodes = match a.workload.as_str() {
        "scf" => size.scf_nodes,
        _ => 2,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.tiny { "tiny" } else { "full" }
    );
    println!(
        "# host nproc={nproc} workers={} sched={:?} env: {}",
        nproc.min(nodes),
        spsim::sched_mode(),
        spsim_env()
    );

    let base = pattern(a.seed, stream::MSG + stream::WINDOW_SLACK);
    let t0 = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    // Peak memory of one workload instance, before later rounds add
    // allocator fragmentation.
    let mut rss_mb = 0.0;
    while rounds.len() < WARMUP_ROUNDS + size.measured_rounds_min
        || t0.elapsed().as_secs_f64() < a.seconds
    {
        // A traced run alternates untraced and traced measured rounds so
        // the tracing overhead is measured on the same process.
        let k = rounds.len();
        let traced = a.trace && k > WARMUP_ROUNDS && (k - WARMUP_ROUNDS) % 2 == 1;
        rounds.push((traced, run_round(&a, size, &base, traced)));
        if rounds.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }
    // The warm-up rounds' checks count, their timings do not.
    let measured = &rounds[WARMUP_ROUNDS..];
    let untraced: Vec<&Round> = measured.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<&Round> = measured.iter().filter(|r| r.0).map(|r| &r.1).collect();

    let attempted: u64 = rounds.iter().map(|r| r.1.checks.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.1.checks.failed).sum();
    for note in rounds.iter().flat_map(|r| r.1.checks.notes.iter()).take(8) {
        println!("# FAILED {note}");
    }
    // Deterministic workloads must give identical counters every round.
    let counts0 = &rounds[0].1.counts;
    let repeat = rounds.iter().all(|r| &r.1.counts == counts0);
    let counts: Vec<String> = counts0.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# counts per round: {}", counts.join(" "));
    println!(
        "# counts identical across {} rounds: {repeat}{}",
        rounds.len(),
        if a.workload == "scf" {
            " (scf is not deterministic on more than one worker)"
        } else {
            ""
        }
    );
    let vt: Vec<String> = rounds[0]
        .1
        .layer
        .iter()
        .map(|(k, v, u)| format!("{k}={v} {u}"))
        .collect();
    println!("# round 0 layer values: {}", vt.join(" "));
    if a.workload == "scf" {
        // Known defect: scf's virtual makespan depends on the host
        // schedule; reported, not gated.
        let mut ms: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.1.layer.iter().find(|l| l.0 == "scf.makespan_vt_us"))
            .map(|l| l.1)
            .collect();
        ms.sort_by(f64::total_cmp);
        let (lo, hi) = (ms[0], ms[ms.len() - 1]);
        println!(
            "# ungated: scf virtual makespan over {} rounds min={lo} median={} max={hi} vus spread={:.3}%",
            ms.len(),
            median(&ms),
            (hi - lo) / median(&ms) * 100.0
        );
    }
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0}", r.1.ops as f64 / r.1.timed_s))
        .collect();
    println!("# ops_per_s by round: {}", per_round.join(" "));
    println!(
        "# checks attempted={attempted} failed={failed} fail_ratio={}",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if a.trace {
        if let Some(path) = &a.spans {
            match write_spans(path, &traced) {
                Ok(k) => {
                    let total: usize = traced.iter().map(|r| r.spans.len()).sum();
                    println!("# spans: {total} recorded, {k} written to {path}");
                }
                Err(e) => println!("# spans: could not write {path}: {e}"),
            }
        }
        per_layer(&traced, &untraced)
    } else {
        let (_, p99, ops) = op_percentiles(&untraced);
        println!("# ungated: op_wall_us_p99 {p99:.4} us n={ops}");
        end_to_end(&untraced, rss_mb)
    };
    for mt in &metrics {
        println!(
            "# {:<36} {:>16.4} {:<6} n={}",
            mt.name, mt.value, mt.unit, mt.samples
        );
    }
    let correct = failed == 0 && repeat_ok(&a.workload, repeat);
    println!("{}", json_line(correct, attempted, failed, &metrics));
    std::io::stdout().flush().ok();
    if !correct {
        std::process::exit(1);
    }
}

/// Counter repetition is a correctness condition on the deterministic
/// workloads only.
fn repeat_ok(workload: &str, repeat: bool) -> bool {
    repeat || workload == "scf"
}
