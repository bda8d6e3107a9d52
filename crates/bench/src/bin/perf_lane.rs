//! The committed wall-clock performance lane.
//!
//! ```text
//! perf_lane                 run the full lane, print JSON to stdout
//! perf_lane --out PATH      …and also write the JSON to PATH
//! perf_lane --check PATH    re-measure queue_rings_pps, adapter_rings_pps
//!                           and scale_n1024_pps and exit nonzero if any of
//!                           them regressed >20% against the committed
//!                           baseline at PATH
//! ```
//!
//! `--check` gates only those three keys; the rest of the lane (the heap
//! path, the sweeps, the other scaling points and `sched_handoff_ns`) is
//! recorded, not gated.

use lapi_bench::perf;
use spsim::DeliveryPath;

/// Fraction of the committed baseline a fresh measurement must reach
/// (1 − the 20% regression budget).
const FLOOR: f64 = 0.8;

fn check(path: &str) -> i32 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let base = perf::parse_flat_json(&text);
    let mut failed = false;
    let checks = [
        (
            "queue_rings_pps",
            perf::measure_queue_pps(DeliveryPath::Rings),
        ),
        (
            "adapter_rings_pps",
            perf::measure_adapter_pps(DeliveryPath::Rings),
        ),
        ("scale_n1024_pps", perf::measure_scale_point(1024).pps),
    ];
    for (key, measured) in checks {
        let Some(&committed) = base.get(key) else {
            println!("{key}: no committed value in {path} — skipping");
            continue;
        };
        let floor = committed * FLOOR;
        let verdict = if measured >= floor { "ok" } else { "REGRESSED" };
        println!(
            "{key}: measured {measured:.0} vs committed {committed:.0} \
             (floor {floor:.0}) — {verdict}"
        );
        if measured < floor {
            failed = true;
        }
    }
    if failed {
        eprintln!("perf_lane: packets/sec regressed >20% against {path}");
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_10.json");
            std::process::exit(check(path));
        }
        Some("--out") => {
            let path = args.get(1).expect("--out needs a path");
            let json = perf::to_json(&perf::run_full());
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            print!("{json}");
        }
        None => {
            print!("{}", perf::to_json(&perf::run_full()));
        }
        Some(other) => {
            eprintln!("perf_lane: unknown argument {other} (try --out PATH or --check PATH)");
            std::process::exit(2);
        }
    }
}
