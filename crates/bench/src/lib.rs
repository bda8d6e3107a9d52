//! # lapi-bench — the experiment harness reproducing the paper's evaluation
//!
//! One module per paper artifact; each returns a structured
//! [`report::Report`] that the binaries print (`all_experiments` runs them
//! all). Absolute numbers come from the
//! calibrated cost model in `spsim::MachineConfig`; *shapes* — who wins,
//! by what factor, where the protocol crossovers fall — come from actually
//! executing the protocols over the simulated switch.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 2 (latency) | [`experiments::table2`] | `table2` |
//! | §4 pipeline latency | [`experiments::pipeline`] | `pipeline_latency` |
//! | Figure 2 (bandwidth) | [`experiments::fig2`] | `fig2` |
//! | §5.4 GA element latency | [`experiments::ga_latency`] | `ga_latency` |
//! | Figure 3 (GA put bw) | [`experiments::fig3`] | `fig3` |
//! | Figure 4 (GA get bw) | [`experiments::fig4`] | `fig4` |
//! | §5.4 app improvement | [`experiments::app_speedup`] | `app_speedup` |
//! | design ablations (§2.1/§4/§6) | [`experiments::ablation`] | `ablation` |

pub mod experiments;
pub mod perf;
pub mod report;
pub mod worlds;

/// An experiment entry point.
type ExperimentFn = fn(bool) -> report::Report;

/// Run every experiment in paper order, printing reports as they finish.
/// `quick` shrinks repetition counts (`all_experiments --quick`).
pub fn run_all(quick: bool) -> Vec<report::Report> {
    let runs: Vec<(&str, ExperimentFn)> = vec![
        ("table2", experiments::table2::run),
        ("pipeline_latency", experiments::pipeline::run),
        ("fig2", experiments::fig2::run),
        ("ga_latency", experiments::ga_latency::run),
        ("fig3", experiments::fig3::run),
        ("fig4", experiments::fig4::run),
        ("app_speedup", experiments::app_speedup::run),
        ("ablation", experiments::ablation::run),
    ];
    runs.into_iter()
        .map(|(_, f)| {
            let r = f(quick);
            println!("{r}");
            r
        })
        .collect()
}
