//! # fpm-bench — the reproduction harness
//!
//! One experiment per table and figure of the paper's evaluation, each
//! producing a [`Report`] that the `repro` binary prints and writes to
//! `results/<id>.csv`. The timing experiments record their wall times in
//! the same reports, and `bench_partition` also writes
//! `BENCH_partition.json`; serving is timed by the repository benchmark
//! (`benchmark/`), not here.
//!
//! | id | paper artifact | module |
//! |---|---|---|
//! | `table1` | Table 1 (4-machine specs) | [`experiments::tables`] |
//! | `table2` | Table 2 (12-machine specs + paging) | [`experiments::tables`] |
//! | `fig1` | speed curves, 3 apps × 4 machines | [`experiments::fig1`] |
//! | `fig2` | fluctuation bands | [`experiments::fig2`] |
//! | `fig3` | single-number mispartition | [`experiments::fig3`] |
//! | `fig4` | geometric proportionality at the optimum | [`experiments::fig46`] |
//! | `fig5` | admissible speed-function shapes | [`experiments::fig5`] |
//! | `fig6` | uniqueness/optimality | [`experiments::fig46`] |
//! | `fig8` | slope-bisection trace | [`experiments::fig8`] |
//! | `fig11` | solution-space bisection trace | [`experiments::fig11`] |
//! | `fig13` | polynomial-slope region | [`experiments::fig1315`] |
//! | `fig15` | combined-algorithm decisions | [`experiments::fig1315`] |
//! | `fig18` | initial line detection | [`experiments::fig18`] |
//! | `fig20` | piece-wise model building | [`experiments::fig20`] |
//! | `table3` | serial MM speed shape-invariance | [`experiments::table34`] |
//! | `table4` | serial LU speed shape-invariance | [`experiments::table34`] |
//! | `fig21` | partitioning cost vs n, p | [`experiments::fig21`] |
//! | `fig22a` | MM speedups | [`experiments::fig22`] |
//! | `fig22b` | LU speedups | [`experiments::fig22`] |
//! | `ablation_algorithms` | basic vs modified vs combined | [`experiments::ablations`] |
//! | `ablation_fine_tune` | fine-tuning on/off | [`experiments::ablations`] |
//! | `ablation_builder` | ε sweep of the model builder | [`experiments::ablations`] |
//! | `ext_comm` | communication-aware partitioning (future work §1) | [`experiments::extensions`] |
//! | `ext_contention` | contended-bus DES vs serialised model | [`experiments::extensions`] |
//! | `ext_two_param` | 2-D problem sizes / column strips (§3.1 sketch) | [`experiments::extensions`] |
//! | `ext_bounded` | per-processor memory caps (ref \[20\]) | [`experiments::extensions`] |
//! | `ext_secant` | regula-falsi line search ("ideal algorithm") | [`experiments::extensions`] |
//! | `ext_dynamic` | adaptive re-partitioning under load shifts | [`experiments::extensions`] |
//! | `bench_partition` | optimised vs seed paths (writes `BENCH_partition.json`) | [`experiments::bench_partition`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::Report;

/// Every experiment id known to the harness, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig11",
    "fig13",
    "fig15",
    "fig18",
    "fig20",
    "table3",
    "table4",
    "fig21",
    "fig22a",
    "fig22b",
    "ablation_algorithms",
    "ablation_fine_tune",
    "ablation_builder",
    "ext_comm",
    "ext_contention",
    "ext_two_param",
    "ext_bounded",
    "ext_secant",
    "ext_dynamic",
    "bench_partition",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str) -> Option<Report> {
    match id {
        "table1" => Some(experiments::tables::table1()),
        "table2" => Some(experiments::tables::table2()),
        "fig1" => Some(experiments::fig1::run()),
        "fig2" => Some(experiments::fig2::run()),
        "fig3" => Some(experiments::fig3::run()),
        "fig4" => Some(experiments::fig46::fig4()),
        "fig5" => Some(experiments::fig5::run()),
        "fig6" => Some(experiments::fig46::fig6()),
        "fig8" => Some(experiments::fig8::run()),
        "fig11" => Some(experiments::fig11::run()),
        "fig13" => Some(experiments::fig1315::fig13()),
        "fig15" => Some(experiments::fig1315::fig15()),
        "fig18" => Some(experiments::fig18::run()),
        "fig20" => Some(experiments::fig20::run()),
        "table3" => Some(experiments::table34::table3()),
        "table4" => Some(experiments::table34::table4()),
        "fig21" => Some(experiments::fig21::run()),
        "fig22a" => Some(experiments::fig22::fig22a()),
        "fig22b" => Some(experiments::fig22::fig22b()),
        "ablation_algorithms" => Some(experiments::ablations::algorithms()),
        "ablation_fine_tune" => Some(experiments::ablations::fine_tune()),
        "ablation_builder" => Some(experiments::ablations::builder()),
        "ext_comm" => Some(experiments::extensions::comm()),
        "ext_contention" => Some(experiments::extensions::contention()),
        "ext_two_param" => Some(experiments::extensions::two_param()),
        "ext_bounded" => Some(experiments::extensions::bounded_exp()),
        "ext_secant" => Some(experiments::extensions::secant()),
        "ext_dynamic" => Some(experiments::extensions::dynamic()),
        "bench_partition" => Some(experiments::bench_partition::run()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiment_ids_resolve() {
        for id in ALL_EXPERIMENTS {
            // Only check dispatch for the cheap ones here; expensive ones
            // are covered by the repro binary run.
            if ["table1", "table2", "fig5"].contains(id) {
                assert!(run_experiment(id).is_some(), "{id}");
            }
        }
        assert!(run_experiment("nonsense").is_none());
    }
}
