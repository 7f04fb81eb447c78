//! Figs. 13 and 15: where each algorithm wins, and what the combined
//! strategy chooses.
//!
//! Fig. 13 — for most real-life problem sizes the optimum lies in a region
//! of polynomial slopes where the basic algorithm is cheapest; Fig. 15 —
//! the combined algorithm picks basic in that regime and the modified
//! algorithm otherwise.

use fpm_core::partition::{
    BisectionPartitioner, CombinedChoice, CombinedPartitioner, ModifiedPartitioner, Partitioner,
};
use fpm_core::speed::AnalyticSpeed;

use crate::report::Report;

/// A cluster with polynomial-slope graphs (basic-friendly).
fn polynomial_cluster() -> Vec<AnalyticSpeed> {
    vec![
        AnalyticSpeed::decreasing(50.0, 2e7, 2.0),
        AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
        AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
        AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
    ]
}

/// A cluster with exponential tails (the basic algorithm's worst case).
fn exponential_cluster() -> Vec<AnalyticSpeed> {
    vec![AnalyticSpeed::exp_tail(100.0, 40.0), AnalyticSpeed::exp_tail(100.0, 100.0)]
}

/// Fig. 13: step counts of the two algorithms across regimes.
pub fn fig13() -> Report {
    let mut r = Report::new(
        "fig13",
        "Basic vs modified step counts by slope regime (paper Fig. 13)",
        &["cluster", "n", "basic steps", "modified steps"],
    );
    for &n in &[1_000_000u64, 100_000_000] {
        let funcs = polynomial_cluster();
        let basic = BisectionPartitioner::new().partition(n, &funcs).unwrap();
        let modified = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
        r.push_row(vec![
            "polynomial slopes".into(),
            n.to_string(),
            basic.trace.steps().to_string(),
            modified.trace.steps().to_string(),
        ]);
    }
    for &n in &[5_000u64, 15_000, 45_000, 90_000] {
        let funcs = exponential_cluster();
        let basic = BisectionPartitioner::new()
            .partition(n, &funcs)
            .map(|rep| rep.trace.steps().to_string())
            .unwrap_or_else(|_| "diverged".into());
        let modified = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
        r.push_row(vec![
            "exponential tails".into(),
            n.to_string(),
            basic,
            modified.trace.steps().to_string(),
        ]);
    }
    r.note("expected: comparable small step counts on polynomial slopes; basic's steps grow LINEARLY with n on exponential tails (θ_opt = O(e^-n)) while modified stays O(p·log n)");
    r
}

/// Fig. 15: the combined strategy's choices.
pub fn fig15() -> Report {
    let mut r = Report::new(
        "fig15",
        "Combined algorithm decision per problem (paper Fig. 15)",
        &["cluster", "n", "choice", "total steps"],
    );
    let cases: Vec<(&str, Vec<AnalyticSpeed>, u64)> = vec![
        ("polynomial slopes", polynomial_cluster(), 20_000_000),
        ("polynomial slopes", polynomial_cluster(), 200_000_000),
        ("exponential tails", exponential_cluster(), 20_000),
        (
            "flat constants",
            vec![AnalyticSpeed::constant(100.0), AnalyticSpeed::constant(50.0)],
            1_000_000,
        ),
    ];
    for (label, funcs, n) in cases {
        let (report, choice) =
            CombinedPartitioner::new().partition_explain(n, &funcs).unwrap();
        let choice_str = match choice {
            CombinedChoice::Basic => "basic",
            CombinedChoice::Modified => "modified",
            CombinedChoice::FallbackToModified => "fallback→modified",
        };
        r.push_row(vec![
            label.into(),
            n.to_string(),
            choice_str.into(),
            report.trace.steps().to_string(),
        ]);
    }
    r.note("expected: basic for upper-half/polynomial problems; modified for flat or exponential-tail graphs");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_basic_steps_grow_linearly_on_exp_tails_modified_does_not() {
        let r = fig13();
        let exp_rows: Vec<_> =
            r.rows.iter().filter(|row| row[0] == "exponential tails").collect();
        assert_eq!(exp_rows.len(), 4);
        let basic: Vec<f64> =
            exp_rows.iter().map(|row| row[2].parse().unwrap_or(f64::INFINITY)).collect();
        let modified: Vec<f64> =
            exp_rows.iter().map(|row| row[3].parse().unwrap()).collect();
        // n grows 18× across the sweep: basic step counts grow roughly
        // linearly with n while modified stays flat (logarithmic).
        assert!(
            basic[3] > 8.0 * basic[0],
            "basic steps should scale with n: {basic:?}"
        );
        assert!(
            modified[3] <= modified[0] + 64.0,
            "modified steps stay logarithmic: {modified:?}"
        );
        // At the largest n the gap is decisive.
        assert!(basic[3] > 10.0 * modified[3], "basic {basic:?} vs modified {modified:?}");
    }

    #[test]
    fn fig15_choices_match_regimes() {
        let r = fig15();
        let by_label = |label: &str| -> Vec<String> {
            r.rows
                .iter()
                .filter(|row| row[0] == label)
                .map(|row| row[2].clone())
                .collect()
        };
        for c in by_label("polynomial slopes") {
            assert_eq!(c, "basic");
        }
        for c in by_label("exponential tails") {
            assert_ne!(c, "basic");
        }
        for c in by_label("flat constants") {
            assert_eq!(c, "modified");
        }
    }
}
