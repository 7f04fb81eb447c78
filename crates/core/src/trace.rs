//! Instrumentation for the partitioning algorithms: per-iteration traces.
//!
//! Traces serve two purposes: regenerating the paper's illustrative figures
//! (the bisection walk of Fig. 8, the solution-space shrinkage of
//! Figs. 10–12) and substantiating the complexity claims (`O(p·log n)` vs
//! `O(p²·log n)`) in the ablation benchmarks.

/// One iteration of a line-searching partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration number, starting at 1.
    pub step: usize,
    /// Slope of the lower line bounding the current region (smaller slope =
    /// larger intersection abscissas = larger total).
    pub lower_slope: f64,
    /// Slope of the upper line bounding the current region.
    pub upper_slope: f64,
    /// Slope of the trial line drawn this iteration.
    pub trial_slope: f64,
    /// Sum of intersection abscissas of the trial line with all graphs.
    pub total_elements: f64,
    /// Whether the trial total undershot the target (`true` ⇒ the optimum
    /// lies in the lower-slope region).
    pub undershoot: bool,
}

/// Full trace of one partitioning run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The iterations in order.
    pub iterations: Vec<IterationRecord>,
    /// Whether the run was seeded from a previous solution's slope (the
    /// warm-start path). `false` for cold solves — including the combined
    /// algorithm's cold solve seeded from its own single-number line — and
    /// for warm requests that fell back to the cold bracket construction.
    pub warm_bracket: bool,
    /// How many times the bracket was widened before the search began:
    /// the expansions of the initial lines (paper Fig. 18), or the probes
    /// past a seeded ε-bracket's missed side, each at an extrapolated
    /// root or, when that is unusable, at the squared offset (see
    /// [`crate::partition::bracket_from_slope`]). Each widening costs one
    /// `O(p)` intersection sweep that [`Trace::iterations`] does not
    /// record; neither counts the two sweeps of the ε-bracket itself, so
    /// a seeded solve sweeps `2 + bracket_probes + steps()` times.
    pub bracket_probes: usize,
}

impl Trace {
    /// Number of bisection steps performed (bracket widenings excluded,
    /// see [`Trace::bracket_probes`]).
    pub fn steps(&self) -> usize {
        self.iterations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_steps() {
        let mut t = Trace::default();
        assert_eq!(t.steps(), 0);
        t.iterations.push(IterationRecord {
            step: 1,
            lower_slope: 0.1,
            upper_slope: 0.2,
            trial_slope: 0.15,
            total_elements: 100.0,
            undershoot: false,
        });
        assert_eq!(t.steps(), 1);
    }
}
