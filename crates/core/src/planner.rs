//! The planner: one canonical algorithm catalog and erased dispatch for
//! every production partitioner.
//!
//! Historically each front end (CLI, daemon, conformance harness, bench
//! experiments) kept its own `Algorithm` enum and `match`-on-variant
//! dispatch block, and the four copies drifted — different accepted
//! spellings, different subsets of the algorithm family. This module is
//! the single source of truth they all consume:
//!
//! * [`AlgorithmId`] — the canonical identifier with stable string names,
//!   one round-trip-tested [`AlgorithmId::parse`]/`Display` pair, and the
//!   parameterized `single@SIZE` spelling for the baseline. Its
//!   [`solve`](AlgorithmId::solve) and
//!   [`resolve_from`](AlgorithmId::resolve_from) run the named partitioner
//!   over `&dyn CostFunction` (every speed function is a cost function
//!   through the blanket time-domain adapter). Because the forwarding impl
//!   passes *every* trait method through (including the closed-form
//!   intersection overrides), the generic [`Partitioner`] performs the
//!   identical sequence of floating-point operations on erased functions:
//!   erased results are **bit-exact** against direct generic calls;
//! * [`registry`] — the static catalog of every production partitioner
//!   with metadata (aliases, complexity class, paper reference, exactness,
//!   iteration-bound class and [`CostClass`] capability), including the
//!   `secant`, `bounded` and `contiguous` partitioners that previously
//!   had no front-end spelling and the nonlinear-cost `sort-sample` and
//!   `query` workload entries.
//!
//! Adding an algorithm means adding one registry entry (and one arm in
//! the dispatch behind [`AlgorithmId::solve`]); the CLI listing, the
//! daemon's wire protocol, the conformance sweep and the bench labels pick
//! it up automatically.
//!
//! ```
//! use fpm_core::cost::CostFunction;
//! use fpm_core::planner::AlgorithmId;
//! use fpm_core::speed::AnalyticSpeed;
//!
//! let funcs = [AnalyticSpeed::constant(100.0), AnalyticSpeed::constant(50.0)];
//! let refs: Vec<&dyn CostFunction> = funcs.iter().map(|f| f as _).collect();
//! let id: AlgorithmId = "combined".parse().unwrap();
//! let report = id.solve(300, &refs).unwrap();
//! assert_eq!(report.distribution.total(), 300);
//! ```

use crate::cost::CostFunction;
use crate::error::{Error, Result};
use crate::partition::{
    BisectionPartitioner, BoundedPartitioner, CombinedPartitioner, ContiguousPartitioner,
    Distribution, ModifiedPartitioner, PartitionReport, Partitioner, QueryPartitioner,
    SecantPartitioner, SingleNumberPartitioner, SortSamplePartitioner,
};

/// The canonical identifier of a production partitioning algorithm.
///
/// String form (via `Display` and [`AlgorithmId::parse`]) is the wire and
/// CLI spelling; the two functions round-trip exactly, including the
/// parameterized single-number baseline (`single@SIZE`, where `SIZE` is
/// rendered as Rust's shortest-round-trip `f64` and parses back to the
/// same bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmId {
    /// The combined algorithm (paper Fig. 15) — the default.
    Combined,
    /// The basic slope-bisection algorithm (paper Figs. 7–8).
    Basic,
    /// The modified solution-space bisection (paper Figs. 10–12).
    Modified,
    /// Regula falsi with Illinois damping in log-slope space.
    Secant,
    /// The water-filling bounded solver with non-binding caps.
    Bounded,
    /// Contiguous (well-ordered) partitioning of `n` unit-weight items.
    Contiguous,
    /// Heterogeneous sample-sort: balances `x·log₂ x` comparison work
    /// over the cluster's base model.
    SortSample,
    /// Superlinear query/join workloads: balances `x^(1+γ)` work with
    /// the registry's default exponent.
    Query,
    /// The single-number baseline, sampled at the given reference size.
    SingleAt(f64),
}

/// The parse error for an unrecognised algorithm name: a static message
/// that enumerates the valid canonical spellings (tested against the
/// registry so it cannot go stale).
const UNKNOWN_ALGORITHM: Error = Error::InvalidParameter(
    "unknown algorithm: expected one of \
     combined|basic|modified|secant|bounded|contiguous|sort-sample|query|single@SIZE \
     (or an alias; run `fpm algorithms` for the catalog)",
);

impl AlgorithmId {
    /// Parses a canonical name, a registry alias, or `single@SIZE`
    /// (`single-number@SIZE` is accepted as the alias spelling).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for unknown names, and for `single@`
    /// sizes that are not positive finite numbers.
    pub fn parse(text: &str) -> Result<Self> {
        if let Some(size) = text
            .strip_prefix("single@")
            .or_else(|| text.strip_prefix("single-number@"))
        {
            let size: f64 = size
                .parse()
                .map_err(|_| Error::InvalidParameter("unparsable single@ size"))?;
            if !(size.is_finite() && size > 0.0) {
                return Err(Error::InvalidParameter(
                    "single@ size must be positive and finite",
                ));
            }
            return Ok(AlgorithmId::SingleAt(size));
        }
        for info in registry() {
            if !info.parameterized
                && (info.name == text || info.aliases.contains(&text))
            {
                return Ok(info.id);
            }
        }
        Err(UNKNOWN_ALGORITHM)
    }

    /// The canonical family name (`"single"` for any `single@SIZE`).
    pub fn family(&self) -> &'static str {
        match self {
            AlgorithmId::Combined => "combined",
            AlgorithmId::Basic => "basic",
            AlgorithmId::Modified => "modified",
            AlgorithmId::Secant => "secant",
            AlgorithmId::Bounded => "bounded",
            AlgorithmId::Contiguous => "contiguous",
            AlgorithmId::SortSample => "sort-sample",
            AlgorithmId::Query => "query",
            AlgorithmId::SingleAt(_) => "single",
        }
    }

    /// The registry entry describing this algorithm.
    pub fn info(&self) -> &'static AlgorithmInfo {
        let family = self.family();
        registry()
            .iter()
            .find(|i| i.name == family)
            .expect("every AlgorithmId variant has a registry entry")
    }

    /// A collision-free cache-key tag: a stable variant index plus the
    /// reference size's raw bits for the single-number baseline.
    ///
    /// Derived from the canonical id, so aliases of the same algorithm
    /// share cache entries. The first four tags predate the registry and
    /// must stay stable (they key the daemon's plan cache).
    pub fn key_tag(&self) -> (u8, u64) {
        match self {
            AlgorithmId::Combined => (0, 0),
            AlgorithmId::Basic => (1, 0),
            AlgorithmId::Modified => (2, 0),
            AlgorithmId::SingleAt(size) => (3, size.to_bits()),
            AlgorithmId::Secant => (4, 0),
            AlgorithmId::Bounded => (5, 0),
            AlgorithmId::Contiguous => (6, 0),
            AlgorithmId::SortSample => (7, 0),
            AlgorithmId::Query => (8, 0),
        }
    }

    /// Resolves and runs the partitioner on erased cost functions.
    ///
    /// Bit-exact against calling the concrete [`Partitioner`] directly
    /// with the same functions (see the module docs).
    pub fn solve(&self, n: u64, funcs: &[&dyn CostFunction]) -> Result<PartitionReport> {
        self.dispatch(None, n, funcs)
    }

    /// Resolves and warm-starts the partitioner from a previous solution's
    /// per-processor counts (see [`Partitioner::resolve_from`]).
    ///
    /// Bit-identical to [`AlgorithmId::solve`] on the same `(n, funcs)`;
    /// only the trace differs. Algorithms without a warm path fall through
    /// to their cold solve.
    pub fn resolve_from(
        &self,
        prev_counts: &[u64],
        n: u64,
        funcs: &[&dyn CostFunction],
    ) -> Result<PartitionReport> {
        self.dispatch(Some(prev_counts), n, funcs)
    }

    /// Runs the partitioner behind this id, with its default
    /// configuration, cold or warm-started from the counts `prev`. This
    /// `match` is the **only** algorithm dispatch block in the workspace;
    /// every consumer goes through it.
    fn dispatch(
        &self,
        prev: Option<&[u64]>,
        n: u64,
        funcs: &[&dyn CostFunction],
    ) -> Result<PartitionReport> {
        fn run<P: Partitioner>(
            partitioner: P,
            prev: Option<&[u64]>,
            n: u64,
            funcs: &[&dyn CostFunction],
        ) -> Result<PartitionReport> {
            match prev {
                None => partitioner.partition(n, funcs),
                Some(counts) => {
                    partitioner.resolve_from(&Distribution::new(counts.to_vec()), n, funcs)
                }
            }
        }
        match *self {
            AlgorithmId::Combined => run(CombinedPartitioner::new(), prev, n, funcs),
            AlgorithmId::Basic => run(BisectionPartitioner::new(), prev, n, funcs),
            AlgorithmId::Modified => run(ModifiedPartitioner::new(), prev, n, funcs),
            AlgorithmId::Secant => run(SecantPartitioner::new(), prev, n, funcs),
            AlgorithmId::Bounded => run(BoundedPartitioner, prev, n, funcs),
            AlgorithmId::Contiguous => run(ContiguousPartitioner, prev, n, funcs),
            AlgorithmId::SortSample => run(SortSamplePartitioner::new(), prev, n, funcs),
            AlgorithmId::Query => run(QueryPartitioner::new(), prev, n, funcs),
            AlgorithmId::SingleAt(size) => {
                run(SingleNumberPartitioner::at_size(size), prev, n, funcs)
            }
        }
    }
}

impl std::fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgorithmId::SingleAt(size) => write!(f, "single@{size}"),
            other => f.write_str(other.family()),
        }
    }
}

impl std::str::FromStr for AlgorithmId {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        AlgorithmId::parse(s)
    }
}

/// Iteration-bound class of a traced algorithm, from the paper's §2
/// complexity analysis. The conformance harness maps this onto its
/// concrete step envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceBound {
    /// `O(log n)` search iterations: the slope searches (basic bisection,
    /// secant).
    SlopeSearch,
    /// `O(p·log n)` iterations: the solution-space searches (modified,
    /// combined).
    SolutionSpace,
}

/// Cost-model class of a registry entry: the shape of the per-machine
/// cost the entry equalises. Front ends show this as the capability
/// column of `fpm algorithms`, and the daemon uses it to suggest only
/// cost-capable entries when a request carries a nonlinear model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Linear per-element cost: the paper's model, `time(x) = x/s(x)`.
    Linear,
    /// Comparison-sort cost: `time(x) = (x/s(x))·log₂ x`.
    SortNLogN,
    /// Superlinear query/join cost: `time(x) = (x/s(x))·x^γ`.
    Superlinear,
}

impl CostClass {
    /// Human-readable label for catalog listings.
    pub fn label(&self) -> &'static str {
        match self {
            CostClass::Linear => "linear",
            CostClass::SortNLogN => "n-log-n",
            CostClass::Superlinear => "superlinear",
        }
    }

    /// Whether the entry solves a nonlinear per-machine cost model.
    pub fn nonlinear(&self) -> bool {
        !matches!(self, CostClass::Linear)
    }
}

/// Catalog metadata of one production partitioner.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmInfo {
    /// Canonical (lowercase, stable) name — the wire and CLI spelling.
    pub name: &'static str,
    /// Accepted alternative spellings; they parse to the same id and
    /// share plan-cache entries.
    pub aliases: &'static [&'static str],
    /// One-line description.
    pub summary: &'static str,
    /// Complexity class, human-readable.
    pub complexity: &'static str,
    /// Where the paper (or its extensions) defines the algorithm.
    pub paper: &'static str,
    /// Whether the algorithm lands on the §2 optimum (and is therefore
    /// differentially checked against the oracle at tight tolerance). The
    /// single-number baseline is deliberately *not* exact: it is the model
    /// the paper argues against.
    pub exact: bool,
    /// True for the single-number baseline, which the conformance harness
    /// checks under relaxed rules (must conserve and must not beat the
    /// oracle, but is expected to be slower).
    pub baseline: bool,
    /// True when the string form carries a parameter (`single@SIZE`).
    pub parameterized: bool,
    /// Iteration-bound class of the recorded trace, when the paper claims
    /// one.
    pub bound: Option<TraceBound>,
    /// Cost-model class the entry solves over (the `fpm algorithms`
    /// capability column).
    pub cost: CostClass,
    /// A template id; for parameterized entries the payload is a
    /// placeholder replaced by [`AlgorithmInfo::id_with`].
    id: AlgorithmId,
    /// A spelling guaranteed to parse — what smoke tests and examples
    /// should use (`single@500000` for the parameterized baseline).
    pub example: &'static str,
}

impl AlgorithmInfo {
    /// The id of this entry; parameterized entries take `single_size` as
    /// their parameter, all others ignore it.
    pub fn id_with(&self, single_size: f64) -> AlgorithmId {
        if self.parameterized {
            AlgorithmId::SingleAt(single_size)
        } else {
            self.id
        }
    }
}

/// The reference size used by the `single` registry entry's example
/// spelling.
pub const SINGLE_EXAMPLE_SIZE: f64 = 500_000.0;

static REGISTRY: [AlgorithmInfo; 9] = [
    AlgorithmInfo {
        name: "combined",
        aliases: &["hybrid", "default"],
        summary: "hybrid of slope bisection and solution-space bisection (the default)",
        complexity: "adaptive; O(p^2 log n) guaranteed",
        paper: "IPDPS 2004 Fig. 15",
        exact: true,
        baseline: false,
        parameterized: false,
        bound: Some(TraceBound::SolutionSpace),
        cost: CostClass::Linear,
        id: AlgorithmId::Combined,
        example: "combined",
    },
    AlgorithmInfo {
        name: "basic",
        aliases: &["bisection"],
        summary: "slope bisection between two origin lines",
        complexity: "best O(p log n), worst O(p n)",
        paper: "IPDPS 2004 Figs. 7-8",
        exact: true,
        baseline: false,
        parameterized: false,
        bound: Some(TraceBound::SlopeSearch),
        cost: CostClass::Linear,
        id: AlgorithmId::Basic,
        example: "basic",
    },
    AlgorithmInfo {
        name: "modified",
        aliases: &["solution-space"],
        summary: "bisection of the discrete space of solutions",
        complexity: "O(p^2 log n) guaranteed",
        paper: "IPDPS 2004 Figs. 10-12",
        exact: true,
        baseline: false,
        parameterized: false,
        bound: Some(TraceBound::SolutionSpace),
        cost: CostClass::Linear,
        id: AlgorithmId::Modified,
        example: "modified",
    },
    AlgorithmInfo {
        name: "secant",
        aliases: &["regula-falsi"],
        summary: "regula falsi (Illinois) on the slope residual, in log-slope space",
        complexity: "superlinear in practice, never worse than bisection",
        paper: "towards the paper's closing 'ideal algorithm' challenge",
        exact: true,
        baseline: false,
        parameterized: false,
        bound: Some(TraceBound::SlopeSearch),
        cost: CostClass::Linear,
        id: AlgorithmId::Secant,
        example: "secant",
    },
    AlgorithmInfo {
        name: "bounded",
        aliases: &["water-filling"],
        summary: "water-filling solver for per-processor caps, run with non-binding caps",
        complexity: "O(p log n) slope bisection over capped intersections",
        paper: "paper Section 1 / reference [20]",
        exact: true,
        baseline: false,
        parameterized: false,
        bound: None,
        cost: CostClass::Linear,
        id: AlgorithmId::Bounded,
        example: "bounded",
    },
    AlgorithmInfo {
        name: "contiguous",
        aliases: &["well-ordered"],
        summary: "optimal contiguous partition of n unit-weight items (makespan bisection)",
        complexity: "O(p log(1/eps)) makespan bisection",
        paper: "reference [20] taxonomy (well-ordered arrays)",
        exact: true,
        baseline: false,
        parameterized: false,
        bound: None,
        cost: CostClass::Linear,
        id: AlgorithmId::Contiguous,
        example: "contiguous",
    },
    AlgorithmInfo {
        name: "sort-sample",
        aliases: &["sort"],
        summary: "heterogeneous sample-sort: balances x*log2(x) comparison work",
        complexity: "combined solver over the sort cost transform",
        paper: "cost-model extension (time-domain solver stack)",
        exact: false,
        baseline: false,
        parameterized: false,
        bound: Some(TraceBound::SolutionSpace),
        cost: CostClass::SortNLogN,
        id: AlgorithmId::SortSample,
        example: "sort-sample",
    },
    AlgorithmInfo {
        name: "query",
        aliases: &["join"],
        summary: "query/join workloads: balances superlinear x^(1+g) work (g = 1/2)",
        complexity: "combined solver over the query cost transform",
        paper: "cost-model extension (time-domain solver stack)",
        exact: false,
        baseline: false,
        parameterized: false,
        bound: Some(TraceBound::SolutionSpace),
        cost: CostClass::Superlinear,
        id: AlgorithmId::Query,
        example: "query",
    },
    AlgorithmInfo {
        name: "single",
        aliases: &["single-number"],
        summary: "classical constant-speed baseline sampled at SIZE (the model the paper argues against)",
        complexity: "O(p log p)",
        paper: "baseline, paper refs [5]-[7]",
        exact: false,
        baseline: true,
        parameterized: true,
        bound: None,
        cost: CostClass::Linear,
        id: AlgorithmId::SingleAt(SINGLE_EXAMPLE_SIZE),
        example: "single@500000",
    },
];

/// The static catalog of every production partitioner. Order is the
/// presentation order (`fpm algorithms`, conformance reports): the
/// default first, then the geometric family, the extensions, and the
/// baseline last.
pub fn registry() -> &'static [AlgorithmInfo] {
    &REGISTRY
}

/// Erases a homogeneous slice of cost functions (speed functions erase
/// through the blanket adapter) for [`AlgorithmId::solve`] and
/// [`AlgorithmId::resolve_from`].
pub fn erase<F: CostFunction>(funcs: &[F]) -> Vec<&dyn CostFunction> {
    funcs.iter().map(|f| f as _).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::oracle;
    use crate::speed::AnalyticSpeed;

    fn sample_cluster() -> Vec<AnalyticSpeed> {
        vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::constant(80.0),
        ]
    }

    #[test]
    fn canonical_names_round_trip_through_parse_and_display() {
        for info in registry() {
            let id = AlgorithmId::parse(info.example).unwrap();
            assert_eq!(id.to_string(), info.example, "{}", info.name);
            assert_eq!(AlgorithmId::parse(&id.to_string()).unwrap(), id);
        }
    }

    #[test]
    fn single_sizes_round_trip_bit_exactly() {
        for size in [1.0, 5e5, 123_456.5, 0.1, 1e-300, 9.87654321e15] {
            let id = AlgorithmId::SingleAt(size);
            let text = id.to_string();
            let back = AlgorithmId::parse(&text).unwrap();
            let AlgorithmId::SingleAt(parsed) = back else { panic!("{text}") };
            assert_eq!(parsed.to_bits(), size.to_bits(), "{text}");
            // Second round trip is a fixed point.
            assert_eq!(back.to_string(), text);
        }
        // The alias prefix parses to the same id.
        assert_eq!(
            AlgorithmId::parse("single-number@5e5").unwrap(),
            AlgorithmId::SingleAt(5e5)
        );
    }

    #[test]
    fn rejects_malformed_spellings() {
        for bad in ["", "magic", "single@", "single@-3", "single@nan", "single@inf",
                    "Combined", "BASIC", "single@0"]
        {
            assert!(AlgorithmId::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn unknown_name_error_lists_every_registry_name() {
        let msg = AlgorithmId::parse("magic").unwrap_err().to_string();
        for info in registry() {
            assert!(msg.contains(info.name), "help misses {:?}: {msg}", info.name);
        }
    }

    #[test]
    fn registry_names_and_aliases_are_unique_and_case_stable() {
        let mut seen = std::collections::HashSet::new();
        for info in registry() {
            assert_eq!(info.name, info.name.to_ascii_lowercase(), "case-stable");
            assert!(seen.insert(info.name), "duplicate name {}", info.name);
            for alias in info.aliases {
                assert_eq!(*alias, alias.to_ascii_lowercase());
                assert!(seen.insert(*alias), "alias {alias} collides");
                // Aliases resolve to the entry's own id.
                if !info.parameterized {
                    assert_eq!(AlgorithmId::parse(alias).unwrap(), info.id_with(1.0));
                }
            }
        }
    }

    #[test]
    fn key_tags_are_collision_free_and_alias_shared() {
        let ids = [
            AlgorithmId::Combined,
            AlgorithmId::Basic,
            AlgorithmId::Modified,
            AlgorithmId::Secant,
            AlgorithmId::Bounded,
            AlgorithmId::Contiguous,
            AlgorithmId::SortSample,
            AlgorithmId::Query,
            AlgorithmId::SingleAt(5e5),
        ];
        let mut tags = std::collections::HashSet::new();
        for id in ids {
            assert!(tags.insert(id.key_tag()), "tag collision at {id}");
        }
        // Distinct single sizes get distinct tags.
        assert_ne!(
            AlgorithmId::SingleAt(1.0).key_tag(),
            AlgorithmId::SingleAt(2.0).key_tag()
        );
        // The pre-registry tags are frozen: they key persisted plan caches.
        assert_eq!(AlgorithmId::Combined.key_tag(), (0, 0));
        assert_eq!(AlgorithmId::Basic.key_tag(), (1, 0));
        assert_eq!(AlgorithmId::Modified.key_tag(), (2, 0));
        assert_eq!(AlgorithmId::SingleAt(5e5).key_tag(), (3, 5e5f64.to_bits()));
        // Aliases parse to the same id, hence the same cache key.
        assert_eq!(
            AlgorithmId::parse("hybrid").unwrap().key_tag(),
            AlgorithmId::parse("combined").unwrap().key_tag()
        );
    }

    #[test]
    fn every_id_has_an_info_and_every_info_solves() {
        for info in registry() {
            let id = info.id_with(5e5);
            assert_eq!(id.info().name, info.name);
            assert_eq!(id.family(), info.name);
            // The example spelling resolves to the same family.
            assert_eq!(
                AlgorithmId::parse(info.example).unwrap().family(),
                info.name
            );
            // And the entry solves a trivial problem.
            let funcs = sample_cluster();
            let refs = erase(&funcs);
            let report = id.solve(10_000, &refs).unwrap();
            assert_eq!(report.distribution.total(), 10_000, "{}", info.name);
        }
    }

    #[test]
    fn registry_stays_in_sync_with_partition_module_exports() {
        // Grep the partition module table for exported solver entry points
        // and require a registry mapping for each — adding a partitioner
        // without cataloguing it fails here.
        let module_table = include_str!("partition/mod.rs");
        let mapping: &[(&str, &str)] = &[
            ("BisectionPartitioner", "basic"),
            ("CombinedPartitioner", "combined"),
            ("ModifiedPartitioner", "modified"),
            ("SecantPartitioner", "secant"),
            ("SingleNumberPartitioner", "single"),
            ("BoundedPartitioner", "bounded"),
            ("ContiguousPartitioner", "contiguous"),
            ("SortSamplePartitioner", "sort-sample"),
            ("QueryPartitioner", "query"),
        ];
        let mut exported = Vec::new();
        let mut in_use = false;
        for line in module_table.lines() {
            if line.trim_start().starts_with("pub use") {
                in_use = true;
            }
            if in_use {
                for token in line.split(|c: char| !c.is_alphanumeric()) {
                    if token.ends_with("Partitioner") && token != "Partitioner" {
                        exported.push(token.to_owned());
                    }
                }
                if line.contains(';') {
                    in_use = false;
                }
            }
        }
        exported.sort();
        exported.dedup();
        let mut mapped: Vec<String> =
            mapping.iter().map(|(ty, _)| (*ty).to_owned()).collect();
        mapped.sort();
        assert_eq!(
            exported, mapped,
            "partition module exports and the registry mapping diverged"
        );
        for (_, name) in mapping {
            assert!(
                registry().iter().any(|i| i.name == *name),
                "exported partitioner has no registry entry: {name}"
            );
        }
    }

    #[test]
    fn erased_dispatch_is_bit_exact_against_direct_calls() {
        let funcs = sample_cluster();
        let refs = erase(&funcs);
        let n = 3_456_789;
        let pairs: Vec<(AlgorithmId, PartitionReport)> = vec![
            (AlgorithmId::Combined, CombinedPartitioner::new().partition(n, &funcs).unwrap()),
            (AlgorithmId::Basic, BisectionPartitioner::new().partition(n, &funcs).unwrap()),
            (AlgorithmId::Modified, ModifiedPartitioner::new().partition(n, &funcs).unwrap()),
            (AlgorithmId::Secant, SecantPartitioner::new().partition(n, &funcs).unwrap()),
            (AlgorithmId::Bounded, BoundedPartitioner.partition(n, &funcs).unwrap()),
            (AlgorithmId::Contiguous, ContiguousPartitioner.partition(n, &funcs).unwrap()),
            (
                AlgorithmId::SortSample,
                SortSamplePartitioner::new().partition(n, &funcs).unwrap(),
            ),
            (AlgorithmId::Query, QueryPartitioner::new().partition(n, &funcs).unwrap()),
            (
                AlgorithmId::SingleAt(5e5),
                SingleNumberPartitioner::at_size(5e5).partition(n, &funcs).unwrap(),
            ),
        ];
        for (id, direct) in pairs {
            let erased = id.solve(n, &refs).unwrap();
            assert_eq!(
                erased.distribution.counts(),
                direct.distribution.counts(),
                "{id}: counts diverge"
            );
            assert_eq!(
                erased.makespan.to_bits(),
                direct.makespan.to_bits(),
                "{id}: makespan not bit-identical"
            );
        }
    }

    #[test]
    fn warm_resolve_is_bit_exact_for_every_registry_entry() {
        // The warm-start contract across the whole catalog: for any donor
        // plan and any near-duplicate n, resolve_from must reproduce the
        // cold solve bit for bit (algorithms without a warm path fall
        // through to the cold solve, trivially satisfying this).
        let funcs = sample_cluster();
        let refs = erase(&funcs);
        let donor_n = 3_456_789u64;
        for info in registry() {
            let id = info.id_with(5e5);
            let donor = id.solve(donor_n, &refs).unwrap();
            for n in [donor_n, donor_n + 1, donor_n - 3000, donor_n + 3456] {
                let cold = id.solve(n, &refs).unwrap();
                let warm = id
                    .resolve_from(donor.distribution.counts(), n, &refs)
                    .unwrap();
                assert_eq!(
                    cold.distribution.counts(),
                    warm.distribution.counts(),
                    "{id} at n={n}: counts diverge"
                );
                assert_eq!(
                    cold.makespan.to_bits(),
                    warm.makespan.to_bits(),
                    "{id} at n={n}: makespan not bit-identical"
                );
            }
        }
    }

    #[test]
    fn cost_classes_mark_exactly_the_nonlinear_entries() {
        for info in registry() {
            let nonlinear = matches!(info.name, "sort-sample" | "query");
            assert_eq!(
                info.cost.nonlinear(),
                nonlinear,
                "{}: cost class {:?}",
                info.name,
                info.cost
            );
            assert!(!info.cost.label().is_empty());
        }
        // The nonlinear entries are excluded from the linear-oracle
        // differential (their makespan lives in the transformed time
        // domain) but still run the full conformance battery.
        for info in registry().iter().filter(|i| i.cost.nonlinear()) {
            assert!(!info.exact, "{}: nonlinear entries are not oracle-exact", info.name);
        }
    }

    #[test]
    fn exact_entries_track_the_oracle() {
        // Oracle-differential guarantee test for the newly exposed
        // partitioners (and the rest of the exact family).
        let funcs = sample_cluster();
        let refs = erase(&funcs);
        for n in [1_000u64, 123_456, 7_000_000] {
            let reference = oracle::solve(n, &funcs).unwrap();
            for info in registry().iter().filter(|i| i.exact) {
                let report = info.id_with(1.0).solve(n, &refs).unwrap();
                let rel = (report.makespan - reference.makespan).abs()
                    / reference.makespan;
                assert!(
                    rel < 5e-3,
                    "{} at n={n}: {} vs oracle {} (rel {rel:.2e})",
                    info.name,
                    report.makespan,
                    reference.makespan
                );
            }
        }
    }
}
