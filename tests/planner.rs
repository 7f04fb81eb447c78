//! Tier-1 differential test of the planner registry's erased dispatch.
//!
//! The contract under test: for every algorithm in
//! [`fpm_core::planner::registry`], solving through the erased
//! cost-model path ([`AlgorithmId::solve`] over `&dyn CostFunction`,
//! where every speed model enters through the blanket
//! `SpeedFunction → CostFunction` adapter) is **bit-identical** to
//! calling the concrete `Partitioner` directly on the typed speed
//! functions — same counts, same makespan to the last bit, same trace
//! length, same error outcomes — over at least 100 seeded testkit
//! clusters. This pins the legacy speed path against the cost-function
//! adapter path: the generalisation to cost models must not move a
//! single plan by one bit, for the linear *and* the nonlinear entries.
//!
//! The direct side is an explicit `(id, concrete call)` pairing table, not
//! a dispatch block: the pairing itself is part of what the test pins
//! down (if the planner's dispatch ever wired a name to the wrong solver,
//! the comparison would fail loudly).
//!
//! Case count scales with `FPM_TESTKIT_CASES` (default 100, the
//! acceptance floor); seeds derive from `FPM_TESTKIT_SEED`.

use fpm::prelude::*;
use fpm_core::partition::{QueryPartitioner, SecantPartitioner, SortSamplePartitioner};
use fpm_core::planner::{erase, registry, AlgorithmId};
use fpm_testkit::conformance::{env_base_seed, env_cases};
use fpm_testkit::{CaseSpec, GenConfig};

type Funcs = [Box<dyn SpeedFunction>];
type DirectCall = Box<dyn Fn(u64, &Funcs) -> Result<PartitionReport>>;

/// One concrete, registry-independent call per algorithm family. The
/// single-number baseline is pinned at the registry example size so both
/// sides sample the same reference point.
fn direct_calls() -> Vec<(AlgorithmId, DirectCall)> {
    vec![
        (
            AlgorithmId::Combined,
            Box::new(|n, f: &Funcs| CombinedPartitioner::new().partition(n, f)),
        ),
        (
            AlgorithmId::Basic,
            Box::new(|n, f: &Funcs| BisectionPartitioner::new().partition(n, f)),
        ),
        (
            AlgorithmId::Modified,
            Box::new(|n, f: &Funcs| ModifiedPartitioner::new().partition(n, f)),
        ),
        (
            AlgorithmId::Secant,
            Box::new(|n, f: &Funcs| SecantPartitioner::new().partition(n, f)),
        ),
        (
            AlgorithmId::Bounded,
            Box::new(|n, f: &Funcs| bounded::partition_bounded(n, f, &vec![n; f.len()])),
        ),
        (
            AlgorithmId::Contiguous,
            Box::new(|n, f: &Funcs| {
                fpm_core::partition::ContiguousPartitioner.partition(n, f)
            }),
        ),
        (
            AlgorithmId::SortSample,
            Box::new(|n, f: &Funcs| SortSamplePartitioner::new().partition(n, f)),
        ),
        (
            AlgorithmId::Query,
            Box::new(|n, f: &Funcs| QueryPartitioner::new().partition(n, f)),
        ),
        (
            AlgorithmId::SingleAt(5e5),
            Box::new(|n, f: &Funcs| SingleNumberPartitioner::at_size(5e5).partition(n, f)),
        ),
    ]
}

#[test]
fn pairing_table_covers_the_whole_registry() {
    let calls = direct_calls();
    assert_eq!(calls.len(), registry().len(), "one direct call per registry entry");
    for info in registry() {
        assert!(
            calls.iter().any(|(id, _)| id.info().name == info.name),
            "registry entry {:?} has no direct pairing",
            info.name
        );
    }
}

#[test]
fn erased_dispatch_is_bit_identical_to_direct_calls() {
    let cases = env_cases(100);
    let base = base_seed();
    let cfg = GenConfig::default();
    let calls = direct_calls();

    for i in 0..cases {
        let seed = base.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = CaseSpec::from_seed(seed, &cfg);
        let refs = erase(&case.funcs);
        for (id, direct) in &calls {
            let erased = id.solve(case.n, &refs);
            let straight = direct(case.n, &case.funcs);
            match (erased, straight) {
                (Ok(e), Ok(d)) => {
                    assert_eq!(
                        e.distribution.counts(),
                        d.distribution.counts(),
                        "seed {seed:#x} {id:?} ({}): counts diverge",
                        case.descriptor
                    );
                    assert_eq!(
                        e.makespan.to_bits(),
                        d.makespan.to_bits(),
                        "seed {seed:#x} {id:?}: makespan not bit-identical ({} vs {})",
                        e.makespan,
                        d.makespan
                    );
                    assert_eq!(
                        e.trace.steps(),
                        d.trace.steps(),
                        "seed {seed:#x} {id:?}: trace length diverges"
                    );
                }
                (Err(e), Err(d)) => {
                    assert_eq!(
                        e.to_string(),
                        d.to_string(),
                        "seed {seed:#x} {id:?}: error text diverges"
                    );
                }
                (erased, straight) => panic!(
                    "seed {seed:#x} {id:?}: outcome diverges: erased {erased:?} vs direct {straight:?}"
                ),
            }
        }
    }
}

#[test]
fn every_registry_example_solves_a_seeded_cluster_end_to_end() {
    // The previously unreachable solvers (secant, bounded, contiguous)
    // must be reachable purely from their string spelling — exactly what
    // the CLI and the daemon do.
    let cfg = GenConfig::default();
    let case = (0..64)
        .map(|i| CaseSpec::from_seed(base_seed().wrapping_add(i), &cfg))
        .find(|c| oracle::solve(c.n, &c.funcs).is_ok())
        .expect("a solvable generated case within 64 seeds");
    let refs = erase(&case.funcs);
    let reference_size = (case.n as f64 / case.funcs.len() as f64).max(1.0);
    for info in registry() {
        let parsed: AlgorithmId = info.example.parse().expect(info.name);
        assert_eq!(parsed.info().name, info.name, "example resolves to its own entry");
        // Baselines sample their speeds at n/p so the solve is meaningful
        // for any generated cluster; production entries run as parsed.
        let id = if info.baseline { info.id_with(reference_size) } else { parsed };
        let report = id
            .solve(case.n, &refs)
            .unwrap_or_else(|e| panic!("{}: {e} ({})", info.name, case.descriptor));
        assert_eq!(report.distribution.total(), case.n, "{}", info.name);
    }
}

fn base_seed() -> u64 {
    env_base_seed(0x9_1A2B_3C4D)
}
