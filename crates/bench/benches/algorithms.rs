//! Ablation bench: every production algorithm in the planner registry
//! (under its canonical name, via erased dispatch) plus the geometric
//! slope-mode extension, across speed-function regimes.
//!
//! Two cluster families: analytic shapes, whose intersections take the
//! numeric search, and the Fig. 21 piece-wise linear machines, whose
//! intersections — including the sort and query transforms over them —
//! are closed form.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use fpm_bench::experiments::fig21::synthetic_cluster;
use fpm_core::cost::CostFunction;
use fpm_core::partition::{BisectionPartitioner, Partitioner, SlopeMode};
use fpm_core::planner::{erase, registry};
use fpm_core::speed::AnalyticSpeed;
use std::hint::black_box;

fn mixed_cluster(p: usize) -> Vec<AnalyticSpeed> {
    (0..p)
        .map(|i| match i % 4 {
            0 => AnalyticSpeed::decreasing(200.0 + i as f64, 1e6, 2.0),
            1 => AnalyticSpeed::saturating(150.0 + i as f64, 5e4),
            2 => AnalyticSpeed::unimodal(250.0 + i as f64, 1e4, 5e6, 2.0),
            _ => AnalyticSpeed::paging(300.0 + i as f64, 2e6, 3.0),
        })
        .collect()
}

/// Every registry entry on one cluster, labelled `<prefix><name>`.
fn bench_registry<F: CostFunction>(
    group: &mut BenchmarkGroup<'_>,
    prefix: &str,
    n: u64,
    funcs: &[F],
) {
    let p = funcs.len();
    // Canonical labels straight from the registry; baselines sample their
    // speeds at the homogeneous reference size n/p.
    for info in registry() {
        let id = info.id_with((n as f64 / p as f64).max(1.0));
        let label = format!("{prefix}{}", info.name);
        group.bench_with_input(BenchmarkId::new(label, p), funcs, |b, funcs| {
            let refs = erase(funcs);
            b.iter(|| black_box(id.solve(n, &refs).unwrap().makespan))
        });
    }
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithms");
    let n = 100_000_000u64;
    for p in [4usize, 12, 64] {
        let funcs = mixed_cluster(p);
        bench_registry(&mut group, "", n, &funcs);
        group.bench_with_input(BenchmarkId::new("basic_geometric", p), &funcs, |b, funcs| {
            let alg = BisectionPartitioner::new().with_slope_mode(SlopeMode::Geometric);
            b.iter(|| black_box(alg.partition(n, funcs).unwrap().makespan))
        });
        bench_registry(&mut group, "piecewise/", n, &synthetic_cluster(p));
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
