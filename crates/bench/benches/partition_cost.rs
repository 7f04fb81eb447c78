//! Criterion counterpart of paper Fig. 21: partitioning cost as a function
//! of the number of processors and the problem size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpm_bench::experiments::fig21::synthetic_cluster;
use fpm_core::partition::{CombinedPartitioner, Partitioner};
use std::hint::black_box;

fn bench_partition_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig21_partition_cost");
    group.sample_size(20);
    for p in [270usize, 540, 1080] {
        let funcs = synthetic_cluster(p);
        for n in [500_000_000u64, 2_000_000_000] {
            group.bench_with_input(
                BenchmarkId::new(format!("p{p}"), n),
                &n,
                |bench, &n| {
                    let partitioner = CombinedPartitioner::new();
                    bench.iter(|| {
                        let r = partitioner.partition(black_box(n), &funcs).unwrap();
                        black_box(r.distribution.total())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partition_cost);
criterion_main!(benches);
