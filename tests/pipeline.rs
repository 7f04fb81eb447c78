//! End-to-end pipeline tests: measure → build model → partition → execute.

use fpm::prelude::*;

#[test]
fn full_mm_pipeline_beats_single_number() {
    // 1. Build speed models from noisy simulated measurements.
    let built = build_cluster_models(
        &testbeds::table2(),
        AppProfile::MatrixMult,
        Integration::Low,
        2024,
        BuilderConfig::default(),
    )
    .unwrap();

    // 2. Partition with the built models, execute on the hidden truth.
    let truth = SimCluster::table2(AppProfile::MatrixMult);
    for n in [20_000u64, 28_000] {
        let elements = workload::mm_elements(n);
        let functional =
            CombinedPartitioner::new().partition(elements, &built.models).unwrap();
        let f_run =
            simulate_mm_with_distribution(n, truth.funcs(), functional.distribution).unwrap();

        // Single-number baseline: speeds sampled from the same built models
        // at a 500×500 problem.
        let single = SingleNumberPartitioner::at_size(workload::mm_elements(500) as f64)
            .partition(elements, &built.models)
            .unwrap();
        let s_run =
            simulate_mm_with_distribution(n, truth.funcs(), single.distribution).unwrap();

        assert!(
            f_run.makespan < s_run.makespan,
            "n={n}: functional {} vs single {}",
            f_run.makespan,
            s_run.makespan
        );
    }
}

#[test]
fn partitioning_cost_is_negligible_vs_execution() {
    // Paper Fig. 21: the cost of *finding the optimal solution with the
    // partitioning algorithm* is ≤ ~0.1 wall-clock seconds even for
    // problem sizes of 2·10⁹ elements and ~1000 processors — negligible
    // against application execution times of minutes to hours. (Model
    // *building* cost is separate; the paper reports it per machine and
    // calls efficient building an open problem.)
    let truth = SimCluster::table2(AppProfile::MatrixMult);
    let n = 25_000u64;
    let start = std::time::Instant::now();
    let run = simulate_mm(n, truth.funcs(), &CombinedPartitioner::new()).unwrap();
    let partition_wall = start.elapsed().as_secs_f64();
    assert!(
        partition_wall < 1.0,
        "partitioning must take well under a second, took {partition_wall}"
    );
    // The simulated parallel execution is minutes-to-hours, orders of
    // magnitude above the partitioning cost.
    assert!(run.makespan > 60.0, "execution {} should be minutes+", run.makespan);
    assert!(run.makespan / partition_wall > 1e3);
}

#[test]
fn model_building_reports_finite_costs_and_point_counts() {
    let built = build_cluster_models(
        &testbeds::table2(),
        AppProfile::MatrixMult,
        Integration::Dedicated,
        5,
        BuilderConfig::default(),
    )
    .unwrap();
    assert!(built.outcomes.iter().map(|o| o.cost_seconds).sum::<f64>().is_finite());
    for (name, o) in built.names.iter().zip(&built.outcomes) {
        assert!(o.measurements >= 3, "{name}");
        assert!(o.cost_seconds > 0.0, "{name}");
    }
}

#[test]
fn real_parallel_mm_with_functional_layout_is_correct() {
    // Small real execution: the layout from the partitioner must produce
    // exactly the serial result.
    use fpm::kernels::matmul::matmul_abt;
    use fpm::kernels::striped::parallel_matmul_abt;

    let funcs = vec![
        AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
        AnalyticSpeed::constant(90.0),
        AnalyticSpeed::saturating(150.0, 5e4),
    ];
    let n = 96u64;
    let report =
        CombinedPartitioner::new().partition(3 * n * n, &funcs).unwrap();
    let layout = rows_from_element_distribution(n as usize, &report.distribution);

    let a = Matrix::random(n as usize, n as usize, 1);
    let b = Matrix::random(n as usize, n as usize, 2);
    let parallel = parallel_matmul_abt(&a, &b, &layout);
    let serial = matmul_abt(&a, &b);
    assert!(parallel.max_diff(&serial) < 1e-10);
}

#[test]
fn vgb_lu_with_built_models_runs_and_beats_even_distribution() {
    let built = build_cluster_models(
        &testbeds::table2(),
        AppProfile::LuFactorization,
        Integration::Dedicated,
        77,
        BuilderConfig::default(),
    )
    .unwrap();
    let truth = SimCluster::table2(AppProfile::LuFactorization);
    let n = 20_000u64;
    let b = 256u64;
    let vgb =
        variable_group_block(n, b, &built.models, &CombinedPartitioner::new()).unwrap();
    let t_vgb = simulate_lu(n, b, &vgb.block_owner, truth.funcs()).unwrap().total_seconds;

    // Even cyclic distribution baseline.
    let m = n.div_ceil(b) as usize;
    let cyclic: Vec<usize> = (0..m).map(|k| k % truth.len()).collect();
    let t_cyc = simulate_lu(n, b, &cyclic, truth.funcs()).unwrap().total_seconds;
    assert!(
        t_vgb < t_cyc,
        "VGB {} should beat round-robin {} on a heterogeneous cluster",
        t_vgb,
        t_cyc
    );
}

#[test]
fn speedup_grows_when_reference_point_is_in_the_wrong_regime() {
    // The paper's Fig. 22 shape: a single-number model sampled at a small
    // matrix (everything cache/memory resident) misjudges machines that
    // page at the real size; the misjudgement worsens with n.
    let cluster = SimCluster::table2(AppProfile::MatrixMult);
    let functional = CombinedPartitioner::new();
    let single = SingleNumberPartitioner::at_size(workload::mm_elements(500) as f64);
    let mut last_speedup = 0.0;
    let mut grew = 0;
    let mut steps = 0;
    for n in [16_000u64, 22_000, 28_000] {
        let f = simulate_mm(n, cluster.funcs(), &functional).unwrap();
        let s = simulate_mm(n, cluster.funcs(), &single).unwrap();
        let speedup = s.makespan / f.makespan;
        assert!(speedup >= 1.0, "n={n}: speedup {speedup}");
        if speedup > last_speedup {
            grew += 1;
        }
        last_speedup = speedup;
        steps += 1;
    }
    assert!(grew >= steps - 1, "speedup should generally grow with n");
}
