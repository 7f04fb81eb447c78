//! Property-based tests over randomly generated heterogeneous clusters.

use fpm::prelude::*;
use fpm_core::geometry::intersect_origin_line;
use fpm_core::partition::oracle;
use proptest::prelude::*;

/// Strategy: one random admissible speed function.
fn arb_speed() -> impl Strategy<Value = AnalyticSpeed> {
    let peak = 10.0f64..500.0;
    let scale = 1e4f64..1e7;
    let alpha = 1.0f64..4.0;
    prop_oneof![
        peak.clone().prop_map(AnalyticSpeed::constant),
        (peak.clone(), scale.clone(), alpha.clone())
            .prop_map(|(p, s, a)| AnalyticSpeed::decreasing(p, s, a)),
        (peak.clone(), scale.clone()).prop_map(|(p, r)| AnalyticSpeed::saturating(p, r)),
        (peak.clone(), 1e3f64..1e5, scale.clone(), alpha.clone())
            .prop_map(|(p, r, g, a)| AnalyticSpeed::unimodal(p, r, g, a)),
        (peak, scale, alpha).prop_map(|(p, g, a)| AnalyticSpeed::paging(p, g, a)),
    ]
}

fn arb_cluster() -> impl Strategy<Value = Vec<AnalyticSpeed>> {
    prop::collection::vec(arb_speed(), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partitioners_conserve_elements(funcs in arb_cluster(), n in 1u64..100_000_000) {
        let r = CombinedPartitioner::new().partition(n, &funcs).unwrap();
        prop_assert_eq!(r.distribution.total(), n);
        let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
        prop_assert_eq!(r.distribution.total(), n);
    }

    #[test]
    fn modified_matches_oracle(funcs in arb_cluster(), n in 100u64..50_000_000) {
        let a = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
        let o = oracle::solve(n, &funcs).unwrap();
        let rel = (a.makespan - o.makespan).abs() / o.makespan.max(1e-30);
        prop_assert!(rel < 1e-2, "makespan {} vs oracle {}", a.makespan, o.makespan);
    }

    #[test]
    fn solutions_are_exchange_optimal(funcs in arb_cluster(), n in 100u64..10_000_000) {
        let r = CombinedPartitioner::new().partition(n, &funcs).unwrap();
        prop_assert!(oracle::is_exchange_optimal(&r.distribution, &funcs, 1e-6));
    }

    #[test]
    fn single_number_is_never_better(
        funcs in arb_cluster(),
        n in 1_000u64..50_000_000,
        reference in 1e3f64..1e7,
    ) {
        let f = CombinedPartitioner::new().partition(n, &funcs).unwrap();
        let s = SingleNumberPartitioner::at_size(reference).partition(n, &funcs).unwrap();
        prop_assert!(
            f.makespan <= s.makespan * (1.0 + 1e-9),
            "functional {} vs single-number {}", f.makespan, s.makespan
        );
    }

    #[test]
    fn intersections_are_monotone_in_slope(f in arb_speed(), c in 1e-9f64..1e-2) {
        let x1 = intersect_origin_line(&f, c);
        let x2 = intersect_origin_line(&f, c * 2.0);
        prop_assert!(x2 <= x1 + 1e-6, "steeper line must not intersect farther out");
    }

    #[test]
    fn intersection_satisfies_line_equation(f in arb_speed(), c in 1e-9f64..1e-3) {
        let x = intersect_origin_line(&f, c);
        if x > 1.0 && x < 1e17 {
            let s = f.speed(x);
            prop_assert!(
                (s - c * x).abs() <= 1e-5 * s.max(c * x).max(1e-12),
                "s({x}) = {s} vs c·x = {}", c * x
            );
        }
    }

    #[test]
    fn builder_produces_valid_models(f in arb_speed(), seed in 0u64..1_000) {
        let mut noisy = FluctuatingMeasurer::new(f, WidthLaw::Constant(0.03), seed);
        let out = fpm_core::speed::builder::build_speed_band(
            &mut noisy, 1e3, 1e8, BuilderConfig::default());
        if let Ok(out) = out {
            // The built model must itself satisfy the shape requirement.
            prop_assert!(
                fpm_core::speed::check_single_intersection(&out.midline, 1e3, 9e7, 100).is_ok()
            );
        }
    }

    #[test]
    fn bounded_respects_caps(
        funcs in arb_cluster(),
        n in 1u64..1_000_000,
        cap in 1_000u64..10_000_000,
    ) {
        let caps = vec![cap; funcs.len()];
        match bounded::partition_bounded(n, &funcs, &caps) {
            Ok(r) => {
                prop_assert_eq!(r.distribution.total(), n);
                for &x in r.distribution.counts() {
                    prop_assert!(x <= cap);
                }
            }
            Err(Error::InsufficientCapacity { .. }) => {
                prop_assert!(cap.saturating_mul(funcs.len() as u64) < n);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    #[test]
    fn vgb_covers_blocks(funcs in arb_cluster(), blocks in 1u64..64, b in 16u64..128) {
        let n = blocks * b;
        let d = variable_group_block(n, b, &funcs, &ModifiedPartitioner::new()).unwrap();
        prop_assert_eq!(d.total_blocks() as u64, blocks);
        prop_assert!(d.block_owner.iter().all(|&o| o < funcs.len()));
    }

    #[test]
    fn fine_tune_never_leaves_bottleneck_improvable(
        funcs in arb_cluster(),
        n in 10u64..1_000_000,
    ) {
        let r = BisectionPartitioner::new().partition(n, &funcs).unwrap();
        prop_assert!(oracle::is_exchange_optimal(&r.distribution, &funcs, 1e-6));
    }

    #[test]
    fn secant_matches_oracle(funcs in arb_cluster(), n in 100u64..10_000_000) {
        use fpm_core::partition::SecantPartitioner;
        let r = SecantPartitioner::new().partition(n, &funcs).unwrap();
        prop_assert_eq!(r.distribution.total(), n);
        let o = oracle::solve(n, &funcs).unwrap();
        let rel = (r.makespan - o.makespan).abs() / o.makespan.max(1e-30);
        prop_assert!(rel < 1e-2, "{} vs {}", r.makespan, o.makespan);
    }

    #[test]
    fn contiguous_unit_weights_match_set_partition(
        funcs in arb_cluster(),
        n in 100usize..50_000,
    ) {
        use fpm_core::partition::partition_contiguous;
        let weights = vec![1.0; n];
        let contiguous = partition_contiguous(&weights, &funcs).unwrap();
        let (_, t_free) = oracle::solve_real(n as u64, &funcs).unwrap();
        // Contiguity with unit weights costs at most the granularity of a
        // couple of items per processor.
        prop_assert!(contiguous.makespan >= t_free - 1e-6);
        let slack: f64 = funcs
            .iter()
            .map(|f| SpeedFunction::time(f, 2.0))
            .fold(0.0, f64::max);
        prop_assert!(
            contiguous.makespan <= t_free + slack + t_free * 0.05,
            "contiguous {} vs real optimum {}",
            contiguous.makespan,
            t_free
        );
    }

    #[test]
    fn contiguous_boundaries_cover_and_order(
        funcs in arb_cluster(),
        weights in prop::collection::vec(0.0f64..100.0, 1..500),
    ) {
        use fpm_core::partition::partition_contiguous;
        let part = partition_contiguous(&weights, &funcs).unwrap();
        prop_assert_eq!(part.boundaries.len(), funcs.len() + 1);
        prop_assert_eq!(part.boundaries[0], 0);
        prop_assert_eq!(*part.boundaries.last().unwrap(), weights.len());
        prop_assert!(part.boundaries.windows(2).all(|w| w[0] <= w[1]));
        let total: f64 = part.loads.iter().sum();
        let expected: f64 = weights.iter().sum();
        prop_assert!((total - expected).abs() < 1e-6 * expected.max(1.0));
    }
}
