//! Property test for the per-run memo every solver wraps its models in.
//!
//! [`CachedCost`] comes with a bit-exactness contract: over any valid
//! model, speed-backed or measured in the time domain, it must replay the
//! inner model's `time` and `throughput` to the last bit, including
//! probes outside the modelled range and probes coinciding with
//! interpolation knots, and it must evaluate each distinct abscissa once
//! per channel.

use std::collections::HashSet;

use fpm_core::cost::{CachedCost, CostFunction, PiecewiseLinearCost};
use fpm_core::speed::PiecewiseLinearSpeed;
use proptest::prelude::*;

/// Strategy: an arbitrary valid piece-wise linear model. Validity requires
/// strictly increasing abscissas and strictly decreasing `s(x)/x`, so the
/// generator accumulates positive abscissa increments and multiplies the
/// ratio `g = s/x` by a contraction factor `< 1` per knot.
fn arb_piecewise() -> impl Strategy<Value = PiecewiseLinearSpeed> {
    (
        1.0f64..1e4,
        10.0f64..500.0,
        prop::collection::vec((0.1f64..1e3, 0.05f64..0.95), 1..24),
    )
        .prop_map(|(x0, s0, steps)| {
            let mut pts = vec![(x0, s0)];
            let mut x = x0;
            let mut g = s0 / x0;
            for (dx, factor) in steps {
                x += dx;
                g *= factor;
                pts.push((x, g * x));
            }
            PiecewiseLinearSpeed::new(pts).expect("generator preserves the shape invariants")
        })
}

/// Strategy: an arbitrary valid piece-wise linear cost model, whose
/// abscissas and times both strictly increase.
fn arb_cost() -> impl Strategy<Value = PiecewiseLinearCost> {
    (
        1.0f64..1e4,
        1e-3f64..10.0,
        prop::collection::vec((0.1f64..1e3, 1e-4f64..10.0), 1..24),
    )
        .prop_map(|(x0, t0, steps)| {
            let mut pts = vec![(x0, t0)];
            let (mut x, mut t) = (x0, t0);
            for (dx, dt) in steps {
                x += dx;
                t += dt;
                pts.push((x, t));
            }
            PiecewiseLinearCost::new(pts).expect("generator preserves the shape invariants")
        })
}

/// Probe set stressing every lookup path: knot-coincident abscissas,
/// interior points, both out-of-range sides, plus arbitrary extras.
fn probe_set(knots: &[(f64, f64)], max_size: f64, extra: &[f64]) -> Vec<f64> {
    let mut probes = Vec::new();
    for &(x, _) in knots {
        probes.push(x); // exactly on a knot
        probes.push(x * 0.5);
        probes.push(x + 0.25);
    }
    probes.push(1e-12); // far left of the modelled range
    probes.push(0.0);
    probes.push(max_size * 4.0); // far right
    probes.extend_from_slice(extra);
    probes
}

/// Three rounds of `probes` through each channel of a fresh memo over
/// `f`: every answer carries the inner model's bits, each channel misses
/// once per distinct abscissa, and the structure queries forward.
fn check_bit_transparent<F: CostFunction>(f: &F, probes: &[f64]) -> Result<(), String> {
    let cached = CachedCost::new(f);
    let distinct = probes.iter().map(|x| x.to_bits()).collect::<HashSet<u64>>().len();
    for _round in 0..3 {
        for &x in probes {
            prop_assert_eq!(cached.time(x).to_bits(), f.time(x).to_bits(), "time x = {}", x);
        }
    }
    prop_assert_eq!(cached.misses() as usize, distinct, "time channel misses");
    for _round in 0..3 {
        for &x in probes {
            prop_assert_eq!(
                cached.throughput(x).to_bits(),
                f.throughput(x).to_bits(),
                "throughput x = {}",
                x
            );
        }
    }
    prop_assert_eq!(cached.misses() as usize, 2 * distinct, "throughput channel misses");
    prop_assert_eq!(cached.max_size().to_bits(), f.max_size().to_bits());
    for slope in [1e-9, 1e-6, 1e-3, 1.0, 1e3] {
        prop_assert_eq!(
            cached.intersect_slope(slope).map(f64::to_bits),
            f.intersect_slope(slope).map(f64::to_bits),
            "slope = {}",
            slope
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cached_speed_is_bit_transparent(
        f in arb_piecewise(),
        c in arb_cost(),
        extra in prop::collection::vec(0.0f64..5e4, 0..32),
    ) {
        check_bit_transparent(&f, &probe_set(f.knots(), f.max_size(), &extra))?;
        check_bit_transparent(&c, &probe_set(c.knots(), c.max_size(), &extra))?;
    }
}
