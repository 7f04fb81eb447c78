//! Cost functions: the time-domain generalisation of the functional
//! performance model.
//!
//! The paper's model describes each processor by a *speed* function
//! `s(x)` and derives execution time as `t(x) = x / s(x)` — per-machine
//! work is implicitly **linear** in the number of assigned elements.
//! Sorting- and query-shaped workloads break that assumption: a
//! comparison sort costs `~x·log x` per machine, and join-shaped loads
//! can be arbitrarily superlinear. This module restates the model in the
//! quantity the partitioners actually balance — execution **time** — so
//! that both families fit one contract:
//!
//! * [`CostFunction`] — the trait: `time(x)`, with the paper's
//!   single-intersection shape assumption restated in the time domain
//!   (`time` strictly increasing, see the trait docs);
//! * a **blanket adapter** from every [`SpeedFunction`]: `time(x) =
//!   x / speed(x)`, which preserves every closed-form override so
//!   speed-backed solves are bit-identical to the historical
//!   speed-domain solver;
//! * [`PiecewiseLinearCost`] — measured `(size, time)` knots, the cost
//!   counterpart of [`crate::speed::PiecewiseLinearSpeed`];
//! * [`SortCost`] / [`QueryCost`] — borrow-wrapping transforms that
//!   impose an `x·log₂ x` comparison-sort or `x^(1+γ)` query/join cost
//!   on an elementwise base model, and intersect origin lines in closed
//!   form wherever that base does.
//!
//! [`SpeedFunction`]: crate::speed::SpeedFunction

mod function;
mod models;

pub use function::{check_increasing_time, CostFunction};
pub use models::{PiecewiseLinearCost, QueryCost, SortCost};
