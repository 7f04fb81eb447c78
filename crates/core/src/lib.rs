//! # fpm-core — functional performance model & geometric data partitioning
//!
//! This crate implements the primary contribution of *"Data Partitioning with
//! a Realistic Performance Model of Networks of Heterogeneous Computers"*
//! (Lastovetsky & Reddy, IPDPS 2004): a performance model in which the
//! absolute speed of every processor is a **continuous function of the problem
//! size** rather than a single number, together with a family of geometric
//! algorithms that partition an `n`-element set over `p` heterogeneous
//! processors so that the work assigned to each processor is proportional to
//! its speed *at the size it actually receives*.
//!
//! ## The model
//!
//! A processor's performance is described by a [`SpeedFunction`]: a positive,
//! continuous map `x ↦ s(x)` from problem size (number of elements stored and
//! processed) to absolute speed (work units per second). The model captures
//! processor heterogeneity, memory-hierarchy heterogeneity and paging: the
//! admissible shapes (paper Fig. 5) are strictly decreasing, strictly
//! increasing (saturating), or increasing-then-decreasing — exactly the
//! shapes for which any straight line through the origin of the
//! (size, speed) plane intersects the graph in at most one point
//! (equivalently: `s(x)/x` is strictly decreasing, see
//! [`speed::check_single_intersection`]).
//!
//! The solver stack itself runs on the time-domain generalisation of the
//! model, [`cost::CostFunction`] (`time(x)` strictly increasing), with every
//! `SpeedFunction` adapted via `time(x) = x / speed(x)`; this is what admits
//! nonlinear per-machine costs (sorting's `x·log x`, superlinear query/join
//! loads) without changing the linear-load floating-point path.
//!
//! ## The partitioning problem
//!
//! Partition `n` elements over processors `0..p` such that
//! `x_0/s_0(x_0) = x_1/s_1(x_1) = … = x_{p-1}/s_{p-1}(x_{p-1})` and
//! `Σ x_i = n`. Geometrically the optimum is a straight line through the
//! origin that intersects all `p` graphs in points whose abscissas sum to
//! `n` (paper Fig. 4). Algorithms provided:
//!
//! * [`partition::SingleNumberPartitioner`] — the classical constant-speed
//!   baseline, rounded in `O(p·log p)` by the fine-tuning's residue routine
//!   (the naive `O(p²)` loop is `fpm-testkit`'s reference for it);
//! * [`partition::BisectionPartitioner`] — slope bisection of the region
//!   between two origin lines; best-case `O(p·log n)` (paper Figs. 7–8);
//! * [`partition::ModifiedPartitioner`] — bisection of the discrete *space
//!   of solutions*; worst-case `O(p²·log n)` (paper Figs. 10–12);
//! * [`partition::CombinedPartitioner`] — the hybrid of the two
//!   (paper Fig. 15);
//! * [`partition::oracle`] — a reference exact solver (binary search on the
//!   makespan) used as the correctness oracle in tests;
//! * [`partition::bounded`] — the general formulation with per-processor
//!   memory bounds (extension, paper Section 1 / reference \[20\]).
//!
//! All iterative partitioners finish with the paper's *fine-tuning*
//! procedure ([`partition::fine_tune`]): once no integer-abscissa point lies
//! strictly inside the current region, the floors of the lower
//! intersections are topped up with the `r` integer candidates of least
//! execution time, picked by selection in `O(p)` (a heap takes over when
//! one processor must take two), which is the best consistent integer
//! allocation. The report's makespan reuses the times fine-tuning
//! evaluated.
//!
//! ## Building the model
//!
//! [`speed::builder`] implements the paper's practical procedure (§3.1,
//! Figs. 14/19/20): an adaptive piece-wise linear approximation of the speed
//! band built by recursive *trisection* of size intervals with an ε-band
//! acceptance test.
//!
//! ## Quick example
//!
//! ```
//! use fpm_core::speed::{AnalyticSpeed, SpeedFunction};
//! use fpm_core::partition::{Partitioner, CombinedPartitioner};
//!
//! // Three heterogeneous processors: one fast machine that starts paging
//! // early, one slower machine with plenty of memory, one in between.
//! let procs: Vec<Box<dyn SpeedFunction>> = vec![
//!     Box::new(AnalyticSpeed::paging(400.0, 2_000_000.0, 3.0)),
//!     Box::new(AnalyticSpeed::saturating(150.0, 100_000.0)),
//!     Box::new(AnalyticSpeed::unimodal(250.0, 50_000.0, 8_000_000.0, 2.0)),
//! ];
//! let report = CombinedPartitioner::default()
//!     .partition(5_000_000, &procs)
//!     .unwrap();
//! assert_eq!(report.distribution.total(), 5_000_000);
//! // Faster processors receive more elements.
//! assert!(report.distribution.counts()[0] > report.distribution.counts()[1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod geometry;
pub mod partition;
pub mod planner;
pub mod speed;
pub mod trace;

pub use cost::CostFunction;
pub use error::{Error, Result};
pub use partition::{Distribution, PartitionReport, Partitioner};
pub use planner::{registry, AlgorithmId, AlgorithmInfo, CostClass};
pub use speed::SpeedFunction;
