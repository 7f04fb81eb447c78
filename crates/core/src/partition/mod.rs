//! Set-partitioning algorithms over the functional performance model.
//!
//! The problem (paper §2): partition a set of `n` elements over `p`
//! heterogeneous processors whose speeds are functions `s_i(x)` of problem
//! size, such that the number of elements assigned to each processor is
//! proportional to its speed **at the size it receives** — equivalently,
//! all processors need the same execution time `x_i/s_i(x_i)` and
//! `Σ x_i = n`.
//!
//! Geometrically (paper Fig. 4) the optimum is a straight line through the
//! origin of the (size, speed) plane; the algorithms differ in how they
//! search for it:
//!
//! | Algorithm | Complexity | Paper |
//! |---|---|---|
//! | [`SingleNumberPartitioner`] | `O(p·log p)` | baseline, refs \[5\]–\[7\] |
//! | [`BisectionPartitioner`] | best `O(p·log n)`, worst `O(p·n)` | Figs. 7–8 |
//! | [`ModifiedPartitioner`] | `O(p²·log n)` guaranteed | Figs. 10–12 |
//! | [`CombinedPartitioner`] | adaptive hybrid | Fig. 15 |
//! | [`oracle::solve`] | reference exact solver | test oracle |
//! | [`SecantPartitioner`] | superlinear in practice | extension towards the "ideal algorithm" |
//! | [`bounded`] / [`BoundedPartitioner`] | per-processor caps extension | ref \[20\] |
//! | [`partition_contiguous`] / [`ContiguousPartitioner`] | well-ordered arrays | ref \[20\] taxonomy |
//! | [`SortSamplePartitioner`] | `x·log x` sort workloads | cost-model extension |
//! | [`QueryPartitioner`] | superlinear `x^(1+γ)` query/join workloads | cost-model extension |
//!
//! Every solver here is catalogued in [`crate::planner::registry`]; front
//! ends resolve them by canonical name through
//! [`crate::planner::AlgorithmId`] instead of matching on types.

pub mod bounded;
mod bisection;
mod combined;
mod contiguous;
mod fine_tune;
mod initial;
mod modified;
pub mod oracle;
mod problem;
mod search;
mod secant;
mod single_number;
mod workload;

pub use bisection::{BisectionPartitioner, SlopeMode};
pub use bounded::BoundedPartitioner;
pub use combined::{CombinedChoice, CombinedPartitioner};
pub use contiguous::{
    partition_contiguous, partition_contiguous_uniform, ContiguousPartition,
    ContiguousPartitioner,
};
pub use fine_tune::fine_tune;
pub use initial::{bracket_from_slope, bracket_slopes, initial_slopes, BracketProbes, SlopeBracket};
pub use modified::ModifiedPartitioner;
pub use problem::{seed_slope, Distribution, PartitionReport, Partitioner};
pub use secant::SecantPartitioner;
pub use single_number::SingleNumberPartitioner;
pub use workload::{QueryPartitioner, SortSamplePartitioner, DEFAULT_QUERY_GAMMA};
