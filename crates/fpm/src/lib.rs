//! # fpm — data partitioning with a realistic performance model
//!
//! Facade crate re-exporting the whole reproduction of *"Data Partitioning
//! with a Realistic Performance Model of Networks of Heterogeneous
//! Computers"* (Lastovetsky & Reddy, IPDPS 2004):
//!
//! * [`core`] — the functional performance model and the geometric
//!   partitioning algorithms (the paper's contribution);
//! * [`simnet`] — the simulated heterogeneous network substrate (the
//!   paper's Tables 1–2 testbeds, memory-hierarchy speed models, workload
//!   fluctuation);
//! * [`kernels`] — dense linear algebra: matrix multiplication, LU,
//!   striped partitioning, the Variable Group Block distribution;
//! * [`exec`] — simulated and real execution engines.
//!
//! ## Quickstart
//!
//! ```
//! use fpm::prelude::*;
//!
//! // The paper's 12-machine testbed running naive matrix multiplication.
//! let cluster = SimCluster::table2(AppProfile::MatrixMult);
//!
//! // Partition a 10 000 × 10 000 multiplication (3·n² elements).
//! let n_elements = 3 * 10_000u64 * 10_000;
//! let report = CombinedPartitioner::new()
//!     .partition(n_elements, cluster.funcs())
//!     .unwrap();
//! assert_eq!(report.distribution.total(), n_elements);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fpm_core as core;
pub use fpm_exec as exec;
pub use fpm_kernels as kernels;
pub use fpm_simnet as simnet;

/// Commonly used items in one import.
pub mod prelude {
    pub use fpm_core::cost::{CostFunction, PiecewiseLinearCost, QueryCost, SortCost};
    pub use fpm_core::partition::{
        bounded, oracle, BisectionPartitioner, BoundedPartitioner, CombinedPartitioner,
        ContiguousPartitioner, Distribution, ModifiedPartitioner, PartitionReport, Partitioner,
        QueryPartitioner, SecantPartitioner, SingleNumberPartitioner, SlopeMode,
        SortSamplePartitioner, DEFAULT_QUERY_GAMMA,
    };
    pub use fpm_core::planner::{registry, AlgorithmId, AlgorithmInfo};
    pub use fpm_core::speed::{
        build_speed_band, AnalyticSpeed, BuilderConfig, ConstantSpeed, PiecewiseLinearSpeed,
        SpeedBand, SpeedFunction, WidthLaw,
    };
    pub use fpm_core::{Error, Result};
    pub use fpm_exec::cluster::SimCluster;
    pub use fpm_exec::lu_run::simulate_lu;
    pub use fpm_exec::mm_run::{simulate_mm, simulate_mm_with_distribution};
    pub use fpm_exec::model_build::build_cluster_models;
    pub use fpm_kernels::striped::{rows_from_element_distribution, StripedLayout};
    pub use fpm_kernels::vgb::variable_group_block;
    pub use fpm_kernels::Matrix;
    pub use fpm_simnet::fluctuation::{FluctuatingMeasurer, Integration};
    pub use fpm_simnet::machine::{Arch, MachineSpec};
    pub use fpm_simnet::profile::AppProfile;
    pub use fpm_simnet::speed_model::MachineSpeed;
    pub use fpm_simnet::{testbeds, workload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let cluster = SimCluster::table1(AppProfile::MatrixMult);
        let r = CombinedPartitioner::new().partition(3_000_000, cluster.funcs()).unwrap();
        assert_eq!(r.distribution.total(), 3_000_000);
    }
}
