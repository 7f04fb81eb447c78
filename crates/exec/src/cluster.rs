//! Simulated heterogeneous clusters.

use fpm_simnet::machine::MachineSpec;
use fpm_simnet::profile::AppProfile;
use fpm_simnet::speed_model::MachineSpeed;
use fpm_simnet::testbeds;

/// A named set of machines with their speed functions for one application.
#[derive(Debug, Clone)]
pub struct SimCluster {
    names: Vec<String>,
    app: AppProfile,
    funcs: Vec<MachineSpeed>,
}

impl SimCluster {
    /// Builds a cluster from machine specs for the given application.
    pub fn from_specs(specs: &[MachineSpec], app: AppProfile) -> Self {
        Self {
            names: specs.iter().map(|m| m.name.clone()).collect(),
            app,
            funcs: specs.iter().map(|m| MachineSpeed::for_app(m, app)).collect(),
        }
    }

    /// The paper's Table 2 testbed (12 machines) for an application.
    pub fn table2(app: AppProfile) -> Self {
        Self::from_specs(&testbeds::table2(), app)
    }

    /// The paper's Table 1 testbed (4 machines) for an application.
    pub fn table1(app: AppProfile) -> Self {
        Self::from_specs(&testbeds::table1(), app)
    }

    /// Machine names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The application profile.
    pub fn app(&self) -> AppProfile {
        self.app
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Per-machine speed functions.
    pub fn funcs(&self) -> &[MachineSpeed] {
        &self.funcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_cluster_has_twelve_machines() {
        let c = SimCluster::table2(AppProfile::MatrixMult);
        assert_eq!(c.len(), 12);
        assert!(!c.is_empty());
        assert_eq!(c.names()[0], "X1");
        assert_eq!(c.app(), AppProfile::MatrixMult);
    }
}
