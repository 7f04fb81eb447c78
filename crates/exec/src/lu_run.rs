//! Simulated parallel LU factorisation under a column-block distribution
//! (paper Fig. 17).
//!
//! The simulation walks the blocked right-looking factorisation step by
//! step. At step `k` the owner of block column `k` factorises the panel;
//! every processor then updates the trailing block columns it owns. The
//! step cost is the panel time plus the slowest processor's update time,
//! and — crucially — each processor's speed is evaluated **at the problem
//! size it holds at that step** (its share of the shrinking active
//! sub-matrix), which is exactly why the Variable Group Block distribution
//! needs the functional model: "the distribution uses absolute speeds at
//! each step that are calculated based on the size of the problem solved at
//! that step".

use fpm_core::error::{Error, Result};
use fpm_core::speed::SpeedFunction;

use crate::pool::scoped_map;

/// Outcome of a simulated LU run.
#[derive(Debug, Clone)]
pub struct LuRunResult {
    /// Matrix dimension.
    pub n: u64,
    /// Column block width.
    pub block: u64,
    /// Total simulated execution time in seconds.
    pub total_seconds: f64,
    /// Total busy time per processor (diagnostics; excludes waiting).
    pub busy_seconds: Vec<f64>,
    /// Number of steps (block columns) executed.
    pub steps: usize,
}

/// Simulates the factorisation of an `n×n` matrix with block width `block`
/// where column block `j` is owned by processor `block_owner[j]`.
///
/// ```
/// use fpm_core::speed::PiecewiseLinearSpeed;
/// use fpm_exec::lu_run::simulate_lu;
///
/// let fast = PiecewiseLinearSpeed::new(vec![(1e3, 400.0), (1e8, 300.0)])?;
/// let slow = PiecewiseLinearSpeed::new(vec![(1e3, 200.0), (1e8, 150.0)])?;
/// // Eight block columns of width 128, owned round-robin.
/// let owners: Vec<usize> = (0..8).map(|j| j % 2).collect();
/// let run = simulate_lu(1024, 128, &owners, &[fast, slow])?;
/// assert_eq!(run.steps, 8);
/// assert!(run.total_seconds > 0.0);
/// # Ok::<(), fpm_core::error::Error>(())
/// ```
///
/// # Errors
///
/// [`Error::InvalidParameter`] if the owner list does not cover
/// `ceil(n/block)` blocks or names a processor out of range.
pub fn simulate_lu<F: SpeedFunction>(
    n: u64,
    block: u64,
    block_owner: &[usize],
    funcs: &[F],
) -> Result<LuRunResult> {
    let prep = LuPrep::new(n, block, block_owner, funcs)?;
    // Per-processor speed sweep: every step-k lookup hits an abscissa
    // x_of(blocks) with 1 ≤ blocks ≤ initially-owned, so the whole table
    // is computed up front, once per owned-block count.
    let tables: Vec<Vec<f64>> = funcs
        .iter()
        .zip(&prep.initial_owned)
        .map(|(f, &cnt)| prep.sweep_speeds(f, cnt))
        .collect();
    Ok(prep.run(block_owner, tables))
}

/// [`simulate_lu`] with the per-processor speed sweeps executed in
/// parallel on pool-bounded scoped threads. Results are identical; use
/// this variant when the speed models are expensive to evaluate.
pub fn simulate_lu_par<F: SpeedFunction + Sync>(
    n: u64,
    block: u64,
    block_owner: &[usize],
    funcs: &[F],
) -> Result<LuRunResult> {
    let prep = LuPrep::new(n, block, block_owner, funcs)?;
    let initial_owned = prep.initial_owned.clone();
    let tables = scoped_map(funcs, |i, f| prep.sweep_speeds(f, initial_owned[i]));
    Ok(prep.run(block_owner, tables))
}

/// Validated inputs plus the per-processor bookkeeping shared by the
/// sequential and parallel LU simulations.
struct LuPrep {
    n: u64,
    block: u64,
    /// Blocks initially owned by each processor.
    initial_owned: Vec<usize>,
    steps: usize,
}

impl LuPrep {
    fn new<F: SpeedFunction>(
        n: u64,
        block: u64,
        block_owner: &[usize],
        funcs: &[F],
    ) -> Result<Self> {
        if funcs.is_empty() {
            return Err(Error::NoProcessors);
        }
        assert!(block > 0);
        let m = n.div_ceil(block) as usize;
        if block_owner.len() != m {
            return Err(Error::InvalidParameter("block_owner must cover ceil(n/block) blocks"));
        }
        if block_owner.iter().any(|&o| o >= funcs.len()) {
            return Err(Error::InvalidParameter("block owner out of processor range"));
        }
        let mut initial_owned = vec![0usize; funcs.len()];
        for &o in block_owner {
            initial_owned[o] += 1;
        }
        Ok(Self { n, block, initial_owned, steps: m })
    }

    /// Speeds are looked up at the *full-height panel* size
    /// `n × owned columns` (paper Fig. 17c: the problem size at step k
    /// equals the number of elements in the n×n2 panels A_{i,k}) —
    /// every processor keeps its whole column set resident, so the
    /// full-height measure is also what drives paging.
    fn x_of(&self, blocks: f64) -> f64 {
        (blocks * self.block as f64 * self.n as f64).max(1.0)
    }

    /// `speed(x_of(blocks))` for `blocks = 1..=cnt`.
    fn sweep_speeds<F: SpeedFunction>(&self, f: &F, cnt: usize) -> Vec<f64> {
        (1..=cnt).map(|blocks| f.speed(self.x_of(blocks as f64))).collect()
    }

    /// Walks the factorisation using the precomputed speed tables
    /// (`tables[i][blocks-1]` = speed of processor `i` holding `blocks`).
    fn run(&self, block_owner: &[usize], tables: Vec<Vec<f64>>) -> LuRunResult {
        let p = tables.len();
        let b = self.block as f64;
        let mut total = 0.0f64;
        let mut busy = vec![0.0f64; p];
        // Owned trailing block counts, updated incrementally.
        let mut owned_after = self.initial_owned.clone();

        for (k, &owner) in block_owner.iter().enumerate() {
            owned_after[owner] -= 1; // block k leaves the trailing set
            let rows_rem = (self.n - (k as u64) * self.block) as f64; // panel rows
            let rows_after = (self.n as f64 - ((k + 1) as f64) * b).max(0.0);

            // Panel factorisation: ≈ rows_rem·b² flops by the owner, at
            // the size including block k (owned_after[owner] + 1 blocks).
            let panel_flops = rows_rem * b * b;
            let s_owner = tables[owner][owned_after[owner]];
            let panel_time = if s_owner > 0.0 {
                panel_flops / (s_owner * 1e6)
            } else {
                f64::INFINITY
            };
            busy[owner] += panel_time;

            // Trailing updates: 2·rows_after·b² flops per owned block.
            let mut update_time = 0.0f64;
            if rows_after > 0.0 {
                for (i, table) in tables.iter().enumerate() {
                    if owned_after[i] == 0 {
                        continue;
                    }
                    let blocks = owned_after[i] as f64;
                    let flops = 2.0 * rows_after * b * b * blocks;
                    let s_i = table[owned_after[i] - 1];
                    let t = if s_i > 0.0 { flops / (s_i * 1e6) } else { f64::INFINITY };
                    busy[i] += t;
                    update_time = update_time.max(t);
                }
            }
            total += panel_time + update_time;
        }

        LuRunResult {
            n: self.n,
            block: self.block,
            total_seconds: total,
            busy_seconds: busy,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimCluster;
    use fpm_core::partition::{CombinedPartitioner, SingleNumberPartitioner, Partitioner};
    use fpm_core::speed::ConstantSpeed;
    use fpm_kernels::vgb::variable_group_block;
    use fpm_simnet::profile::AppProfile;
    use fpm_simnet::workload;

    #[test]
    fn single_processor_time_matches_flop_count() {
        // One processor at a constant 100 MFlops: total time ≈ (2/3)n³ /
        // 100e6, up to blocked-algorithm bookkeeping.
        let funcs = vec![ConstantSpeed::new(100.0)];
        let n = 512u64;
        let owners = vec![0usize; 16];
        let r = simulate_lu(n, 32, &owners, &funcs).unwrap();
        let expected = 2.0 / 3.0 * (n as f64).powi(3) / (100.0 * 1e6);
        let rel = (r.total_seconds - expected).abs() / expected;
        assert!(rel < 0.25, "simulated {} vs analytic {}", r.total_seconds, expected);
    }

    #[test]
    fn balanced_owners_balance_busy_time() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(100.0)];
        // Round-robin ownership.
        let owners: Vec<usize> = (0..32).map(|k| k % 2).collect();
        let r = simulate_lu(1024, 32, &owners, &funcs).unwrap();
        let rel = (r.busy_seconds[0] - r.busy_seconds[1]).abs() / r.busy_seconds[0];
        assert!(rel < 0.15, "busy {:?}", r.busy_seconds);
    }

    #[test]
    fn skewed_ownership_on_equal_machines_is_slower() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(100.0)];
        let balanced: Vec<usize> = (0..32).map(|k| k % 2).collect();
        let skewed: Vec<usize> = (0..32).map(|k| usize::from(k >= 28)).collect();
        let t_bal = simulate_lu(1024, 32, &balanced, &funcs).unwrap().total_seconds;
        let t_skew = simulate_lu(1024, 32, &skewed, &funcs).unwrap().total_seconds;
        assert!(t_skew > t_bal, "balanced {t_bal} vs skewed {t_skew}");
    }

    #[test]
    fn vgb_functional_beats_single_number_with_paging() {
        // Table 2 LU at a size where several machines page: the VGB
        // distribution derived from the functional model must beat the one
        // derived from single-number speeds sampled at a small matrix.
        let cluster = SimCluster::table2(AppProfile::LuFactorization);
        let n = 24_000u64;
        let b = 256u64;
        let functional =
            variable_group_block(n, b, cluster.funcs(), &CombinedPartitioner::new()).unwrap();
        let single = SingleNumberPartitioner::at_size(workload::lu_elements(2000) as f64);
        let single_vgb = variable_group_block(n, b, cluster.funcs(), &single).unwrap();
        let t_f = simulate_lu(n, b, &functional.block_owner, cluster.funcs())
            .unwrap()
            .total_seconds;
        let t_s =
            simulate_lu(n, b, &single_vgb.block_owner, cluster.funcs()).unwrap().total_seconds;
        assert!(t_f < t_s, "functional {t_f} vs single-number {t_s}");
    }

    #[test]
    fn parallel_sweep_matches_sequential_exactly() {
        let cluster = SimCluster::table2(AppProfile::LuFactorization);
        let n = 8_000u64;
        let b = 256u64;
        let d =
            variable_group_block(n, b, cluster.funcs(), &CombinedPartitioner::new()).unwrap();
        let seq = simulate_lu(n, b, &d.block_owner, cluster.funcs()).unwrap();
        let par = simulate_lu_par(n, b, &d.block_owner, cluster.funcs()).unwrap();
        assert_eq!(seq.total_seconds.to_bits(), par.total_seconds.to_bits());
        assert_eq!(seq.busy_seconds, par.busy_seconds);
        assert_eq!(seq.steps, par.steps);
    }

    #[test]
    fn parallel_sweep_matches_sequential_on_random_adversarial_clusters() {
        // Random heterogeneous clusters (paging machines included): the
        // pooled sweep must be bit-identical to the sequential one, not
        // merely close — pooling must not change evaluation order or
        // floating-point association.
        use fpm_simnet::scenarios::{random_cluster, ScenarioConfig};
        for seed in [0x1u64, 0xA5A5, 0xDEAD_BEEF] {
            let cfg = ScenarioConfig { machines: 9, seed, ..ScenarioConfig::default() };
            let funcs = random_cluster(cfg, AppProfile::LuFactorization);
            let n = 4096u64;
            let b = 128u64;
            let d = variable_group_block(n, b, &funcs, &CombinedPartitioner::new())
                .unwrap_or_else(|e| panic!("seed {seed:#x}: vgb failed: {e:?}"));
            let seq = simulate_lu(n, b, &d.block_owner, &funcs).unwrap();
            let par = simulate_lu_par(n, b, &d.block_owner, &funcs).unwrap();
            assert_eq!(
                seq.total_seconds.to_bits(),
                par.total_seconds.to_bits(),
                "seed {seed:#x}: total time diverged"
            );
            let seq_bits: Vec<u64> = seq.busy_seconds.iter().map(|t| t.to_bits()).collect();
            let par_bits: Vec<u64> = par.busy_seconds.iter().map(|t| t.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "seed {seed:#x}: busy times diverged");
            assert_eq!(seq.steps, par.steps);
        }
    }

    #[test]
    fn owner_list_validation() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        assert!(simulate_lu(64, 32, &[0], &funcs).is_err(), "wrong block count");
        assert!(simulate_lu(64, 32, &[0, 1], &funcs).is_err(), "owner out of range");
        let empty: Vec<ConstantSpeed> = vec![];
        assert!(matches!(simulate_lu(64, 32, &[0, 0], &empty), Err(Error::NoProcessors)));
    }

    #[test]
    fn step_count_is_block_count() {
        let funcs = vec![ConstantSpeed::new(10.0)];
        let r = simulate_lu(100, 32, &[0, 0, 0, 0], &funcs).unwrap();
        assert_eq!(r.steps, 4);
    }

    #[test]
    fn combined_partitioner_balances_lu_on_constant_cluster() {
        let funcs = vec![ConstantSpeed::new(300.0), ConstantSpeed::new(100.0)];
        let d = variable_group_block(2048, 64, &funcs, &CombinedPartitioner::new()).unwrap();
        let r = simulate_lu(2048, 64, &d.block_owner, &funcs).unwrap();
        // The fast processor must be busy a comparable amount of time (3:1
        // speeds, 3:1 blocks → similar busy time).
        let ratio = r.busy_seconds[0] / r.busy_seconds[1];
        assert!((0.5..2.0).contains(&ratio), "busy ratio {ratio}: {:?}", r.busy_seconds);
        // Sanity: the partitioner really was exercised.
        let _ = CombinedPartitioner::new().partition(100, &funcs).unwrap();
    }
}
