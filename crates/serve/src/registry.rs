//! The model registry: named clusters of per-machine performance models,
//! shared across worker threads, addressable by name or by content
//! fingerprint.
//!
//! A machine is modelled either by a speed function (the paper's
//! `(size, speed)` knots) or directly in the time domain (`cost_knots`,
//! `(size, time)` pairs); both erase to [`SharedCost`] for the solver.
//! Either model evaluates with one binary search over its knots, so the
//! registry holds them as they are and the solvers call them directly,
//! with no memo in between. The whole cluster is held behind `Arc` so
//! lookups hand out cheap clones without holding the registry lock during
//! solves.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use fpm_core::cost::{CostFunction, PiecewiseLinearCost};
use fpm_core::speed::builder::BuilderConfig;
use fpm_core::speed::{ModelRefiner, PiecewiseLinearSpeed, RefineConfig, RefineOutcome};
use fpm_exec::model_build::build_cluster_models;
use fpm_simnet::fluctuation::Integration;
use fpm_simnet::profile::AppProfile;
use fpm_simnet::testbeds;

use crate::json::Json;
use crate::protocol::{ClusterRef, ClusterRefView, ClusterSpec, ProtoError, WireModel};

/// A thread-safe cost function: the erased form every registered machine
/// is solved through. Speed machines enter as [`PiecewiseLinearSpeed`]
/// (adapted through the blanket `SpeedFunction → CostFunction` impl, so
/// their floating-point path is unchanged); cost machines enter as
/// [`PiecewiseLinearCost`].
pub type SharedCost = Arc<dyn CostFunction + Send + Sync>;

/// The raw piece-wise model backing one registered machine: either a
/// speed function (the paper's `(size, speed)` knots) or a direct
/// time-domain cost model (`(size, time)` knots from the wire's
/// `cost_knots`).
#[derive(Debug, Clone, PartialEq)]
pub enum MachineModel {
    /// `(size, speed)` knots; refineable via the `report` verb.
    Speed(PiecewiseLinearSpeed),
    /// `(size, time)` knots; solved as-is, not refineable.
    Cost(PiecewiseLinearCost),
}

impl MachineModel {
    /// The knot list, whichever domain it lives in.
    pub fn knots(&self) -> &[(f64, f64)] {
        match self {
            MachineModel::Speed(m) => m.knots(),
            MachineModel::Cost(m) => m.knots(),
        }
    }

    /// True for time-domain (cost) machines.
    pub fn is_cost(&self) -> bool {
        matches!(self, MachineModel::Cost(_))
    }

    /// Domain tag folded into the cluster fingerprint, so a speed model
    /// and a cost model with bit-identical knots never collide.
    fn tag(&self) -> u64 {
        match self {
            MachineModel::Speed(_) => 0,
            MachineModel::Cost(_) => 1,
        }
    }
}

/// One registered cluster. Each snapshot is immutable; an accepted
/// `report` builds a *new* snapshot with the re-fitted model, a bumped
/// [`epoch`](Self::epoch) and a recomputed fingerprint, and swaps it in
/// under the same name (copy-on-write — in-flight solves keep the old
/// `Arc`).
#[derive(Clone)]
pub struct RegisteredCluster {
    /// Registry name.
    pub name: String,
    /// Content fingerprint (16 hex digits of FNV-1a over the knots).
    /// Recomputed after every accepted refinement, so it always reflects
    /// the current epoch's content.
    pub fingerprint: String,
    /// Refinement epoch: 0 at registration, +1 per accepted `report`.
    /// Folded into the plan-cache key so stale plans are never served.
    pub epoch: u64,
    /// The fingerprint of the immediately preceding epoch, if this
    /// snapshot was produced by an accepted `report` (`None` for freshly
    /// registered clusters). Lets the engine warm-start post-refit solves
    /// from the previous epoch's cached plans — safe because warm starts
    /// only seed a bracket, never reuse counts.
    pub prev_fingerprint: Option<String>,
    /// Machine names, in model order.
    pub machine_names: Vec<String>,
    /// The cost functions the engine solves over: `models`, erased.
    pub funcs: Vec<SharedCost>,
    /// The piece-wise models backing `funcs` — the refiner's input for
    /// speed machines and the fingerprint's input for all of them.
    pub models: Vec<MachineModel>,
    /// Reports that produced a re-fit.
    pub refine_accepted: u64,
    /// Reports absorbed or discarded without a re-fit.
    pub refine_rejected: u64,
    /// Per-machine refiner state (pending corroboration queues).
    refiners: Vec<ModelRefiner>,
}

impl RegisteredCluster {
    /// True when at least one machine is a time-domain cost model —
    /// i.e. the cluster registered nonlinear per-machine costs. Drives
    /// the context-sensitive algorithm suggestions in the server's
    /// unknown-algorithm error.
    pub fn has_cost_models(&self) -> bool {
        self.models.iter().any(MachineModel::is_cost)
    }
}

impl std::fmt::Debug for RegisteredCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredCluster")
            .field("name", &self.name)
            .field("fingerprint", &self.fingerprint)
            .field("epoch", &self.epoch)
            .field("machine_names", &self.machine_names)
            .finish_non_exhaustive()
    }
}

/// What a `report` did, as rendered in the wire reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOutcome {
    /// Whether the observation re-fitted the model (and bumped the epoch).
    pub accepted: bool,
    /// `"refined"` or the reject reason (`"in_band"`, `"pending"`,
    /// `"outlier"`, …).
    pub reason: &'static str,
    /// The cluster's epoch after the report.
    pub epoch: u64,
    /// The cluster's fingerprint after the report.
    pub fingerprint: String,
    /// Name of the machine the observation applied to.
    pub machine: String,
}

/// Named-cluster registry. All methods take `&self`; interior mutability
/// via one `RwLock` (registrations are rare, lookups are the hot path).
pub struct Registry {
    inner: RwLock<Maps>,
    max_clusters: usize,
}

#[derive(Default)]
struct Maps {
    by_name: HashMap<String, Arc<RegisteredCluster>>,
    by_fp: HashMap<String, Arc<RegisteredCluster>>,
}

impl Maps {
    /// Re-aims the `by_fp` alias of `fp` after a name moved off it.
    ///
    /// Names with equal knots share one fingerprint, so the alias may be
    /// the snapshot that was just replaced. It must never stay there: a
    /// later `report` by fingerprint would clone that snapshot back in
    /// and roll its name back to an older epoch. The alias moves to the
    /// current snapshot of the first name (in name order) still holding
    /// `fp`, or goes when none does.
    fn release_fingerprint(&mut self, fp: &str) {
        let holder = self
            .by_name
            .values()
            .filter(|c| c.fingerprint == fp)
            .min_by(|a, b| a.name.cmp(&b.name))
            .cloned();
        match holder {
            Some(c) => self.by_fp.insert(fp.to_owned(), c),
            None => self.by_fp.remove(fp),
        };
    }
}

impl Registry {
    /// Creates a registry bounded to `max_clusters` names.
    pub fn new(max_clusters: usize) -> Self {
        Self { inner: RwLock::new(Maps::default()), max_clusters }
    }

    /// Registers (or replaces) `name`, returning the stored cluster.
    pub fn register(
        &self,
        name: &str,
        spec: &ClusterSpec,
    ) -> Result<Arc<RegisteredCluster>, ProtoError> {
        let (machine_names, models) = materialise(spec)?;
        let fingerprint = fingerprint_models(&models);
        let funcs: Vec<SharedCost> = models
            .iter()
            .map(|m| match m {
                MachineModel::Speed(m) => Arc::new(m.clone()) as SharedCost,
                MachineModel::Cost(m) => Arc::new(m.clone()) as SharedCost,
            })
            .collect();
        let refiners = models.iter().map(|_| ModelRefiner::new(RefineConfig::default())).collect();
        let cluster = Arc::new(RegisteredCluster {
            name: name.to_owned(),
            fingerprint,
            epoch: 0,
            prev_fingerprint: None,
            machine_names,
            funcs,
            models,
            refine_accepted: 0,
            refine_rejected: 0,
            refiners,
        });
        let mut maps = self.inner.write().expect("registry lock poisoned");
        if !maps.by_name.contains_key(name) && maps.by_name.len() >= self.max_clusters {
            return Err(ProtoError::new("bad_request", "registry full"));
        }
        if let Some(old) = maps.by_name.insert(name.to_owned(), Arc::clone(&cluster)) {
            maps.release_fingerprint(&old.fingerprint);
        }
        maps.by_fp.insert(cluster.fingerprint.clone(), Arc::clone(&cluster));
        Ok(cluster)
    }

    /// Looks a cluster up by name or fingerprint.
    pub fn lookup(&self, target: &ClusterRef) -> Result<Arc<RegisteredCluster>, ProtoError> {
        let view = match target {
            ClusterRef::Name(name) => ClusterRefView::Name(name),
            ClusterRef::Fingerprint(fp) => ClusterRefView::Fingerprint(fp),
        };
        self.lookup_ref(view)
    }

    /// Borrowed-key lookup for the event loop's hot path: no owned
    /// [`ClusterRef`] is materialised, the target stays a slice into the
    /// request frame. Error allocation only happens on the miss path.
    pub fn lookup_ref(
        &self,
        target: ClusterRefView<'_>,
    ) -> Result<Arc<RegisteredCluster>, ProtoError> {
        let maps = self.inner.read().expect("registry lock poisoned");
        let found = match target {
            ClusterRefView::Name(name) => maps.by_name.get(name),
            ClusterRefView::Fingerprint(fp) => maps.by_fp.get(fp),
        };
        found.cloned().ok_or_else(|| match target {
            ClusterRefView::Name(name) => {
                ProtoError::new("not_found", format!("no cluster named {name:?}"))
            }
            ClusterRefView::Fingerprint(fp) => {
                ProtoError::new("not_found", format!("no cluster with fingerprint {fp:?}"))
            }
        })
    }

    /// Feeds one observed execution time into a cluster's refiner.
    ///
    /// `machine` indexes into the cluster's model order, `x` is the
    /// problem size the machine processed and `elapsed_us` the measured
    /// wall time; the observed speed is `x / elapsed_seconds` (the trait
    /// convention `time(x) = x / s(x)` inverted). An accepted observation
    /// re-fits the machine's model, bumps the epoch and recomputes the
    /// fingerprint; the refined cluster stays addressable under its
    /// original name. Rejected observations (in-band noise, pending
    /// corroboration, outliers) only advance the reject counter — the
    /// epoch, fingerprint and models are untouched.
    pub fn report(
        &self,
        target: ClusterRefView<'_>,
        machine: usize,
        x: f64,
        elapsed_us: f64,
    ) -> Result<ReportOutcome, ProtoError> {
        if !x.is_finite() || x <= 0.0 || !elapsed_us.is_finite() || elapsed_us <= 0.0 {
            return Err(ProtoError::new(
                "bad_request",
                "report needs positive finite x and elapsed_us",
            ));
        }
        let mut maps = self.inner.write().expect("registry lock poisoned");
        let old = match target {
            ClusterRefView::Name(name) => maps.by_name.get(name),
            ClusterRefView::Fingerprint(fp) => maps.by_fp.get(fp),
        }
        .cloned()
        .ok_or_else(|| match target {
            ClusterRefView::Name(name) => {
                ProtoError::new("not_found", format!("no cluster named {name:?}"))
            }
            ClusterRefView::Fingerprint(fp) => {
                ProtoError::new("not_found", format!("no cluster with fingerprint {fp:?}"))
            }
        })?;
        if machine >= old.machine_names.len() {
            return Err(ProtoError::new(
                "bad_request",
                format!(
                    "machine index {machine} out of range (cluster has {} machines)",
                    old.machine_names.len()
                ),
            ));
        }
        let s_obs = x / (elapsed_us * 1e-6);
        if !s_obs.is_finite() {
            return Err(ProtoError::new("bad_request", "observed speed overflows"));
        }

        let mut next = (*old).clone();
        let MachineModel::Speed(base) = next.models[machine].clone() else {
            // Online refinement re-fits *speed* observations; a machine
            // registered with cost_knots has no speed model to re-fit.
            return Err(ProtoError::new(
                "bad_request",
                format!(
                    "machine {:?} is a cost model; report refinement applies to speed machines only",
                    old.machine_names[machine]
                ),
            ));
        };
        let outcome = next.refiners[machine].observe(&base, x, s_obs);
        let reason = outcome.reason();
        let accepted = outcome.accepted();
        if let RefineOutcome::Refined(model) = outcome {
            next.funcs[machine] = Arc::new(model.clone());
            next.models[machine] = MachineModel::Speed(model);
            next.prev_fingerprint = Some(old.fingerprint.clone());
            next.fingerprint = fingerprint_models(&next.models);
            next.epoch += 1;
            next.refine_accepted += 1;
        } else {
            next.refine_rejected += 1;
        }
        let next = Arc::new(next);
        maps.by_name.insert(next.name.clone(), Arc::clone(&next));
        if next.fingerprint != old.fingerprint {
            maps.release_fingerprint(&old.fingerprint);
        }
        maps.by_fp.insert(next.fingerprint.clone(), Arc::clone(&next));
        Ok(ReportOutcome {
            accepted,
            reason,
            epoch: next.epoch,
            fingerprint: next.fingerprint.clone(),
            machine: next.machine_names[machine].clone(),
        })
    }

    /// Per-cluster refinement state for the `stats` verb, sorted by name:
    /// `[{name, fingerprint, epoch, machines, refine_accepted,
    /// refine_rejected}, …]`.
    pub fn clusters_json(&self) -> Json {
        let maps = self.inner.read().expect("registry lock poisoned");
        let mut clusters: Vec<&Arc<RegisteredCluster>> = maps.by_name.values().collect();
        clusters.sort_by(|a, b| a.name.cmp(&b.name));
        Json::Arr(
            clusters
                .into_iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(c.name.clone())),
                        ("fingerprint".into(), Json::str(c.fingerprint.clone())),
                        ("epoch".into(), Json::uint(c.epoch)),
                        ("machines".into(), Json::uint(c.machine_names.len() as u64)),
                        (
                            "cost_machines".into(),
                            Json::uint(c.models.iter().filter(|m| m.is_cost()).count() as u64),
                        ),
                        ("refine_accepted".into(), Json::uint(c.refine_accepted)),
                        ("refine_rejected".into(), Json::uint(c.refine_rejected)),
                    ])
                })
                .collect(),
        )
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.inner.read().expect("registry lock poisoned").by_name.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Turns a wire spec into concrete piece-wise models.
fn materialise(spec: &ClusterSpec) -> Result<(Vec<String>, Vec<MachineModel>), ProtoError> {
    match spec {
        ClusterSpec::Inline(wire) => {
            let mut names = Vec::with_capacity(wire.len());
            let mut models = Vec::with_capacity(wire.len());
            for WireModel { name, knots, cost } in wire {
                let model = if *cost {
                    PiecewiseLinearCost::new(knots.clone()).map(MachineModel::Cost)
                } else {
                    PiecewiseLinearSpeed::new(knots.clone()).map(MachineModel::Speed)
                }
                .map_err(|e| {
                    ProtoError::new("invalid_model", format!("machine {name:?}: {e}"))
                })?;
                names.push(name.clone());
                models.push(model);
            }
            Ok((names, models))
        }
        ClusterSpec::Testbed { name, app, seed } => {
            let specs = match name.as_str() {
                "table1" => testbeds::table1(),
                "table2" => testbeds::table2(),
                other => {
                    return Err(ProtoError::new(
                        "bad_request",
                        format!("unknown testbed {other:?} (table1|table2)"),
                    ))
                }
            };
            let app = match app.as_str() {
                "mm" => AppProfile::MatrixMult,
                "mm-atlas" => AppProfile::MatrixMultAtlas,
                "arrayops" => AppProfile::ArrayOpsF,
                "lu" => AppProfile::LuFactorization,
                other => {
                    return Err(ProtoError::new(
                        "bad_request",
                        format!("unknown app {other:?} (mm|mm-atlas|arrayops|lu)"),
                    ))
                }
            };
            let built = build_cluster_models(
                &specs,
                app,
                Integration::Dedicated,
                *seed,
                BuilderConfig::default(),
            )
            .map_err(|e| ProtoError::new("invalid_model", format!("testbed build failed: {e}")))?;
            Ok((built.names, built.models.into_iter().map(MachineModel::Speed).collect()))
        }
    }
}

/// Content fingerprint of a model set: FNV-1a 64 over machine count and,
/// per machine, a domain tag (0 = speed knots, 1 = cost knots) followed by
/// every knot's raw bits, rendered as 16 lowercase hex digits. Two
/// clusters fingerprint equal iff their models are bit-identical *in the
/// same domain*, which is exactly the condition under which cached plans
/// transfer — the tag keeps a speed model and a cost model with identical
/// knot bits from colliding.
pub fn fingerprint_models(models: &[MachineModel]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(models.len() as u64);
    for m in models {
        eat(m.tag());
        let knots = m.knots();
        eat(knots.len() as u64);
        for &(x, s) in knots {
            eat(x.to_bits());
            eat(s.to_bits());
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline_spec(scale: f64) -> ClusterSpec {
        ClusterSpec::Inline(vec![
            WireModel {
                name: "A".into(),
                knots: vec![(1e3, 200.0 * scale), (1e6, 180.0 * scale), (1e8, 0.0)],
                cost: false,
            },
            WireModel {
                name: "B".into(),
                knots: vec![(1e3, 100.0 * scale), (1e6, 90.0 * scale), (1e8, 0.0)],
                cost: false,
            },
        ])
    }

    /// A mixed cluster: one speed machine, one time-domain cost machine.
    fn mixed_spec() -> ClusterSpec {
        ClusterSpec::Inline(vec![
            WireModel {
                name: "S".into(),
                knots: vec![(1e3, 200.0), (1e6, 180.0), (1e8, 0.0)],
                cost: false,
            },
            WireModel {
                name: "C".into(),
                knots: vec![(1e3, 100.0), (1e6, 5_000.0)],
                cost: true,
            },
        ])
    }

    fn speed_at(m: &MachineModel, x: f64) -> f64 {
        let MachineModel::Speed(m) = m else { panic!("expected a speed machine") };
        use fpm_core::speed::SpeedFunction;
        m.speed(x)
    }

    #[test]
    fn registers_and_looks_up_by_name_and_fingerprint() {
        let reg = Registry::new(8);
        let c = reg.register("c1", &inline_spec(1.0)).unwrap();
        assert_eq!(c.machine_names, ["A", "B"]);
        assert_eq!(c.fingerprint.len(), 16);
        let by_name = reg.lookup(&ClusterRef::Name("c1".into())).unwrap();
        let by_fp = reg.lookup(&ClusterRef::Fingerprint(c.fingerprint.clone())).unwrap();
        assert_eq!(by_name.fingerprint, by_fp.fingerprint);
        assert!(reg.lookup(&ClusterRef::Name("nope".into())).is_err());
    }

    #[test]
    fn fingerprints_track_content_not_names() {
        let reg = Registry::new(8);
        let a = reg.register("a", &inline_spec(1.0)).unwrap();
        let b = reg.register("b", &inline_spec(1.0)).unwrap();
        let c = reg.register("c", &inline_spec(2.0)).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "same content, same fingerprint");
        assert_ne!(a.fingerprint, c.fingerprint, "different content");
    }

    #[test]
    fn reregistration_replaces_and_drops_stale_fingerprint() {
        let reg = Registry::new(8);
        let old = reg.register("c", &inline_spec(1.0)).unwrap();
        let new = reg.register("c", &inline_spec(3.0)).unwrap();
        assert_ne!(old.fingerprint, new.fingerprint);
        assert!(reg.lookup(&ClusterRef::Fingerprint(old.fingerprint.clone())).is_err());
        assert!(reg.lookup(&ClusterRef::Fingerprint(new.fingerprint.clone())).is_ok());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn reregistration_keeps_fingerprint_shared_with_another_name() {
        let reg = Registry::new(8);
        let shared = reg.register("a", &inline_spec(1.0)).unwrap();
        reg.register("b", &inline_spec(1.0)).unwrap();
        // Re-point "a" elsewhere; "b" still owns the old content.
        reg.register("a", &inline_spec(2.0)).unwrap();
        assert!(reg
            .lookup(&ClusterRef::Fingerprint(shared.fingerprint.clone()))
            .is_ok());
    }

    /// The `by_fp` alias of `fp` must be a snapshot that some name
    /// currently holds, never one a later write replaced.
    fn assert_alias_is_current(reg: &Registry, fp: &str) {
        let aliased = reg.lookup_ref(ClusterRefView::Fingerprint(fp)).unwrap();
        let current = reg.lookup_ref(ClusterRefView::Name(&aliased.name)).unwrap();
        assert!(
            Arc::ptr_eq(&aliased, &current),
            "fingerprint {fp} aliases a replaced snapshot of {:?} (epoch {} vs {})",
            aliased.name,
            aliased.epoch,
            current.epoch
        );
    }

    #[test]
    fn report_by_shared_fingerprint_never_rolls_back_a_refit() {
        let reg = Registry::new(8);
        reg.register("b", &inline_spec(1.0)).unwrap();
        let a0 = reg.register("a", &inline_spec(1.0)).unwrap();
        let shared = a0.fingerprint.clone();
        let x = 5e5;
        let slow = speed_at(&a0.models[0], x) * 0.7;
        reg.report(ClusterRefView::Name("a"), 0, x, elapsed_us_for(x, slow)).unwrap();
        let refit = reg.report(ClusterRefView::Name("a"), 0, x, elapsed_us_for(x, slow)).unwrap();
        assert!(refit.accepted);
        assert_eq!(refit.epoch, 1);
        assert_alias_is_current(&reg, &shared);

        // An in-band report by the shared fingerprint lands on "b", the
        // name still holding that content; "a" keeps its refit.
        let in_band = speed_at(&a0.models[0], x) * 1.02;
        let out = reg
            .report(ClusterRefView::Fingerprint(&shared), 0, x, elapsed_us_for(x, in_band))
            .unwrap();
        assert_eq!((out.reason, out.epoch), ("in_band", 0));
        let a = reg.lookup(&ClusterRef::Name("a".into())).unwrap();
        assert_eq!(a.epoch, 1, "epochs never decrease");
        assert_eq!(a.fingerprint, refit.fingerprint);
        let b = reg.lookup(&ClusterRef::Name("b".into())).unwrap();
        assert_eq!(b.refine_rejected, 1);
        assert_alias_is_current(&reg, &shared);
    }

    #[test]
    fn report_by_shared_fingerprint_never_reverts_a_reregistration() {
        let reg = Registry::new(8);
        reg.register("b", &inline_spec(1.0)).unwrap();
        let a0 = reg.register("a", &inline_spec(1.0)).unwrap();
        let a1 = reg.register("a", &inline_spec(2.0)).unwrap();
        assert_alias_is_current(&reg, &a0.fingerprint);

        let x = 5e5;
        let in_band = speed_at(&a0.models[0], x) * 1.02;
        reg.report(ClusterRefView::Fingerprint(&a0.fingerprint), 0, x, elapsed_us_for(x, in_band))
            .unwrap();
        let a = reg.lookup(&ClusterRef::Name("a".into())).unwrap();
        assert_eq!(a.fingerprint, a1.fingerprint, "\"a\" keeps its re-registered knots");
        assert_eq!(a.models, a1.models);
        let b = reg.lookup(&ClusterRef::Name("b".into())).unwrap();
        assert_eq!(b.refine_rejected, 1);
        assert_alias_is_current(&reg, &a0.fingerprint);
    }

    /// Compile-time audit of the `Send + Sync` surface: every model a
    /// registry shares across threads via `Arc` must be `Send + Sync`,
    /// and the erased forms must still satisfy the solver contract.
    #[test]
    fn send_sync_surface_is_as_documented() {
        use fpm_core::speed::{AnalyticSpeed, ConstantSpeed, ScaledSpeed, SpeedFunction};

        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_cost_function<T: CostFunction>() {}

        assert_send_sync::<ConstantSpeed>();
        assert_send_sync::<AnalyticSpeed>();
        assert_send_sync::<PiecewiseLinearSpeed>();
        assert_send_sync::<ScaledSpeed<PiecewiseLinearSpeed>>();
        assert_send_sync::<PiecewiseLinearCost>();
        // The shape a registry actually stores: shared, dynamically typed.
        assert_send_sync::<SharedCost>();
        assert_send_sync::<Vec<SharedCost>>();
        assert_send_sync::<Arc<dyn SpeedFunction + Send + Sync>>();
        assert_send_sync::<RegisteredCluster>();
        assert_send_sync::<Registry>();
        // A shared speed model is a cost function through the blanket
        // adapter; a `SharedCost` is one through its borrow.
        assert_cost_function::<Arc<dyn SpeedFunction + Send + Sync>>();
        assert_cost_function::<&(dyn CostFunction + Send + Sync)>();
    }

    #[test]
    fn registry_capacity_is_enforced() {
        let reg = Registry::new(2);
        reg.register("a", &inline_spec(1.0)).unwrap();
        reg.register("b", &inline_spec(2.0)).unwrap();
        let err = reg.register("c", &inline_spec(3.0)).unwrap_err();
        assert_eq!(err.code, "bad_request");
        // Replacing an existing name is always allowed.
        reg.register("a", &inline_spec(4.0)).unwrap();
    }

    #[test]
    fn testbed_specs_build_deterministically() {
        let reg = Registry::new(8);
        let spec = ClusterSpec::Testbed { name: "table1".into(), app: "mm".into(), seed: 7 };
        let x = reg.register("x", &spec).unwrap();
        let y = reg.register("y", &spec).unwrap();
        assert_eq!(x.fingerprint, y.fingerprint, "same seed must rebuild identically");
        assert_eq!(x.machine_names.len(), 4);
    }

    /// Microseconds a machine of speed `s` needs for size `x`.
    fn elapsed_us_for(x: f64, s: f64) -> f64 {
        x / s * 1e6
    }

    #[test]
    fn corroborated_report_refits_and_bumps_epoch() {
        let reg = Registry::new(8);
        let c0 = reg.register("c", &inline_spec(1.0)).unwrap();
        assert_eq!(c0.epoch, 0);
        let x = 5e5;
        let slow = speed_at(&c0.models[0], x) * 0.7;
        let view = ClusterRefView::Name("c");

        let first = reg.report(view, 0, x, elapsed_us_for(x, slow)).unwrap();
        assert!(!first.accepted);
        assert_eq!(first.reason, "pending");
        assert_eq!(first.epoch, 0);
        assert_eq!(first.fingerprint, c0.fingerprint, "no refit, no new content");

        let second = reg.report(view, 0, x, elapsed_us_for(x, slow)).unwrap();
        assert!(second.accepted, "corroborated drift must refit");
        assert_eq!(second.reason, "refined");
        assert_eq!(second.epoch, 1);
        assert_ne!(second.fingerprint, c0.fingerprint);
        assert_eq!(second.machine, "A");

        // Still addressable by the original name; fingerprint follows the
        // refined content, and the stale fingerprint alias is gone. The
        // previous epoch's fingerprint is kept for warm-start donor lookups.
        let now = reg.lookup(&ClusterRef::Name("c".into())).unwrap();
        assert_eq!(now.epoch, 1);
        assert_eq!(now.prev_fingerprint.as_deref(), Some(c0.fingerprint.as_str()));
        assert!(c0.prev_fingerprint.is_none(), "fresh registrations have no predecessor");
        assert_eq!(now.fingerprint, second.fingerprint);
        assert!((speed_at(&now.models[0], x) - slow).abs() <= 1e-9 * slow);
        assert_eq!(now.refine_accepted, 1);
        assert_eq!(now.refine_rejected, 1, "the pending sample counts as rejected");
        assert!(reg.lookup(&ClusterRef::Fingerprint(c0.fingerprint.clone())).is_err());
        assert!(reg.lookup(&ClusterRef::Fingerprint(second.fingerprint.clone())).is_ok());
    }

    #[test]
    fn rejected_reports_never_bump_epoch() {
        let reg = Registry::new(8);
        let c0 = reg.register("c", &inline_spec(1.0)).unwrap();
        let x = 5e5;
        let in_band = speed_at(&c0.models[0], x) * 1.02;
        let out = reg.report(ClusterRefView::Name("c"), 0, x, elapsed_us_for(x, in_band)).unwrap();
        assert!(!out.accepted);
        assert_eq!(out.reason, "in_band");
        assert_eq!(out.epoch, 0);
        assert_eq!(out.fingerprint, c0.fingerprint);
        let now = reg.lookup(&ClusterRef::Name("c".into())).unwrap();
        assert_eq!((now.epoch, now.refine_accepted, now.refine_rejected), (0, 0, 1));

        // Structured errors for malformed targets and observations.
        let err = reg.report(ClusterRefView::Name("ghost"), 0, x, 1e3).unwrap_err();
        assert_eq!(err.code, "not_found");
        let err = reg.report(ClusterRefView::Name("c"), 99, x, 1e3).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let err = reg.report(ClusterRefView::Name("c"), 0, x, -1.0).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let err = reg.report(ClusterRefView::Name("c"), 0, f64::NAN, 1e3).unwrap_err();
        assert_eq!(err.code, "bad_request");
        // None of the failures moved the epoch.
        assert_eq!(reg.lookup(&ClusterRef::Name("c".into())).unwrap().epoch, 0);
    }

    #[test]
    fn clusters_json_reports_epoch_and_counters() {
        let reg = Registry::new(8);
        reg.register("beta", &inline_spec(1.0)).unwrap();
        reg.register("alpha", &inline_spec(2.0)).unwrap();
        let Json::Arr(items) = reg.clusters_json() else { panic!("expected array") };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("name").and_then(Json::as_str), Some("alpha"), "sorted");
        assert_eq!(items[1].get("name").and_then(Json::as_str), Some("beta"));
        assert_eq!(items[0].get("epoch").and_then(Json::as_u64), Some(0));
        assert_eq!(items[0].get("machines").and_then(Json::as_u64), Some(2));
        assert_eq!(items[0].get("refine_accepted").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let reg = Registry::new(8);
        let bad_tb = ClusterSpec::Testbed { name: "table9".into(), app: "mm".into(), seed: 0 };
        assert_eq!(reg.register("x", &bad_tb).unwrap_err().code, "bad_request");
        let bad_app = ClusterSpec::Testbed { name: "table1".into(), app: "??".into(), seed: 0 };
        assert_eq!(reg.register("x", &bad_app).unwrap_err().code, "bad_request");
        // Non-monotone knots violate the model requirements.
        let bad_model = ClusterSpec::Inline(vec![WireModel {
            name: "Z".into(),
            knots: vec![(1e6, 10.0), (1e3, 20.0)],
            cost: false,
        }]);
        assert_eq!(reg.register("x", &bad_model).unwrap_err().code, "invalid_model");
        // Cost knots must be strictly increasing in time: a decreasing
        // time column is rejected at materialisation.
        let bad_cost = ClusterSpec::Inline(vec![WireModel {
            name: "Z".into(),
            knots: vec![(1e3, 50.0), (1e6, 10.0)],
            cost: true,
        }]);
        assert_eq!(reg.register("x", &bad_cost).unwrap_err().code, "invalid_model");
        assert!(reg.is_empty());
    }

    #[test]
    fn cost_machines_register_solve_and_fingerprint_by_domain() {
        let reg = Registry::new(8);
        let c = reg.register("mix", &mixed_spec()).unwrap();
        assert!(c.has_cost_models());
        assert_eq!(c.machine_names, ["S", "C"]);
        // The erased funcs are solvable directly in the time domain.
        let t = c.funcs[1].time(1e6);
        assert!((t - 5_000.0).abs() < 1e-9, "cost machine evaluates its own knots: {t}");
        // Same knot bits, different domain → different fingerprint.
        let as_speed = ClusterSpec::Inline(vec![
            WireModel {
                name: "S".into(),
                knots: vec![(1e3, 200.0), (1e6, 180.0), (1e8, 0.0)],
                cost: false,
            },
            WireModel {
                name: "C".into(),
                knots: vec![(1e3, 100.0), (1e6, 5_000.0)],
                cost: false,
            },
        ]);
        let d = reg.register("allspeed", &as_speed).unwrap();
        assert!(!d.has_cost_models());
        assert_ne!(c.fingerprint, d.fingerprint, "domain tag must split the fingerprints");
        // clusters_json reports the cost-machine count.
        let Json::Arr(items) = reg.clusters_json() else { panic!("expected array") };
        let mix = items.iter().find(|i| i.get("name").and_then(Json::as_str) == Some("mix"));
        assert_eq!(mix.unwrap().get("cost_machines").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn reports_on_cost_machines_are_rejected() {
        let reg = Registry::new(8);
        let c0 = reg.register("mix", &mixed_spec()).unwrap();
        // Machine 0 is a speed machine: reports flow normally.
        let ok = reg.report(ClusterRefView::Name("mix"), 0, 5e5, 1e6).unwrap();
        assert!(!ok.accepted, "first drift sample is pending, not refined");
        // Machine 1 is a cost machine: refinement has no speed model to fit.
        let err = reg.report(ClusterRefView::Name("mix"), 1, 5e5, 1e6).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("cost model"), "{}", err.message);
        // The failed report moved nothing.
        let now = reg.lookup(&ClusterRef::Name("mix".into())).unwrap();
        assert_eq!(now.epoch, 0);
        assert_eq!(now.fingerprint, c0.fingerprint);
    }
}
