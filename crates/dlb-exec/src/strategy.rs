//! Pluggable load-balancing strategies: the [`Policy`] trait and the zoo.
//!
//! The paper is a *comparison of load-balancing strategies*; this module makes
//! the comparison axis first-class. A [`Policy`] is a stateless singleton
//! describing one strategy through two surfaces:
//!
//! * a **plan-time allocation hook** ([`Policy::constrains_threads`] /
//!   [`Policy::allocate`]) — how a node's threads are statically assigned to
//!   operators before execution, with access to the (possibly distorted) cost
//!   model. FP lives here; DP returns `None` (any thread, any operator).
//! * a **run-time balancing hook** ([`Policy::starving_scope`],
//!   [`Policy::steal_provider`], [`Policy::push_config`], …) — steal and
//!   push decisions, consulted from the batched event loop.
//!
//! A [`Strategy`] value is a `Copy` handle pairing a `&'static dyn Policy`
//! with its parameter vector — cheap to pass around, comparable, and
//! fingerprintable into the run cache (`dlb_core::RunKey`) by name + parameter
//! bit patterns. The registered zoo is enumerated by [`policies`]; scenario
//! specs refer to policies by [`Policy::name`] with optional parameter maps.

use dlb_query::cost::CostModel;
use dlb_query::plan::ParallelPlan;
use rand::rngs::StdRng;
use std::fmt;

use crate::fp::ThreadAssignment;

/// One tunable parameter of a policy: its spec name and default value.
///
/// Parameter order is part of a policy's public identity: scenario serde,
/// labels and `RunKey` fingerprints all follow the order of
/// [`Policy::params`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamSpec {
    /// Parameter name as spelled in scenario specs (e.g. `error_rate`).
    pub name: &'static str,
    /// Default value when a spec names the policy without parameters.
    pub default: f64,
}

/// How a policy reacts when a whole node runs out of eligible work
/// (the §3.2 acquisition protocol's *Starving* trigger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealScope {
    /// Never requests remote work (SP has no queues; Threshold is
    /// sender-initiated, so receivers stay passive).
    None,
    /// One untargeted request on behalf of the whole node; providers offer
    /// their most loaded eligible queue (DP, Diffusion).
    Node,
    /// One targeted request per starving operator the requesting thread is
    /// allowed to process (FP: static allocation means only the *same*
    /// operator's remote queue is eligible).
    TargetedOps,
}

/// Sender-initiated push thresholds (the `Threshold` policy): a node whose
/// queued-tuple load exceeds `hi` probes a neighbour; the neighbour accepts
/// when its own load is below `lo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushConfig {
    /// Queued-tuple load above which a node tries to push work away.
    pub hi: f64,
    /// Queued-tuple load below which a probed node accepts pushed work.
    pub lo: f64,
}

/// A load-balancing policy: identity + plan-time allocation + run-time
/// balancing decisions. Implementations are stateless `'static` singletons;
/// per-run parameters travel in the [`Strategy`] handle and are passed back
/// into every hook that needs them.
pub trait Policy: Sync {
    /// Stable short name: spec spelling, column label stem, `RunKey` tag.
    fn name(&self) -> &'static str;

    /// One-line description for `scenario --strategies`.
    fn summary(&self) -> &'static str;

    /// Where the policy comes from (paper section or related work).
    fn citation(&self) -> &'static str;

    /// The policy's tunable parameters, in identity order (at most
    /// [`MAX_PARAMS`]).
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }

    /// Whether the policy statically restricts which operators each thread
    /// may process (plan-time surface; FP-style allocation).
    fn constrains_threads(&self) -> bool {
        false
    }

    /// Plan-time thread→operator allocation for one node, given the cost
    /// model and the strategy RNG stream. `None` means every thread may
    /// process every operator. Only consulted when
    /// [`Policy::constrains_threads`] is true.
    fn allocate(
        &self,
        _params: &Params,
        _plan: &ParallelPlan,
        _processors: u32,
        _cost: &CostModel,
        _rng: &mut StdRng,
    ) -> Option<ThreadAssignment> {
        None
    }

    /// Whether the policy executes on the queue-based activation engine.
    /// `false` selects the analytic Synchronous Pipelining model (single
    /// shared-memory node only).
    fn queue_based(&self) -> bool {
        true
    }

    /// What a fully starving node does (see [`StealScope`]).
    fn starving_scope(&self) -> StealScope {
        StealScope::None
    }

    /// Whether node `to` is a candidate provider for a steal request from
    /// node `from` on an `nodes`-node machine. The default lets any remote
    /// node provide; neighbourhood-limited policies (Diffusion) narrow it.
    fn steal_provider(&self, _params: &Params, from: usize, to: usize, _nodes: usize) -> bool {
        from != to
    }

    /// Whether offer arbitration prefers providers whose hash table is
    /// already cached on the requester (DP's table-affinity tie-break).
    fn prefers_cached_tables(&self) -> bool {
        false
    }

    /// Sender-initiated push thresholds, when the policy pushes work from
    /// overloaded nodes instead of (or in addition to) pulling into starving
    /// ones. `None` disables the push path entirely.
    fn push_config(&self, _params: &Params) -> Option<PushConfig> {
        None
    }
}

/// Maximum number of parameters a policy may declare (sized so a parameter
/// vector stays `Copy` and fingerprints into a fixed-width `RunKey` field).
pub const MAX_PARAMS: usize = 2;

/// Parameter values of one [`Strategy`] handle, in [`Policy::params`] order
/// (unused trailing slots hold `0.0`).
#[derive(Debug, Clone, Copy)]
pub struct Params(pub [f64; MAX_PARAMS]);

/// The execution strategy to evaluate: a registered [`Policy`] plus its
/// parameter values. `Copy`, comparable, and hashable by (name, parameter
/// bits) — the same identity the run cache fingerprints.
#[derive(Clone, Copy)]
pub struct Strategy {
    policy: &'static dyn Policy,
    params: Params,
}

impl Strategy {
    /// **Dynamic Processing** (DP) — the paper's contribution: no static
    /// association between threads and operators; any thread of an SM-node
    /// processes any unblocked activation of that node; global load sharing
    /// only when the whole node starves.
    pub const fn dynamic() -> Self {
        Self {
            policy: &DpPolicy,
            params: Params([0.0; MAX_PARAMS]),
        }
    }

    /// **Fixed Processing** (FP) — shared-nothing style static allocation of
    /// processors to operators, proportional to estimated operator
    /// complexity, with intra-operator load balancing only. `error_rate`
    /// injects relative errors into the cardinality estimates used for the
    /// allocation (Figure 7).
    pub const fn fixed(error_rate: f64) -> Self {
        Self {
            policy: &FpPolicy,
            params: Params([error_rate, 0.0]),
        }
    }

    /// **Synchronous Pipelining** (SP) — the shared-memory reference model
    /// where every processor executes whole pipeline chains through procedure
    /// calls. Only valid on single-node (shared-memory) configurations.
    pub const fn synchronous() -> Self {
        Self {
            policy: &SpPolicy,
            params: Params([0.0; MAX_PARAMS]),
        }
    }

    /// **Diffusion** nearest-neighbour balancing (Demirel & Sbalzarini):
    /// starving nodes pull only from ring neighbours within `radius` hops, so
    /// load diffuses through the topology instead of being arbitrated
    /// globally.
    pub const fn diffusion(radius: f64) -> Self {
        Self {
            policy: &DiffusionPolicy,
            params: Params([radius, 0.0]),
        }
    }

    /// **Threshold** sender-initiated balancing (Mandal & Pal): a node whose
    /// queued load crosses `hi` probes a neighbour and pushes part of its
    /// most loaded queue when the neighbour sits below `lo`. Starving nodes
    /// never request work themselves.
    pub const fn threshold(hi: f64, lo: f64) -> Self {
        Self {
            policy: &ThresholdPolicy,
            params: Params([hi, lo]),
        }
    }

    /// The underlying policy singleton.
    pub fn policy(&self) -> &'static dyn Policy {
        self.policy
    }

    /// The policy's stable short name (`"DP"`, `"FP"`, …).
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// Column/row label: the bare policy name when every parameter holds its
    /// default (`"FP"` for `error_rate = 0`), else the name with the values
    /// appended — `FP@0.5` for single-parameter policies,
    /// `Threshold@hi=4096,lo=512` for multi-parameter ones — so two handles
    /// of one policy never render identically unless they *are* identical.
    pub fn label(&self) -> String {
        let specs = self.policy.params();
        let defaulted = specs
            .iter()
            .enumerate()
            .all(|(i, spec)| self.params.0[i].to_bits() == spec.default.to_bits());
        if defaulted {
            return self.name().to_string();
        }
        let suffix = if specs.len() == 1 {
            format!("{}", self.params.0[0])
        } else {
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| format!("{}={}", spec.name, self.params.0[i]))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("{}@{}", self.name(), suffix)
    }

    /// The parameter values, in [`Policy::params`] order.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The value of parameter `name`, when the policy declares it.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.policy
            .params()
            .iter()
            .position(|spec| spec.name == name)
            .map(|i| self.params.0[i])
    }

    /// A copy with parameter `name` set to `value`; unchanged when the policy
    /// does not declare that parameter (so axis sweeps apply uniformly across
    /// a strategy set and only bite the policies that listen).
    pub fn with_param(&self, name: &str, value: f64) -> Self {
        let mut out = *self;
        if let Some(i) = self.policy.params().iter().position(|s| s.name == name) {
            out.params.0[i] = value;
        }
        out
    }

    /// Parameter bit patterns (identity order, `0` in unused slots): the
    /// run-cache fingerprint companion of [`Strategy::name`].
    pub fn param_bits(&self) -> [u64; MAX_PARAMS] {
        let mut bits = [0u64; MAX_PARAMS];
        for (slot, value) in bits.iter_mut().zip(self.params.0) {
            *slot = value.to_bits();
        }
        bits
    }

    /// Looks a policy up by [`Policy::name`] and returns its all-defaults
    /// handle.
    pub fn from_name(name: &str) -> Option<Self> {
        let policy = *policies().iter().find(|p| p.name() == name)?;
        let mut params = Params([0.0; MAX_PARAMS]);
        for (i, spec) in policy.params().iter().enumerate() {
            params.0[i] = spec.default;
        }
        Some(Self { policy, params })
    }

    // ---- delegated policy surfaces (parameters threaded automatically) ----

    /// See [`Policy::constrains_threads`].
    pub fn constrains_threads(&self) -> bool {
        self.policy.constrains_threads()
    }

    /// See [`Policy::allocate`].
    pub fn allocate(
        &self,
        plan: &ParallelPlan,
        processors: u32,
        cost: &CostModel,
        rng: &mut StdRng,
    ) -> Option<ThreadAssignment> {
        self.policy
            .allocate(&self.params, plan, processors, cost, rng)
    }

    /// See [`Policy::queue_based`].
    pub fn queue_based(&self) -> bool {
        self.policy.queue_based()
    }

    /// See [`Policy::starving_scope`].
    pub fn starving_scope(&self) -> StealScope {
        self.policy.starving_scope()
    }

    /// See [`Policy::steal_provider`].
    pub fn steal_provider(&self, from: usize, to: usize, nodes: usize) -> bool {
        self.policy.steal_provider(&self.params, from, to, nodes)
    }

    /// See [`Policy::prefers_cached_tables`].
    pub fn prefers_cached_tables(&self) -> bool {
        self.policy.prefers_cached_tables()
    }

    /// See [`Policy::push_config`].
    pub fn push_config(&self) -> Option<PushConfig> {
        self.policy.push_config(&self.params)
    }
}

impl fmt::Debug for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl PartialEq for Strategy {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name() && self.param_bits() == other.param_bits()
    }
}

/// The registered policy zoo, in presentation order. Scenario serde, the
/// `--strategies` listing and the conservation property tests all iterate
/// this slice, so registering a policy here is the single step that plugs it
/// into specs, docs and CI.
pub fn policies() -> &'static [&'static dyn Policy] {
    &[
        &DpPolicy,
        &FpPolicy,
        &SpPolicy,
        &DiffusionPolicy,
        &ThresholdPolicy,
    ]
}

/// Dynamic Processing (§5.2.1): the paper's strategy.
pub struct DpPolicy;

impl Policy for DpPolicy {
    fn name(&self) -> &'static str {
        "DP"
    }

    fn summary(&self) -> &'static str {
        "Dynamic Processing: any thread runs any unblocked operator; whole-node starvation triggers a global steal"
    }

    fn citation(&self) -> &'static str {
        "Bouganim, Florescu & Valduriez, VLDB '96 (this paper, §3)"
    }

    fn starving_scope(&self) -> StealScope {
        StealScope::Node
    }

    fn prefers_cached_tables(&self) -> bool {
        true
    }
}

/// Fixed Processing (§5.2.1): static processor-to-operator allocation.
pub struct FpPolicy;

impl Policy for FpPolicy {
    fn name(&self) -> &'static str {
        "FP"
    }

    fn summary(&self) -> &'static str {
        "Fixed Processing: threads statically allocated to operators by estimated complexity; per-operator steals only"
    }

    fn citation(&self) -> &'static str {
        "Bouganim, Florescu & Valduriez, VLDB '96 (§5.2.1, shared-nothing style)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            name: "error_rate",
            default: 0.0,
        }]
    }

    fn constrains_threads(&self) -> bool {
        true
    }

    fn allocate(
        &self,
        params: &Params,
        plan: &ParallelPlan,
        processors: u32,
        cost: &CostModel,
        rng: &mut StdRng,
    ) -> Option<ThreadAssignment> {
        Some(crate::fp::allocate_threads(
            plan,
            processors,
            cost,
            params.0[0],
            rng,
        ))
    }

    fn starving_scope(&self) -> StealScope {
        StealScope::TargetedOps
    }
}

/// Synchronous Pipelining (§5.2.1): the analytic shared-memory reference.
pub struct SpPolicy;

impl Policy for SpPolicy {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn summary(&self) -> &'static str {
        "Synchronous Pipelining: every processor runs whole chains by procedure call (analytic, single SM-node only)"
    }

    fn citation(&self) -> &'static str {
        "Bouganim, Florescu & Valduriez, VLDB '96 (§5.2.1, after Shekita '93 / Hong '92)"
    }

    fn queue_based(&self) -> bool {
        false
    }
}

/// Diffusion nearest-neighbour balancing (Demirel & Sbalzarini).
pub struct DiffusionPolicy;

impl Policy for DiffusionPolicy {
    fn name(&self) -> &'static str {
        "Diffusion"
    }

    fn summary(&self) -> &'static str {
        "Diffusion: starving nodes pull only from ring neighbours within `radius` hops; load spreads hop by hop"
    }

    fn citation(&self) -> &'static str {
        "Demirel & Sbalzarini, arXiv:1308.0148 (nearest-neighbour balancing in arbitrary networks)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            name: "radius",
            default: 1.0,
        }]
    }

    fn starving_scope(&self) -> StealScope {
        StealScope::Node
    }

    fn steal_provider(&self, params: &Params, from: usize, to: usize, nodes: usize) -> bool {
        if from == to {
            return false;
        }
        let distance = from.abs_diff(to).min(nodes - from.abs_diff(to));
        (distance as f64) <= params.0[0]
    }
}

/// Threshold sender-initiated balancing (Mandal & Pal).
pub struct ThresholdPolicy;

impl Policy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        "Threshold"
    }

    fn summary(&self) -> &'static str {
        "Threshold: nodes above `hi` queued tuples push work to a probed neighbour below `lo`; receivers stay passive"
    }

    fn citation(&self) -> &'static str {
        "Mandal & Pal, arXiv:1109.1650 (sender-initiated threshold policies)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                name: "hi",
                default: 2048.0,
            },
            ParamSpec {
                name: "lo",
                default: 256.0,
            },
        ]
    }

    fn push_config(&self, params: &Params) -> Option<PushConfig> {
        Some(PushConfig {
            hi: params.0[0],
            lo: params.0[1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_suppress_defaults_and_disambiguate_otherwise() {
        assert_eq!(Strategy::dynamic().label(), "DP");
        assert_eq!(Strategy::fixed(0.0).label(), "FP");
        assert_eq!(Strategy::fixed(0.5).label(), "FP@0.5");
        assert_eq!(Strategy::synchronous().label(), "SP");
        assert_eq!(Strategy::diffusion(1.0).label(), "Diffusion");
        assert_eq!(Strategy::diffusion(2.0).label(), "Diffusion@2");
        assert_eq!(Strategy::threshold(2048.0, 256.0).label(), "Threshold");
        assert_eq!(
            Strategy::threshold(4096.0, 512.0).label(),
            "Threshold@hi=4096,lo=512"
        );
    }

    #[test]
    fn equality_is_name_plus_param_bits() {
        assert_eq!(Strategy::fixed(0.2), Strategy::fixed(0.2));
        assert_ne!(Strategy::fixed(0.2), Strategy::fixed(0.3));
        assert_ne!(Strategy::dynamic(), Strategy::fixed(0.0));
        assert_eq!(
            Strategy::from_name("Diffusion").unwrap(),
            Strategy::diffusion(1.0)
        );
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let zoo = policies();
        for (i, p) in zoo.iter().enumerate() {
            assert!(
                zoo[..i].iter().all(|q| q.name() != p.name()),
                "duplicate policy name {}",
                p.name()
            );
            assert!(p.params().len() <= MAX_PARAMS);
            assert!(!p.citation().is_empty());
            assert!(!p.summary().is_empty());
            assert!(Strategy::from_name(p.name()).is_some());
        }
        assert!(Strategy::from_name("XP").is_none());
    }

    #[test]
    fn with_param_only_bites_declared_params() {
        let fp = Strategy::fixed(0.0).with_param("error_rate", 0.4);
        assert_eq!(fp.param("error_rate"), Some(0.4));
        let dp = Strategy::dynamic().with_param("error_rate", 0.4);
        assert_eq!(dp, Strategy::dynamic());
    }

    #[test]
    fn diffusion_limits_providers_to_ring_neighbours() {
        let d = Strategy::diffusion(1.0);
        // 8-node ring: node 0's neighbours are 1 and 7.
        assert!(d.steal_provider(0, 1, 8));
        assert!(d.steal_provider(0, 7, 8));
        assert!(!d.steal_provider(0, 2, 8));
        assert!(!d.steal_provider(0, 4, 8));
        assert!(!d.steal_provider(0, 0, 8));
        let wide = Strategy::diffusion(2.0);
        assert!(wide.steal_provider(0, 2, 8));
        assert!(!wide.steal_provider(0, 3, 8));
        // DP's default: everyone but yourself.
        let dp = Strategy::dynamic();
        assert!(dp.steal_provider(0, 4, 8));
        assert!(!dp.steal_provider(3, 3, 8));
    }

    #[test]
    fn scopes_and_push_configs_match_the_paper_roles() {
        assert_eq!(Strategy::dynamic().starving_scope(), StealScope::Node);
        assert_eq!(
            Strategy::fixed(0.1).starving_scope(),
            StealScope::TargetedOps
        );
        assert_eq!(Strategy::synchronous().starving_scope(), StealScope::None);
        assert_eq!(
            Strategy::threshold(2048.0, 256.0).starving_scope(),
            StealScope::None
        );
        assert!(Strategy::dynamic().push_config().is_none());
        let push = Strategy::threshold(1000.0, 100.0).push_config().unwrap();
        assert_eq!(push.hi, 1000.0);
        assert_eq!(push.lo, 100.0);
        assert!(Strategy::dynamic().queue_based());
        assert!(!Strategy::synchronous().queue_based());
        assert!(Strategy::fixed(0.0).constrains_threads());
        assert!(!Strategy::diffusion(1.0).constrains_threads());
    }
}
