//! The queue-based execution engine (Dynamic Processing and Fixed Processing).
//!
//! This is the heart of the reproduction: a discrete-event simulation of the
//! paper's execution model (§3 and §4) running one or more
//! [`ParallelPlan`]s on a hierarchical machine.
//!
//! * Each SM-node runs one worker thread per processor plus a scheduler that
//!   handles inter-node messages.
//! * Work is decomposed into self-contained **activations** stored in one
//!   activation queue per (operator, thread).
//! * Under **DP** any thread may consume any unblocked activation of its
//!   node, preferring its *primary* queues (its own queue of each operator)
//!   and paying a small interference penalty on the others.
//! * Under **FP** each thread only consumes the queues of the operators it
//!   was statically allocated to (see [`crate::fp`]).
//! * When a node (DP) or a processor (FP) runs out of eligible local work,
//!   **global load balancing** acquires probe activations — and the matching
//!   hash-table partition — from the most loaded remote node, following the
//!   benefit/overhead conditions of §3.2.
//! * Operator end is detected with the coordinator protocol of §4
//!   (EndOfQueuesAtNode, confirmation phase, termination broadcast — 4·n
//!   messages per operator).
//!
//! The engine works on tuple *counts* (the paper simulates operators the same
//! way): per-operator output cardinalities come from the plan, and skew is
//! injected by routing output batches across consumer queues with a Zipf
//! distribution (see [`crate::router`]).
//!
//! ## Co-simulation (multi-query mode)
//!
//! [`execute`] runs a single plan. [`execute_cosimulated`] runs N concurrent
//! queries — each a [`CoSimQuery`] with an arrival offset, a scheduling
//! priority and its own redistribution-skew profile — **inside one event
//! loop**: every query becomes a *lane* of operators, activations carry
//! their query id, threads pick work lane-by-lane in priority order, and
//! global load balancing sees the queued work of *all* queries when ranking
//! providers. Each lane may carry a *placement mask* re-homing its plan onto
//! a node subset (pinning placements), and per-node **memory admission**
//! runs inside the loop: arriving queries reserve their working set on their
//! placement nodes or wait, head-of-line FCFS, for a `QueryRelease` to free
//! room. This simulates real inter-query interference (queue contention,
//! steal traffic, flow control across queries, admission serialization)
//! instead of composing solo runs with an analytic contention model; see
//! [`crate::mix::MixMode`]. The loop is strictly sequential and seeded, so
//! co-simulated runs are bit-identical regardless of harness thread counts.

use crate::activation::{Activation, ActivationKind, ActivationQueue, DrainOutcome};
use crate::options::{ErrorRealization, ExecOptions, RecoveryPolicy};
use crate::report::{CoSimReport, ExecutionReport, FaultStats, OpenReport, QueryExecReport};
use crate::router::OutputRouter;
use crate::strategy::{PushConfig, StealScope, Strategy};
use crate::topology::{validate_topology, TopologyChange, TopologyEvent};
use dlb_common::config::SystemConfig;
use dlb_common::rng::rng_from_seed;
use dlb_common::{
    round_u64, BitSet, DiskId, DlbError, Duration, NodeId, OperatorId, ProcessorId, RelationId,
    Result, SimTime,
};
use dlb_frontend::{FrontendConfig, FrontendStats, Lookup, ResultCache, SingleFlight};
use dlb_query::cost::CostModel;
use dlb_query::optree::OperatorKind;
use dlb_query::plan::ParallelPlan;
use dlb_sim::{CpuAccounting, DiskFarm, EventCalendar, Network};
use dlb_traffic::{Arrival, ArrivalSpec, ArrivalStream, LatencyHistogram};
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// Size, in bytes, of a small control message (starving, offers, protocol
/// messages). Only used for traffic accounting; the CPU cost is the paper's
/// per-8 KB cost for one page.
const CONTROL_MESSAGE_BYTES: u64 = 256;

/// Hard cap on simulation events, as a guard against engine bugs producing
/// infinite event loops. Generously above anything a paper-scale plan (or a
/// co-simulated mix of them) needs.
const MAX_EVENTS: u64 = 500_000_000;

/// Most unterminated operators a stall error lists.
const STALL_REPORT_OPS: usize = 8;

/// One query of a co-simulated execution: the plan plus the inter-query
/// descriptors the engine needs to interleave it with the others.
#[derive(Debug, Clone, Copy)]
pub struct CoSimQuery<'a> {
    /// The query's parallel execution plan. Operator homes must lie within
    /// the machine the mix runs on.
    pub plan: &'a ParallelPlan,
    /// Arrival offset from the start of the mix, in (virtual) seconds. The
    /// query arrives — and enters memory admission — at this instant; its
    /// scan triggers are seeded when it is admitted.
    pub arrival_secs: f64,
    /// Local-scheduling priority (≥ 1): threads exhaust the eligible work of
    /// higher-priority queries before touching lower-priority queues.
    pub priority: u32,
    /// Redistribution-skew factor (Zipf theta in `[0, 1]`) of this query's
    /// activation routing.
    pub skew: f64,
    /// Placement mask: the SM-nodes this query's plan is re-homed onto.
    /// `None` spreads the query over the whole machine (FCFS placement);
    /// `Some(nodes)` pins every operator of the plan to exactly these nodes
    /// (the pinning placements of [`crate::mix::MixPolicy::RoundRobin`] /
    /// [`crate::mix::MixPolicy::LoadAware`]). Scheduling, steal-candidate
    /// sets and FP thread allocations are all restricted to the mask.
    pub mask: Option<&'a [NodeId]>,
    /// Working-set estimate (hash-table bytes) used for per-node memory
    /// admission, spread evenly over the placement nodes. `0` admits
    /// immediately (single-plan executions pass 0, keeping admission a
    /// no-op on the plain path).
    pub memory_bytes: u64,
}

/// One query template of an open-system run: the plan plus the per-admission
/// descriptors the engine derives admission and slowdown accounting from.
#[derive(Debug, Clone, Copy)]
pub struct OpenTemplate<'a> {
    /// The template's parallel execution plan (homes must lie within the
    /// machine the traffic runs on).
    pub plan: &'a ParallelPlan,
    /// Working-set estimate (hash-table bytes) reserved on every node for
    /// each admitted instance of this template; `0` admits immediately.
    pub memory_bytes: u64,
    /// Solo (unloaded) response time of the template in seconds, the
    /// slowdown baseline. `0` records a slowdown of 1 for every instance.
    pub solo_secs: f64,
}

/// An open-system workload: a stochastic arrival stream over a pool of query
/// templates, executed with a bounded multiprogramming level.
///
/// Unlike [`execute_cosimulated`], whose lane state is proportional to the
/// *total* number of queries, an open run keeps one lane slot per admitted
/// query: arrivals beyond `concurrency` wait in an unbounded (but
/// descriptor-sized) FCFS queue, and a retired query's operator state is
/// dropped and its slot recycled. Live memory is `O(concurrency)`, never
/// `O(total queries)`.
#[derive(Debug, Clone)]
pub struct OpenTraffic<'a> {
    /// The template pool; [`ArrivalSpec::templates`] must equal its length.
    pub templates: Vec<OpenTemplate<'a>>,
    /// The arrival process (kind, rate, burstiness, total query count,
    /// priority classes, seed).
    pub arrivals: ArrivalSpec,
    /// Maximum number of concurrently admitted queries (lane slots).
    pub concurrency: usize,
    /// Front-end layer (result cache + single-flight coalescing) between the
    /// arrival stream and the admission queue. The default config is inert:
    /// the run is bit-identical to one without a front end.
    pub frontend: FrontendConfig,
}

/// A query that arrived but is not admitted yet (waiting room entry).
#[derive(Debug, Clone, Copy)]
struct OpenPending {
    arrived_at: SimTime,
    template: usize,
    priority: u32,
}

/// A coalesced arrival waiting on its leader's result (single-flight
/// subscriber). Followers never enter the waiting room or a lane: they
/// retire when their leader does, plus the fan-out cost.
#[derive(Debug, Clone, Copy)]
struct OpenFollower {
    arrived_at: SimTime,
    priority: u32,
}

/// Engine-side state of an open-system run (absent in closed mode).
struct OpenState<'a> {
    templates: Vec<OpenTemplate<'a>>,
    stream: ArrivalStream,
    /// The next arrival, already drawn and scheduled as an `OpenArrival`
    /// event. Drawing lazily — one descriptor ahead of the clock — keeps
    /// the calendar and the generator state `O(1)` in the query count.
    upcoming: Option<Arrival>,
    arrivals_done: bool,
    pending: VecDeque<OpenPending>,
    /// Recyclable lane slots; initialized in reverse so the first admission
    /// takes slot 0 (a lone query then reproduces the closed engine exactly).
    free_slots: Vec<usize>,
    live_now: usize,
    peak_live: usize,
    completed: u64,
    admission_seq: u64,
    lane_seq: Vec<u64>,
    lane_template: Vec<usize>,
    /// FP cost-model error draws, one allocation per admission.
    fp_rng: StdRng,
    response: LatencyHistogram,
    wait: LatencyHistogram,
    slowdown: LatencyHistogram,
    response_by_class: Vec<LatencyHistogram>,
    /// Front-end layer between the arrival stream and the waiting room.
    frontend: FrontendConfig,
    /// Result cache keyed by template index — the simulated stand-in for the
    /// byte-exact query identity (a template always produces the same
    /// deterministic result).
    cache: ResultCache<usize, ()>,
    /// In-flight single-flight table; a leader spans waiting room +
    /// execution, so every follower drains at its leader's retirement.
    flight: SingleFlight<usize, OpenFollower>,
    /// Arrivals that never consulted the cache (coalesce-only config).
    cache_bypass: u64,
    /// Queries the engine actually executed (leaders + uncoalesced misses).
    engine_queries: u64,
    /// Engine executions per template: the residual load after the front end.
    engine_by_template: Vec<u64>,
    response_engine: LatencyHistogram,
    response_cache_hit: LatencyHistogram,
    response_coalesced: LatencyHistogram,
    /// Latest front-end retirement (cache hit or follower fan-out); extends
    /// the makespan past the engine's last event when the tail of the run is
    /// served without touching a lane.
    front_finish: SimTime,
}

#[derive(Debug, Clone)]
enum Event {
    ThreadReady {
        node: usize,
        thread: usize,
    },
    Data {
        node: usize,
        op: usize,
        slot: usize,
        activation: Activation,
    },
    Control {
        node: usize,
        msg: ControlMsg,
    },
    /// A co-simulated query arrives: it joins the admission queue (and is
    /// admitted on the spot when its placement has the memory).
    QueryStart {
        lane: usize,
    },
    /// A waiting query's memory reservation succeeded after a release: seed
    /// its triggers and wake the machine. Only scheduled for queries that
    /// actually waited — arrivals that fit are admitted synchronously, so
    /// the single-query/no-contention event stream is unchanged.
    QueryAdmit {
        lane: usize,
    },
    /// A query completed: release its working set on its placement nodes and
    /// admit whoever now fits (head-of-line FCFS order).
    QueryRelease {
        lane: usize,
    },
    /// A scheduled topology change (node failure, drain or re-join) takes
    /// effect. `index` points into the engine's validated, time-sorted
    /// topology stream.
    Topology {
        index: usize,
    },
    /// Open mode: the next query of the arrival stream arrives. The
    /// descriptor sits in `OpenState::upcoming`; handling it draws (and
    /// schedules) the following arrival.
    OpenArrival,
}

#[derive(Debug, Clone)]
enum ControlMsg {
    /// Phase 1 of end detection: a node reports all its queues of `op` are
    /// inactive.
    LocalEnd { op: usize },
    /// Phase 2 request from the coordinator.
    ConfirmRequest { op: usize },
    /// Phase 2 reply: the node has no remaining work for `op`.
    Confirm { op: usize },
    /// Termination broadcast (accounting only; state is updated centrally).
    Terminated {
        /// The terminated operator (kept for traceability in debug output).
        #[allow(dead_code)]
        op: usize,
    },
    /// A node is starving (DP: any work; FP: work for `target`).
    Starving {
        from: usize,
        free_bytes: u64,
        target: Option<usize>,
        token: u64,
        /// Open mode: recycle epoch of `target` at request time; a targeted
        /// request whose op slot was recycled in flight draws a NoOffer.
        /// Always 0 in closed mode (slots are never recycled there).
        epoch: u64,
    },
    /// A provider offers work from one of its queues.
    Offer {
        from: usize,
        op: usize,
        tuples: u64,
        bytes: u64,
        load: u64,
        token: u64,
        /// Recycle epoch of `op` at offer time (see `Starving::epoch`).
        epoch: u64,
    },
    /// A provider has nothing to offer.
    NoOffer { from: usize, token: u64 },
    /// The requester asks the chosen provider to ship activations.
    Acquire {
        from: usize,
        op: usize,
        has_table: bool,
        /// Recycle epoch echoed from the chosen offer; a mismatch at the
        /// provider (the op slot retired and was reused between Offer and
        /// Acquire) ships an empty transfer instead of another lane's work.
        epoch: u64,
    },
    /// The provider ships activations (and possibly its hash-table
    /// partition).
    Transfer {
        from: usize,
        op: usize,
        activations: Vec<Activation>,
        bytes: u64,
    },
    /// Sender-initiated push (Threshold): an overloaded node probes one
    /// candidate receiver before shipping anything.
    PushProbe { from: usize, token: u64 },
    /// The probed node's verdict. Sent even on decline (and even by a node
    /// that died with the probe in flight) so the sender's outstanding-probe
    /// flag always clears.
    PushReply {
        from: usize,
        accept: bool,
        free_bytes: u64,
        token: u64,
    },
}

/// Per-query runtime state of the (co-)simulation. Single-plan executions
/// are the one-lane special case; the engine indexes operators *globally*
/// (lane base + plan-local index) so that all scheduling, flow-control and
/// steal machinery sees every query's work at once.
struct LaneRuntime<'a> {
    plan: &'a ParallelPlan,
    arrival: SimTime,
    priority: u32,
    skew: f64,
    /// The SM-nodes this lane's operators are re-homed onto (`None` = the
    /// plan's own homes, i.e. the whole machine).
    mask: Option<Vec<NodeId>>,
    /// Total working-set demand (hash-table bytes) of the lane; the per-node
    /// share is re-derived from this when the live placement shrinks or
    /// grows before admission.
    memory_bytes: u64,
    /// Per-node share of the lane's working set (memory admission).
    mem_per_node: u64,
    /// Exact outstanding reservations, as `(node, bytes)` pairs recorded at
    /// admission. Releases return exactly these; a node failure drops its
    /// pairs (the memory died with the node).
    reserved: Vec<(usize, u64)>,
    /// Guards against double release when a restarted operator re-terminates
    /// a lane that already released its working set.
    released: bool,
    /// First global operator index of this lane.
    base: usize,
    /// Number of operators of this lane's plan.
    n_ops: usize,
    /// Whether the lane was admitted and its triggers seeded.
    started: bool,
    /// Instant the lane passed memory admission (= arrival unless memory was
    /// tight).
    admitted_at: SimTime,
    ops_terminated: usize,
    finished_at: SimTime,
    activations: u64,
    tuples_processed: u64,
    result_tuples: u64,
}

/// Per-operator global runtime state.
struct OpRuntime {
    /// The lane (query) this operator belongs to.
    lane: usize,
    kind: OperatorKind,
    /// Global index of the consumer operator, if any.
    consumer: Option<usize>,
    home: Vec<NodeId>,
    output_ratio: f64,
    blockers_remaining: usize,
    terminated: bool,
    router: OutputRouter,
    input_sent: u64,
    input_delivered: u64,
    input_processed: u64,
    phase1_reports: usize,
    phase2_started: bool,
    phase2_confirms: usize,
    /// For probe operators: the global index of the build whose table is
    /// probed.
    build_twin: Option<usize>,
    /// Global indices of the operators that pipeline into this one (the
    /// plan's `pipelined_producers`, resolved once at install time so the
    /// §4 end check never rescans the plan).
    producers: Vec<usize>,
}

/// Per-(operator, node) runtime state. Only allocated for home nodes.
struct OpNodeRuntime {
    queues: Vec<ActivationQueue>,
    parked: VecDeque<Activation>,
    /// Tuples in `parked`, maintained incrementally (all parked mutation
    /// goes through [`park`], [`unpark_front`] and [`drain_parked_into`])
    /// so load scans never walk the overflow list.
    ///
    /// [`park`]: OpNodeRuntime::park
    /// [`unpark_front`]: OpNodeRuntime::unpark_front
    /// [`drain_parked_into`]: OpNodeRuntime::drain_parked_into
    parked_tuples: u64,
    /// Activations currently held on this (operator, node) — queued plus
    /// parked — maintained incrementally by the queue/park helpers so end
    /// detection and work selection are O(1) instead of O(threads).
    queued: u32,
    processing: u32,
    phase1_sent: bool,
    confirm_pending: bool,
    confirm_sent: bool,
    /// For build operators: tuples inserted into this node's hash-table
    /// partition (determines the volume shipped by global load balancing).
    hash_tuples: u64,
    /// Remote nodes whose hash-table partition has already been copied here
    /// (the "list of stolen queues" optimization of §4).
    hash_copied_from: BTreeSet<usize>,
    /// Disks on which this scan has already positioned (first read pays
    /// latency + seek, subsequent reads stream sequentially).
    started_disks: BTreeSet<u32>,
    /// Round-robin cursor for placing acquired activations into queues.
    steal_cursor: usize,
    /// Bitmask of queues holding at least one activation (bit = slot index,
    /// maintained for slots < 64 — wider machines fall back to scanning).
    /// Lets work selection jump straight to a loaded queue instead of
    /// probing every empty one.
    nonempty: u64,
}

impl OpNodeRuntime {
    fn new(threads_per_node: usize, queue_capacity: usize) -> Self {
        Self {
            queues: (0..threads_per_node)
                .map(|_| ActivationQueue::new(queue_capacity))
                .collect(),
            parked: VecDeque::new(),
            parked_tuples: 0,
            queued: 0,
            processing: 0,
            phase1_sent: false,
            confirm_pending: false,
            confirm_sent: false,
            hash_tuples: 0,
            hash_copied_from: BTreeSet::new(),
            started_disks: BTreeSet::new(),
            steal_cursor: 0,
            nonempty: 0,
        }
    }

    /// Appends an overflow activation to the parked list.
    fn park(&mut self, a: Activation) {
        self.parked_tuples += a.tuples;
        self.queued += 1;
        self.parked.push_back(a);
    }

    /// Pops the oldest parked activation.
    fn unpark_front(&mut self) -> Option<Activation> {
        let a = self.parked.pop_front();
        if let Some(a) = a {
            self.parked_tuples -= a.tuples;
            self.queued -= 1;
        }
        a
    }

    /// Pushes into queue `slot`; `false` when that queue is full.
    fn enqueue(&mut self, slot: usize, a: Activation) -> bool {
        let pushed = self.queues[slot].push(a);
        self.queued += pushed as u32;
        if pushed && slot < 64 {
            self.nonempty |= 1u64 << slot;
        }
        pushed
    }

    /// Pushes into queue `slot`, parking the activation on overflow.
    fn enqueue_or_park(&mut self, slot: usize, a: Activation) {
        if !self.enqueue(slot, a) {
            self.park(a);
        }
    }

    /// Pops the oldest activation of queue `slot`.
    fn dequeue(&mut self, slot: usize) -> Option<Activation> {
        let a = self.queues[slot].pop();
        self.queued -= a.is_some() as u32;
        if a.is_some() && slot < 64 && self.queues[slot].is_empty() {
            self.nonempty &= !(1u64 << slot);
        }
        a
    }

    /// Drains up to `max` activations of queue `slot` into `out`.
    fn drain_queue_into(
        &mut self,
        slot: usize,
        max: usize,
        out: &mut Vec<Activation>,
    ) -> DrainOutcome {
        let outcome = self.queues[slot].drain_into(max, out);
        self.queued -= outcome.count as u32;
        if outcome.count > 0 && slot < 64 && self.queues[slot].is_empty() {
            self.nonempty &= !(1u64 << slot);
        }
        outcome
    }

    /// Moves every parked activation into `out` (recovery path).
    fn drain_parked_into(&mut self, out: &mut Vec<Activation>) {
        self.parked_tuples = 0;
        self.queued -= self.parked.len() as u32;
        out.extend(self.parked.drain(..));
    }

    /// Moves everything — parked overflow and every queue — into `out`.
    fn drain_all_into(&mut self, out: &mut Vec<Activation>) {
        self.drain_parked_into(out);
        for slot in 0..self.queues.len() {
            self.drain_queue_into(slot, usize::MAX, out);
        }
    }

    /// Total tuples queued on this (operator, node), including overflow.
    /// O(threads): each queue keeps an incremental tuple counter.
    fn queued_tuples(&self) -> u64 {
        debug_assert_eq!(
            self.parked_tuples,
            self.parked.iter().map(|a| a.tuples).sum::<u64>(),
            "parked tuple counter drifted"
        );
        self.queues.iter().map(|q| q.queued_tuples()).sum::<u64>() + self.parked_tuples
    }

    /// The nonempty-queue bitmask, consistency-checked in debug builds.
    /// Only meaningful when every slot fits the mask (`queues.len() <= 64`).
    fn nonempty_mask(&self) -> u64 {
        debug_assert!(
            self.queues.len() > 64
                || (0..self.queues.len())
                    .all(|s| self.queues[s].is_empty() != (self.nonempty >> s & 1 == 1)),
            "nonempty bitmask drifted from queue contents"
        );
        self.nonempty
    }

    fn queued_activations(&self) -> usize {
        debug_assert_eq!(
            self.queued as usize,
            self.queues.iter().map(|q| q.len()).sum::<usize>() + self.parked.len(),
            "incremental activation counter drifted from queue contents"
        );
        self.queued as usize
    }

    fn is_drained(&self) -> bool {
        self.queued_activations() == 0 && self.processing == 0
    }
}

struct ThreadRuntime {
    idle: bool,
    /// FP only: the set of global operator indices this thread's static
    /// allocation permits, as a bitset so the per-op membership test in
    /// work selection is a word probe instead of a tree walk.
    allowed: Option<BitSet>,
}

/// The slice of per-lane state the work-selection inner loop reads,
/// packed contiguously (structure-of-arrays) so a scheduling pass over all
/// lanes touches a handful of cache lines instead of one wide
/// [`LaneRuntime`] per lane. Kept in sync by [`QueueEngine::sync_lane_hot`]
/// at every `started`/`n_ops` mutation.
#[derive(Clone, Copy)]
struct LaneHot {
    base: u32,
    n_ops: u32,
    started: bool,
}

/// One collected steal offer: `(provider, op, tuples, bytes, load, epoch)`.
type OfferEntry = (usize, usize, u64, u64, u64, u64);

/// Per-node global-load-balancing state (the scheduler's bookkeeping).
#[derive(Default)]
struct NodeLb {
    starving_outstanding: bool,
    fp_outstanding: BTreeSet<usize>,
    offers: Vec<OfferEntry>, // (provider, op, tuples, bytes, load, epoch)
    replies_received: usize,
    replies_expected: usize,
    /// Token of the current request; replies carrying a stale token are
    /// ignored (a node can issue several steal episodes over time).
    current_token: u64,
    /// Sender-initiated push (Threshold): at most one probe in flight per
    /// node.
    push_outstanding: bool,
    /// Last probed receiver; the next probe starts after it, so repeated
    /// pushes rotate over the machine instead of hammering one node.
    push_cursor: usize,
}

/// The queue-based engine shared by DP and FP, over one or more query lanes.
pub(crate) struct QueueEngine<'a> {
    lanes: Vec<LaneRuntime<'a>>,
    /// Dense copy of each lane's `(base, n_ops, started)` for the
    /// work-selection scan (see [`LaneHot`]).
    lane_hot: Vec<LaneHot>,
    /// Lane indices in local-scheduling order: priority descending, mix
    /// index ascending on ties.
    lane_order: Vec<usize>,
    config: SystemConfig,
    options: ExecOptions,
    strategy: Strategy,
    /// Cached [`Policy::push_config`] (`None` for pull-only policies, so the
    /// push probe in the data-delivery path costs one branch there).
    push: Option<PushConfig>,
    /// Cached [`Policy::custom_work_mask`]: policies are stateless
    /// singletons with fixed parameters, so the hot-loop hooks below are
    /// snapshot once at construction and the selection/steal paths branch on
    /// plain fields instead of paying virtual dispatch per event.
    custom_mask: bool,
    /// Cached [`Policy::starving_scope`].
    scope: StealScope,
    /// Cached [`Policy::prefers_cached_tables`].
    prefers_cached: bool,
    cost: CostModel,
    nodes: usize,
    threads_per_node: usize,
    disks_per_node: u32,

    calendar: EventCalendar<Event>,
    disks: DiskFarm,
    network: Network,
    cpu: CpuAccounting,

    ops: Vec<OpRuntime>,
    /// Indices of non-terminated operators, as a dense bitmask. The steal
    /// scheduler's candidate scan, its load aggregation and the
    /// end-detection sweep walk this set instead of `0..ops.len()`; in open
    /// mode most slots are retired placeholders, so the walk touches only
    /// the `O(concurrency)` live lanes. Ascending iteration order keeps the
    /// visit order identical to the linear scans it replaces.
    live_ops: BitSet,
    /// Per-node set of operators with at least one queued or parked
    /// activation (`OpNodeRuntime::queued > 0`). Work selection probes this
    /// instead of touching every operator's queue state; every queue
    /// mutation site keeps it in sync.
    ready: Vec<BitSet>,
    /// Per-node bitmask of idle threads (bit `t` = thread `t` is idle),
    /// mirroring `ThreadRuntime::idle` so wake scans are a word probe.
    /// Only maintained for machines with at most 64 threads per node;
    /// wider nodes fall back to the boolean scan.
    idle_threads: Vec<u64>,
    op_nodes: Vec<Vec<Option<OpNodeRuntime>>>,
    threads: Vec<Vec<ThreadRuntime>>,
    node_lb: Vec<NodeLb>,
    disk_cursor: Vec<u32>,

    /// Per-op-slot recycle epoch, bumped when open mode retires a lane and
    /// frees its slot. Steal-protocol messages carry the epoch they were
    /// issued under so episodes that straddle a retirement die harmlessly.
    /// All-zero (and never bumped) in closed mode.
    epochs: Vec<u64>,
    /// Open-system state (`None` = closed mode, i.e. every path below that
    /// touches it is dead in classic runs).
    open: Option<OpenState<'a>>,

    /// Free shared memory per SM-node (the admission budget).
    free_mem: Vec<u64>,
    /// Lanes that arrived but do not fit yet, in arrival order. Admission is
    /// strict head-of-line FCFS, matching [`crate::mix::schedule_mix`]:
    /// priorities weight the scheduling of *admitted* queries, they never
    /// jump the admission queue.
    admission_queue: VecDeque<usize>,

    /// The validated, time-sorted topology-event stream (empty for fault-free
    /// runs — every fault path below is a strict no-op then).
    topology: Vec<TopologyEvent>,
    /// Live flag per SM-node; failures/drains clear it, re-joins set it.
    live: Vec<bool>,
    /// Degradation accounting of applied topology events.
    faults: FaultStats,

    activations_done: u64,
    tuples_processed: u64,
    result_tuples: u64,
    lb_requests: u64,
    lb_acquisitions: u64,
    lb_bytes: u64,
    ops_terminated: usize,
    finished_at: SimTime,
}

impl<'a> QueueEngine<'a> {
    pub(crate) fn new(
        plan: &'a ParallelPlan,
        config: SystemConfig,
        strategy: Strategy,
        options: ExecOptions,
    ) -> Result<Self> {
        Self::new_cosim(
            &[CoSimQuery {
                plan,
                arrival_secs: 0.0,
                priority: 1,
                skew: options.skew,
                mask: None,
                memory_bytes: 0,
            }],
            config,
            strategy,
            options,
            &[],
        )
    }

    pub(crate) fn new_cosim(
        queries: &[CoSimQuery<'a>],
        config: SystemConfig,
        strategy: Strategy,
        options: ExecOptions,
        topology: &[TopologyEvent],
    ) -> Result<Self> {
        if queries.is_empty() {
            return Err(DlbError::config("co-simulation needs at least one query"));
        }
        if config.machine.nodes == 0 || config.machine.processors_per_node == 0 {
            return Err(DlbError::config(
                "machine needs at least one node and processor",
            ));
        }
        let machine_nodes = config.machine.nodes as usize;
        let topology = validate_topology(topology, config.machine.nodes)?;
        let mut lanes: Vec<LaneRuntime<'a>> = Vec::with_capacity(queries.len());
        let mut base = 0usize;
        for (i, q) in queries.iter().enumerate() {
            q.plan.validate()?;
            if q.priority == 0 {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} has priority 0 (priorities are ≥ 1)"
                )));
            }
            if !(q.arrival_secs.is_finite() && q.arrival_secs >= 0.0) {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} has invalid arrival {}",
                    q.arrival_secs
                )));
            }
            if !(q.skew.is_finite() && (0.0..=1.0).contains(&q.skew)) {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} has skew {} outside [0, 1]",
                    q.skew
                )));
            }
            let mask: Option<Vec<NodeId>> = match q.mask {
                None => None,
                Some(nodes) => {
                    if nodes.is_empty() {
                        return Err(DlbError::config(format!(
                            "co-simulated query {i} has an empty placement mask"
                        )));
                    }
                    let mut mask: Vec<NodeId> = nodes.to_vec();
                    mask.sort_unstable();
                    mask.dedup();
                    if let Some(bad) = mask.iter().find(|n| n.index() >= machine_nodes) {
                        return Err(DlbError::config(format!(
                            "co-simulated query {i} is pinned to node {bad} but the \
                             machine has {machine_nodes} nodes"
                        )));
                    }
                    Some(mask)
                }
            };
            let placement_len = mask.as_ref().map_or(machine_nodes, Vec::len);
            let mem_per_node = q.memory_bytes.div_ceil(placement_len as u64);
            if mem_per_node > config.machine.memory_per_node_bytes {
                return Err(DlbError::config(format!(
                    "co-simulated query {i} needs {mem_per_node} bytes on each of its \
                     {placement_len} placement node(s) but nodes have {} — it can \
                     never be admitted",
                    config.machine.memory_per_node_bytes
                )));
            }
            let n_ops = q.plan.tree.operators().len();
            lanes.push(LaneRuntime {
                plan: q.plan,
                arrival: SimTime::ZERO + Duration::from_secs_f64(q.arrival_secs),
                priority: q.priority,
                skew: q.skew,
                mask,
                memory_bytes: q.memory_bytes,
                mem_per_node,
                reserved: Vec::new(),
                released: false,
                base,
                n_ops,
                started: false,
                admitted_at: SimTime::ZERO,
                ops_terminated: 0,
                finished_at: SimTime::ZERO,
                activations: 0,
                tuples_processed: 0,
                result_tuples: 0,
            });
            base += n_ops;
        }
        let mut lane_order: Vec<usize> = (0..lanes.len()).collect();
        lane_order.sort_by(|&a, &b| lanes[b].priority.cmp(&lanes[a].priority).then(a.cmp(&b)));
        let lane_hot = lanes
            .iter()
            .map(|l| LaneHot {
                base: l.base as u32,
                n_ops: l.n_ops as u32,
                started: l.started,
            })
            .collect();
        let nodes = config.machine.nodes as usize;
        let threads_per_node = config.machine.processors_per_node as usize;
        let disks_per_node =
            (config.machine.processors_per_node * config.disk.disks_per_processor).max(1);
        let cost = CostModel::new(config.costs, config.disk, config.cpu);

        let mut engine = Self {
            lanes,
            lane_hot,
            lane_order,
            config,
            options,
            strategy,
            push: strategy.push_config(),
            custom_mask: strategy.custom_work_mask(),
            scope: strategy.starving_scope(),
            prefers_cached: strategy.prefers_cached_tables(),
            cost,
            nodes,
            threads_per_node,
            disks_per_node,
            calendar: EventCalendar::new(),
            disks: DiskFarm::new(config.disk, config.machine.nodes, disks_per_node),
            network: Network::new(config.network, config.cpu, config.machine.nodes),
            cpu: CpuAccounting::new(config.machine.nodes, config.machine.processors_per_node),
            ops: Vec::new(),
            live_ops: BitSet::default(),
            ready: (0..nodes).map(|_| BitSet::default()).collect(),
            idle_threads: vec![0; nodes],
            op_nodes: Vec::new(),
            threads: Vec::new(),
            node_lb: (0..nodes).map(|_| NodeLb::default()).collect(),
            disk_cursor: vec![0; nodes],
            epochs: Vec::new(),
            open: None,
            free_mem: vec![config.machine.memory_per_node_bytes; nodes],
            admission_queue: VecDeque::new(),
            topology,
            live: vec![true; nodes],
            faults: FaultStats::default(),
            activations_done: 0,
            tuples_processed: 0,
            result_tuples: 0,
            lb_requests: 0,
            lb_acquisitions: 0,
            lb_bytes: 0,
            ops_terminated: 0,
            finished_at: SimTime::ZERO,
        };
        engine.initialize()?;
        engine.epochs = vec![0; engine.ops.len()];
        Ok(engine)
    }

    /// Builds an engine in open-system mode: `concurrency` recyclable lane
    /// slots, each owning a fixed contiguous range of `max_ops` operator
    /// slots, fed by the arrival stream instead of a fixed query list.
    pub(crate) fn new_open(
        traffic: &OpenTraffic<'a>,
        config: SystemConfig,
        strategy: Strategy,
        options: ExecOptions,
    ) -> Result<Self> {
        if traffic.templates.is_empty() {
            return Err(DlbError::config("open traffic needs at least one template"));
        }
        if traffic.concurrency == 0 {
            return Err(DlbError::config(
                "open traffic needs a concurrency level of at least 1",
            ));
        }
        if config.machine.nodes == 0 || config.machine.processors_per_node == 0 {
            return Err(DlbError::config(
                "machine needs at least one node and processor",
            ));
        }
        if traffic.arrivals.templates != traffic.templates.len() {
            return Err(DlbError::config(format!(
                "arrival spec draws from {} template(s) but {} were supplied",
                traffic.arrivals.templates,
                traffic.templates.len()
            )));
        }
        traffic.frontend.validate().map_err(DlbError::config)?;
        let nodes = config.machine.nodes as usize;
        for (i, t) in traffic.templates.iter().enumerate() {
            t.plan.validate()?;
            for op in t.plan.tree.operators() {
                if !t
                    .plan
                    .homes
                    .home(op.id)
                    .nodes()
                    .iter()
                    .any(|n| n.index() < nodes)
                {
                    return Err(DlbError::plan(format!(
                        "open template {i}: operator {} has no home node within the machine",
                        op.id
                    )));
                }
            }
            let mem_per_node = t.memory_bytes.div_ceil(nodes as u64);
            if mem_per_node > config.machine.memory_per_node_bytes {
                return Err(DlbError::config(format!(
                    "open template {i} needs {mem_per_node} bytes on every node but nodes \
                     have {} — it can never be admitted",
                    config.machine.memory_per_node_bytes
                )));
            }
            if !(t.solo_secs.is_finite() && t.solo_secs >= 0.0) {
                return Err(DlbError::config(format!(
                    "open template {i} has invalid solo time {}",
                    t.solo_secs
                )));
            }
        }
        let mut stream = ArrivalStream::new(traffic.arrivals).map_err(DlbError::config)?;
        let max_ops = traffic
            .templates
            .iter()
            .map(|t| t.plan.tree.operators().len())
            .max()
            .expect("at least one template");
        let concurrency = traffic.concurrency;
        let threads_per_node = config.machine.processors_per_node as usize;
        let disks_per_node =
            (config.machine.processors_per_node * config.disk.disks_per_processor).max(1);
        let cost = CostModel::new(config.costs, config.disk, config.cpu);

        // Slot pool: every lane starts empty (retired) and is populated per
        // admission; every op slot starts as a terminated placeholder.
        let lanes: Vec<LaneRuntime<'a>> = (0..concurrency)
            .map(|i| LaneRuntime {
                plan: traffic.templates[0].plan,
                arrival: SimTime::ZERO,
                priority: 1,
                skew: options.skew,
                mask: None,
                memory_bytes: 0,
                mem_per_node: 0,
                reserved: Vec::new(),
                released: true,
                base: i * max_ops,
                n_ops: 0,
                started: false,
                admitted_at: SimTime::ZERO,
                ops_terminated: 0,
                finished_at: SimTime::ZERO,
                activations: 0,
                tuples_processed: 0,
                result_tuples: 0,
            })
            .collect();
        let total_ops = concurrency * max_ops;
        let ops: Vec<OpRuntime> = (0..total_ops)
            .map(|i| Self::placeholder_op(i / max_ops))
            .collect();
        let op_nodes: Vec<Vec<Option<OpNodeRuntime>>> = (0..total_ops)
            .map(|_| (0..nodes).map(|_| None).collect())
            .collect();
        // FP threads start with empty allowed sets; admissions insert a
        // fresh per-lane allocation, retirements remove it again.
        let threads: Vec<Vec<ThreadRuntime>> = (0..nodes)
            .map(|_| {
                (0..threads_per_node)
                    .map(|_| ThreadRuntime {
                        idle: false,
                        allowed: strategy.constrains_threads().then(BitSet::default),
                    })
                    .collect()
            })
            .collect();
        let priority_classes = traffic.arrivals.priority_classes as usize;
        let upcoming = stream.next();
        let open = OpenState {
            templates: traffic.templates.clone(),
            arrivals_done: upcoming.is_none(),
            upcoming,
            stream,
            pending: VecDeque::new(),
            free_slots: (0..concurrency).rev().collect(),
            live_now: 0,
            peak_live: 0,
            completed: 0,
            admission_seq: 0,
            lane_seq: vec![0; concurrency],
            lane_template: vec![0; concurrency],
            fp_rng: rng_from_seed(options.seed),
            response: LatencyHistogram::new(),
            wait: LatencyHistogram::new(),
            slowdown: LatencyHistogram::new(),
            response_by_class: (0..priority_classes.max(1))
                .map(|_| LatencyHistogram::new())
                .collect(),
            frontend: traffic.frontend,
            cache: ResultCache::new(
                traffic.frontend.cache_capacity,
                traffic.frontend.cache_ttl_secs,
            ),
            flight: SingleFlight::new(),
            cache_bypass: 0,
            engine_queries: 0,
            engine_by_template: vec![0; traffic.templates.len()],
            response_engine: LatencyHistogram::new(),
            response_cache_hit: LatencyHistogram::new(),
            response_coalesced: LatencyHistogram::new(),
            front_finish: SimTime::ZERO,
        };

        let lane_hot = lanes
            .iter()
            .map(|l| LaneHot {
                base: l.base as u32,
                n_ops: l.n_ops as u32,
                started: l.started,
            })
            .collect();
        let mut engine = Self {
            lanes,
            lane_hot,
            lane_order: (0..concurrency).collect(),
            config,
            options,
            strategy,
            push: strategy.push_config(),
            custom_mask: strategy.custom_work_mask(),
            scope: strategy.starving_scope(),
            prefers_cached: strategy.prefers_cached_tables(),
            cost,
            nodes,
            threads_per_node,
            disks_per_node,
            calendar: EventCalendar::new(),
            disks: DiskFarm::new(config.disk, config.machine.nodes, disks_per_node),
            network: Network::new(config.network, config.cpu, config.machine.nodes),
            cpu: CpuAccounting::new(config.machine.nodes, config.machine.processors_per_node),
            ops,
            // Placeholder slots are all terminated; admissions insert the
            // revived op indices, terminations remove them again.
            live_ops: BitSet::with_capacity(total_ops),
            ready: (0..nodes)
                .map(|_| BitSet::with_capacity(total_ops))
                .collect(),
            idle_threads: vec![0; nodes],
            op_nodes,
            threads,
            node_lb: (0..nodes).map(|_| NodeLb::default()).collect(),
            disk_cursor: vec![0; nodes],
            epochs: vec![0; total_ops],
            open: Some(open),
            free_mem: vec![config.machine.memory_per_node_bytes; nodes],
            admission_queue: VecDeque::new(),
            topology: Vec::new(),
            live: vec![true; nodes],
            faults: FaultStats::default(),
            activations_done: 0,
            tuples_processed: 0,
            result_tuples: 0,
            lb_requests: 0,
            lb_acquisitions: 0,
            lb_bytes: 0,
            ops_terminated: total_ops,
            finished_at: SimTime::ZERO,
        };

        // Kick off every thread, then schedule the first arrival (threads at
        // the same instant run first — they find nothing and go idle, and
        // the admission wakes them with the seeded triggers in place).
        for node in 0..engine.nodes {
            for thread in 0..engine.threads_per_node {
                engine
                    .calendar
                    .schedule_at(SimTime::ZERO, Event::ThreadReady { node, thread });
            }
        }
        if let Some(first) = engine.open.as_ref().expect("open mode").upcoming {
            engine.calendar.schedule_at(
                SimTime::ZERO + Duration::from_secs_f64(first.offset_secs),
                Event::OpenArrival,
            );
        }
        Ok(engine)
    }

    /// A permanently terminated operator slot: what unused and retired op
    /// slots of an open run hold. Empty home, no queue state, scan kind (so
    /// every steal-candidate filter skips it).
    fn placeholder_op(lane: usize) -> OpRuntime {
        OpRuntime {
            lane,
            kind: OperatorKind::Scan {
                relation: RelationId::new(0),
            },
            consumer: None,
            home: Vec::new(),
            output_ratio: 0.0,
            blockers_remaining: 0,
            terminated: true,
            router: OutputRouter::new(1, 0.0, 0),
            input_sent: 0,
            input_delivered: 0,
            input_processed: 0,
            phase1_reports: 0,
            phase2_started: false,
            phase2_confirms: 0,
            build_twin: None,
            producers: Vec::new(),
        }
    }

    /// The plan's `pipelined_producers` of operator `id`, as global indices
    /// of a lane installed at `base`.
    fn global_producers(plan: &ParallelPlan, base: usize, id: OperatorId) -> Vec<usize> {
        plan.tree
            .pipelined_producers(id)
            .iter()
            .map(|p| base + p.index())
            .collect()
    }

    fn initialize(&mut self) -> Result<()> {
        // Per-operator global state, lane by lane (lane 0's operators first,
        // so single-query indices coincide with plan-local indices).
        for lane_idx in 0..self.lanes.len() {
            let lane = &self.lanes[lane_idx];
            let plan = lane.plan;
            let base = lane.base;
            let skew = lane.skew;
            let joins = plan.tree.joins();
            for op in plan.tree.operators() {
                // A placement mask re-homes every operator of the lane onto
                // the mask's nodes; without one the plan's own homes apply
                // (clipped to the machine).
                let home: Vec<NodeId> = match &lane.mask {
                    Some(mask) => mask.clone(),
                    None => plan
                        .homes
                        .home(op.id)
                        .nodes()
                        .iter()
                        .copied()
                        .filter(|n| n.index() < self.nodes)
                        .collect(),
                };
                if home.is_empty() {
                    return Err(DlbError::plan(format!(
                        "operator {} has no home node within the machine",
                        op.id
                    )));
                }
                let mut blockers: Vec<OperatorId> = plan.blocked_by(op.id);
                blockers.sort_unstable();
                blockers.dedup();
                let output_ratio = if op.input_tuples == 0 {
                    0.0
                } else {
                    op.output_tuples as f64 / op.input_tuples as f64
                };
                let build_twin = match op.kind {
                    OperatorKind::Probe { join } => joins.get(&join).map(|(b, _)| base + b.index()),
                    _ => None,
                };
                let slots = home.len() * self.threads_per_node;
                self.ops.push(OpRuntime {
                    lane: lane_idx,
                    kind: op.kind,
                    consumer: op.consumer.map(|c| base + c.index()),
                    home,
                    output_ratio,
                    blockers_remaining: blockers.len(),
                    terminated: false,
                    // The rotation uses the *global* index so that the hot
                    // slots of same-shaped queries in a co-simulated mix do
                    // not all land on the same threads (for a single query
                    // the global index is the plan-local index).
                    router: OutputRouter::new(slots, skew, base + op.id.index()),
                    input_sent: 0,
                    input_delivered: 0,
                    input_processed: 0,
                    phase1_reports: 0,
                    phase2_started: false,
                    phase2_confirms: 0,
                    build_twin,
                    producers: Self::global_producers(plan, base, op.id),
                });
            }
        }

        // Closed mode never recycles op slots: every operator starts live.
        self.live_ops = (0..self.ops.len()).collect();

        // Per-(op, node) state for home nodes.
        for op_idx in 0..self.ops.len() {
            let mut per_node: Vec<Option<OpNodeRuntime>> = (0..self.nodes).map(|_| None).collect();
            for node in &self.ops[op_idx].home {
                per_node[node.index()] = Some(OpNodeRuntime::new(
                    self.threads_per_node,
                    self.options.flow.queue_capacity,
                ));
            }
            self.op_nodes.push(per_node);
        }

        // Threads: FP computes a per-node static allocation (one per lane
        // homed on the node, mapped to global operator ids and unioned per
        // thread), DP leaves them unconstrained. Under the default
        // `ErrorRealization::Shared` each lane's distorted complexity
        // estimates are drawn ONCE and the resulting allocation is reused by
        // every node of its placement — the paper's reading: the optimizer
        // mis-estimates a cardinality once, not once per node.
        // `ErrorRealization::PerNode` keeps the historical fresh-draw-per-
        // node behaviour for comparison studies.
        let mut fp_rng = rng_from_seed(self.options.seed);
        let shared_assignments: Option<Vec<crate::fp::ThreadAssignment>> =
            if self.strategy.constrains_threads()
                && self.options.fp_realization == ErrorRealization::Shared
            {
                Some(
                    self.lanes
                        .iter()
                        .map(|lane| {
                            self.strategy
                                .allocate(
                                    lane.plan,
                                    self.threads_per_node as u32,
                                    &self.cost,
                                    &mut fp_rng,
                                )
                                .unwrap_or_default()
                        })
                        .collect(),
                )
            } else {
                None
            };
        for node in 0..self.nodes {
            let allowed: Option<Vec<BitSet>> = if self.strategy.constrains_threads() {
                let mut per_thread: Vec<BitSet> = vec![BitSet::default(); self.threads_per_node];
                for (lane_idx, lane) in self.lanes.iter().enumerate() {
                    // A pinned lane only constrains the threads of its
                    // own placement nodes.
                    if let Some(mask) = &lane.mask {
                        if !mask.contains(&NodeId::from(node)) {
                            continue;
                        }
                    }
                    let fresh;
                    let assignment = match &shared_assignments {
                        Some(assignments) => &assignments[lane_idx],
                        None => {
                            fresh = self
                                .strategy
                                .allocate(
                                    lane.plan,
                                    self.threads_per_node as u32,
                                    &self.cost,
                                    &mut fp_rng,
                                )
                                .unwrap_or_default();
                            &fresh
                        }
                    };
                    for (t, ops) in assignment.iter().enumerate() {
                        for o in ops {
                            per_thread[t].insert(lane.base + o.index());
                        }
                    }
                }
                Some(per_thread)
            } else {
                None
            };
            let threads = (0..self.threads_per_node)
                .map(|t| ThreadRuntime {
                    idle: false,
                    allowed: allowed.as_ref().map(|a| a[t].clone()),
                })
                .collect();
            self.threads.push(threads);
        }

        // Every lane already arrived at time zero enters the admission queue
        // in mix order and is admitted — memory reserved, triggers seeded —
        // while its placement has room (head-of-line FCFS, exactly like
        // `mix::schedule_mix`); later arrivals get a QueryStart event at
        // their instant.
        for lane_idx in 0..self.lanes.len() {
            if self.lanes[lane_idx].arrival == SimTime::ZERO {
                self.admission_queue.push_back(lane_idx);
            } else {
                self.calendar.schedule_at(
                    self.lanes[lane_idx].arrival,
                    Event::QueryStart { lane: lane_idx },
                );
            }
        }
        while let Some(lane) = self.try_reserve_head() {
            self.start_lane(lane);
        }

        // Kick off every thread at time zero.
        for node in 0..self.nodes {
            for thread in 0..self.threads_per_node {
                self.calendar
                    .schedule_at(SimTime::ZERO, Event::ThreadReady { node, thread });
            }
        }

        // Inject the topology stream: each validated event fires at its
        // instant. Events past the end of the run are simply never popped.
        for index in 0..self.topology.len() {
            let at = SimTime::ZERO + Duration::from_secs_f64(self.topology[index].at_secs);
            self.calendar.schedule_at(at, Event::Topology { index });
        }

        // Scans with no local data (or empty relations) can complete right
        // away; run an initial end check over everything already started.
        for op in 0..self.ops.len() {
            for node in 0..self.nodes {
                self.check_local_end(op, node);
            }
        }
        Ok(())
    }

    /// Seeds trigger activations for one lane: the scan's partition on each
    /// home node is split into trigger activations of `trigger_pages` pages,
    /// assigned to disks round-robin and distributed across the node's
    /// thread queues with the redistribution-skew router.
    fn seed_triggers(&mut self, lane_idx: usize) {
        let tuples_per_page = self.config.costs.tuples_per_page();
        let (base, n_ops, skew) = {
            let lane = &self.lanes[lane_idx];
            (lane.base, lane.n_ops, lane.skew)
        };
        let scan_ops: Vec<usize> = (base..base + n_ops)
            .filter(|&i| self.ops[i].kind.is_scan())
            .collect();
        for op_idx in scan_ops {
            let home_len = self.ops[op_idx].home.len();
            let total = self.lanes[lane_idx]
                .plan
                .tree
                .operator(OperatorId::from(op_idx - base))
                .input_tuples;
            let per_node = total / home_len as u64;
            let remainder = total - per_node * home_len as u64;
            for i in 0..home_len {
                let mut node = self.ops[op_idx].home[i];
                // A home node that is down at seeding time cannot hold the
                // partition: its share is re-homed onto a live home node (the
                // replica assumption — data survives node failures on the
                // shared disks and is readable from the survivors).
                if !self.live[node.index()] {
                    node = NodeId::from(self.live_home_redirect(op_idx, i as u64));
                }
                let mut node_tuples = per_node + if i == 0 { remainder } else { 0 };
                // Within the node, spread trigger activations across thread
                // queues with the skew router.
                let mut router =
                    OutputRouter::new(self.threads_per_node, skew, op_idx + node.index());
                let tuples_per_trigger = self.options.flow.trigger_pages * tuples_per_page;
                let mut seeded = 0u64;
                while node_tuples > 0 {
                    let chunk = node_tuples.min(tuples_per_trigger);
                    node_tuples -= chunk;
                    let pages = chunk.div_ceil(tuples_per_page).max(1);
                    let disk_local = self.disk_cursor[node.index()] % self.disks_per_node;
                    self.disk_cursor[node.index()] += 1;
                    let disk = DiskId::new(node, disk_local);
                    let slot = router.route(chunk);
                    let activation =
                        Activation::trigger(OperatorId::from(op_idx - base), pages, chunk, disk)
                            .for_query(lane_idx as u32);
                    let opn = self.op_nodes[op_idx][node.index()]
                        .as_mut()
                        .expect("home node state exists");
                    // Trigger activations bypass flow control (they are the
                    // roots of the dataflow, produced once at start-up).
                    opn.enqueue_or_park(slot, activation);
                    seeded += chunk;
                }
                if seeded > 0 {
                    self.ready[node.index()].insert(op_idx);
                }
                self.ops[op_idx].input_sent += seeded;
                self.ops[op_idx].input_delivered += seeded;
            }
        }
    }

    /// Whether the run is complete. Closed mode: every operator terminated.
    /// Open mode: the arrival stream is exhausted, the waiting room is empty
    /// and every admitted query retired (its `QueryRelease` processed, so
    /// the final latency samples are recorded and the final slot freed).
    fn is_done(&self) -> bool {
        match &self.open {
            Some(open) => {
                open.arrivals_done
                    && open.upcoming.is_none()
                    && open.pending.is_empty()
                    && open.live_now == 0
            }
            None => self.ops_terminated >= self.ops.len(),
        }
    }

    /// Runs the event loop until [`Self::is_done`].
    fn run_loop(&mut self) -> Result<()> {
        while !self.is_done() {
            let Some((_, event)) = self.calendar.pop() else {
                return Err(self.stall_error());
            };
            if self.calendar.processed() > MAX_EVENTS {
                return Err(DlbError::exec("event budget exhausted"));
            }
            self.dispatch(event)?;
        }
        Ok(())
    }

    fn dispatch(&mut self, event: Event) -> Result<()> {
        match event {
            Event::ThreadReady { node, thread } => self.on_thread_ready(node, thread),
            Event::Data {
                node,
                op,
                slot,
                activation,
            } => self.on_data(node, op, slot, activation),
            Event::Control { node, msg } => self.on_control(node, msg),
            Event::QueryStart { lane } => self.on_query_start(lane),
            Event::QueryAdmit { lane } => self.on_query_admit(lane),
            Event::QueryRelease { lane } => self.on_query_release(lane),
            Event::Topology { index } => self.on_topology(index)?,
            Event::OpenArrival => self.on_open_arrival(),
        }
        Ok(())
    }

    /// Whether op slot `op` holds an installed operator: always in closed
    /// mode; in open mode only inside an admitted lane's plan (free and
    /// retired slots hold terminated placeholders).
    fn slot_in_use(&self, op: usize) -> bool {
        let lane = &self.lanes[self.ops[op].lane];
        op < lane.base + lane.n_ops && (self.open.is_none() || lane.started)
    }

    /// The error for a calendar that emptied before the run was done: how
    /// many in-use operators terminated, then up to [`STALL_REPORT_OPS`] of
    /// the others with their end-detection progress and per-home queue
    /// state.
    fn stall_error(&self) -> DlbError {
        let in_use: Vec<usize> = (0..self.ops.len())
            .filter(|&op| self.slot_in_use(op))
            .collect();
        let stuck: Vec<usize> = in_use
            .iter()
            .copied()
            .filter(|&op| !self.ops[op].terminated)
            .collect();
        let mut msg = format!(
            "simulation stalled: {} of {} operators terminated",
            in_use.len() - stuck.len(),
            in_use.len()
        );
        for (i, &op) in stuck.iter().take(STALL_REPORT_OPS).enumerate() {
            let o = &self.ops[op];
            let homes = o.home.len();
            msg += if i == 0 { "; unterminated: " } else { "; " };
            msg += &format!(
                "lane {} op {} (phase-1 {}/{homes}, phase-2 {}/{homes}",
                o.lane,
                op - self.lanes[o.lane].base,
                o.phase1_reports,
                o.phase2_confirms,
            );
            for n in &o.home {
                if let Some(opn) = &self.op_nodes[op][n.index()] {
                    let parked = opn.parked.len();
                    msg += &format!(
                        ", node {}: {} queued {parked} parked {} processing",
                        n.index(),
                        opn.queued_activations() - parked,
                        opn.processing
                    );
                }
            }
            msg.push(')');
        }
        if stuck.len() > STALL_REPORT_OPS {
            msg += &format!("; and {} more", stuck.len() - STALL_REPORT_OPS);
        }
        DlbError::exec(msg)
    }

    /// The machine-wide aggregate report of a finished run.
    fn aggregate_report(&self) -> ExecutionReport {
        let response = self.finished_at.since(SimTime::ZERO);
        let utilization = self.cpu.utilization(response);
        let per_node_busy = (0..self.nodes)
            .map(|n| self.cpu.node_busy(NodeId::from(n)))
            .collect();
        ExecutionReport {
            strategy: self.strategy,
            nodes: self.config.machine.nodes,
            processors_per_node: self.config.machine.processors_per_node,
            response_time: response,
            activations: self.activations_done,
            tuples_processed: self.tuples_processed,
            result_tuples: self.result_tuples,
            total_busy: self.cpu.total_busy(),
            total_idle: self.cpu.total_idle(response),
            utilization,
            per_node_busy,
            messages: self.network.stats().messages,
            network_bytes: self.network.stats().bytes,
            lb_requests: self.lb_requests,
            lb_acquisitions: self.lb_acquisitions,
            lb_bytes: self.lb_bytes,
            events: self.calendar.processed(),
        }
    }

    /// Runs the simulation to completion and produces the report.
    pub(crate) fn run(mut self) -> Result<ExecutionReport> {
        self.run_loop()?;
        Ok(self.aggregate_report())
    }

    /// Runs the simulation to completion and produces the aggregate plus the
    /// per-query breakdown (co-simulated mode).
    pub(crate) fn run_cosim(mut self) -> Result<CoSimReport> {
        self.run_loop()?;
        let aggregate = self.aggregate_report();
        let queries = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let completion_secs = lane.finished_at.as_secs_f64();
                // Non-negative by construction: `start_lane` stamps
                // `admitted_at` at the (post-arrival) admission instant and
                // `SimTime::since` is saturating.
                let wait_secs = lane.admitted_at.since(lane.arrival).as_secs_f64();
                QueryExecReport {
                    query: i,
                    priority: lane.priority,
                    arrival_secs: lane.arrival.as_secs_f64(),
                    admitted_secs: lane.admitted_at.as_secs_f64(),
                    wait_secs,
                    completion_secs,
                    response_secs: lane.finished_at.since(lane.arrival).as_secs_f64(),
                    activations: lane.activations,
                    tuples_processed: lane.tuples_processed,
                    result_tuples: lane.result_tuples,
                }
            })
            .collect();
        Ok(CoSimReport {
            aggregate,
            queries,
            faults: self.faults,
        })
    }

    /// Runs an open-system simulation to completion and produces the
    /// streaming report: aggregate counters plus the latency sketches (no
    /// per-query materialization).
    pub(crate) fn run_open(mut self) -> Result<OpenReport> {
        self.run_loop()?;
        let aggregate = self.aggregate_report();
        let open = self.open.take().expect("open mode");
        // Front-end retirements (cache hits, follower fan-outs) happen off
        // the calendar, so the run can end after the engine's last event.
        let makespan = aggregate
            .response_time
            .as_secs_f64()
            .max(open.front_finish.as_secs_f64());
        let throughput_qps = if makespan > 0.0 {
            open.completed as f64 / makespan
        } else {
            0.0
        };
        let cache = open.cache.stats();
        let frontend = FrontendStats {
            cache_hits: cache.hits,
            cache_stale: cache.stale,
            cache_evictions: cache.evictions,
            cache_misses: cache.misses,
            cache_bypass: open.cache_bypass,
            coalesced: open.flight.coalesced(),
            engine_queries: open.engine_queries,
        };
        Ok(OpenReport {
            aggregate,
            completed: open.completed,
            peak_live: open.peak_live,
            throughput_qps,
            response: open.response,
            wait: open.wait,
            slowdown: open.slowdown,
            response_by_class: open.response_by_class,
            frontend,
            engine_by_template: open.engine_by_template,
            response_engine: open.response_engine,
            response_cache_hit: open.response_cache_hit,
            response_coalesced: open.response_coalesced,
        })
    }

    // ----------------------------------------------------------------- //
    // Thread scheduling
    // ----------------------------------------------------------------- //

    fn thread_may_process(&self, node: usize, thread: usize, op: usize) -> bool {
        match &self.threads[node][thread].allowed {
            None => true,
            Some(set) => set.contains(op),
        }
    }

    fn op_consumable(&self, op: usize, node: usize) -> bool {
        let o = &self.ops[op];
        self.lanes[o.lane].started
            && !o.terminated
            && o.blockers_remaining == 0
            && self.op_nodes[op][node].is_some()
    }

    /// Moves parked activations of (op, node) into queues with free space.
    fn deliver_parked(&mut self, op: usize, node: usize) {
        let Some(opn) = self.op_nodes[op][node].as_mut() else {
            return;
        };
        while let Some(front) = opn.parked.front().copied() {
            let Some(slot) = opn.queues.iter().position(|q| !q.is_full()) else {
                break;
            };
            opn.unpark_front();
            opn.enqueue(slot, front);
        }
    }

    /// Selects the next activation for a thread. Lanes are visited in
    /// priority order (descending, mix index on ties); within a lane the
    /// thread prefers its primary queues (its own queue of every operator)
    /// and falls back to any other queue of the node, paying a small
    /// interference penalty. A higher-priority query's work — even on a
    /// non-primary queue — is taken before any lower-priority query's.
    fn select_work(&mut self, node: usize, thread: usize) -> Option<(usize, Activation, bool)> {
        for li in 0..self.lane_order.len() {
            let lane = self.lane_order[li];
            let hot = self.lane_hot[lane];
            debug_assert!(
                hot.started == self.lanes[lane].started
                    && hot.base as usize == self.lanes[lane].base
                    && hot.n_ops as usize == self.lanes[lane].n_ops,
                "lane_hot snapshot drifted from lane state"
            );
            if !hot.started {
                continue;
            }
            let (base, n_ops) = (hot.base as usize, hot.n_ops as usize);
            if n_ops == 0 {
                continue;
            }
            if n_ops > 64 {
                // Wide plans fall off the single-word fast path.
                if let Some(found) = self.select_work_lane_scan(node, thread, base, n_ops) {
                    return Some(found);
                }
                continue;
            }
            // One word holds the lane's candidate set: operators with work
            // queued on this node, filtered by the strategy's run-time
            // work-selection hook (the default intersects the thread's
            // static allocation, when one exists). The hook works on the
            // extracted words directly — no policy forces a return to
            // pointer-chasing. Everything else is never visited.
            let ready_word = self.ready[node].extract_range(base, n_ops);
            if ready_word == 0 {
                continue;
            }
            let allowed_word = self.threads[node][thread]
                .allowed
                .as_ref()
                .map(|set| set.extract_range(base, n_ops));
            let cand = if self.custom_mask {
                self.strategy.work_mask(ready_word, allowed_word)
            } else {
                // The default hook devirtualized: one AND, no dispatch on
                // the per-lane fast path (`custom_mask` is cached at
                // construction; `custom_work_mask` tests pin the equality).
                ready_word & allowed_word.unwrap_or(u64::MAX)
            };
            if cand == 0 {
                continue;
            }
            // The loops this replaces visited `base + (thread + shift) %
            // n_ops` for ascending `shift`; splitting the word at the start
            // offset and walking each half ascending reproduces that order
            // exactly.
            let rot = thread % n_ops;
            let lo_mask = (1u64 << rot) - 1;
            let parts = [cand & !lo_mask, cand & lo_mask];
            // Pass 1: primary queues (the thread's own queue of every
            // operator of the lane).
            for mut m in parts {
                while m != 0 {
                    let op = base + m.trailing_zeros() as usize;
                    m &= m - 1;
                    if !self.op_consumable(op, node) {
                        continue;
                    }
                    self.deliver_parked(op, node);
                    let opn = self.op_nodes[op][node].as_mut().expect("home state");
                    if let Some(act) = opn.dequeue(thread) {
                        opn.processing += 1;
                        if opn.queued == 0 {
                            self.ready[node].remove(op);
                        }
                        return Some((op, act, true));
                    }
                }
            }
            // Pass 2: any other queue of the node, preferring the first
            // loaded queue after the thread's own (wrap-around order).
            for mut m in parts {
                while m != 0 {
                    let op = base + m.trailing_zeros() as usize;
                    m &= m - 1;
                    if !self.op_consumable(op, node) {
                        continue;
                    }
                    let opn = self.op_nodes[op][node].as_mut().expect("home state");
                    if self.threads_per_node <= 64 {
                        let qm = opn.nonempty_mask() & !(1u64 << thread);
                        if qm == 0 {
                            continue;
                        }
                        let after = if thread + 1 >= 64 {
                            0
                        } else {
                            qm & !((1u64 << (thread + 1)) - 1)
                        };
                        let q = if after != 0 {
                            after.trailing_zeros() as usize
                        } else {
                            qm.trailing_zeros() as usize
                        };
                        let act = opn.dequeue(q).expect("nonempty queue");
                        opn.processing += 1;
                        if opn.queued == 0 {
                            self.ready[node].remove(op);
                        }
                        return Some((op, act, false));
                    }
                    for offset in 1..self.threads_per_node {
                        let q = (thread + offset) % self.threads_per_node;
                        if let Some(act) = opn.dequeue(q) {
                            opn.processing += 1;
                            if opn.queued == 0 {
                                self.ready[node].remove(op);
                            }
                            return Some((op, act, false));
                        }
                    }
                }
            }
        }
        None
    }

    /// Work selection over one lane whose operator range spans more than one
    /// mask word: the original rotated linear scan (cold path, plans of more
    /// than 64 operators).
    fn select_work_lane_scan(
        &mut self,
        node: usize,
        thread: usize,
        base: usize,
        n_ops: usize,
    ) -> Option<(usize, Activation, bool)> {
        // Pass 1: primary queues.
        for shift in 0..n_ops {
            let op = base + (thread + shift) % n_ops;
            // Nothing queued or parked: skip without touching the operator
            // or queue state at all.
            if !self.ready[node].contains(op) {
                debug_assert!(
                    self.op_nodes[op][node]
                        .as_ref()
                        .is_none_or(|o| o.queued == 0),
                    "ready bitset lost a non-empty operator"
                );
                continue;
            }
            if !self.op_consumable(op, node) || !self.thread_may_process(node, thread, op) {
                continue;
            }
            self.deliver_parked(op, node);
            let opn = self.op_nodes[op][node].as_mut().expect("home state");
            if let Some(act) = opn.dequeue(thread) {
                opn.processing += 1;
                if opn.queued == 0 {
                    self.ready[node].remove(op);
                }
                return Some((op, act, true));
            }
        }
        // Pass 2: any other queue of the node.
        for shift in 0..n_ops {
            let op = base + (thread + shift) % n_ops;
            if !self.ready[node].contains(op) {
                continue;
            }
            if !self.op_consumable(op, node) || !self.thread_may_process(node, thread, op) {
                continue;
            }
            let opn = self.op_nodes[op][node].as_mut().expect("home state");
            for offset in 1..self.threads_per_node {
                let q = (thread + offset) % self.threads_per_node;
                if let Some(act) = opn.dequeue(q) {
                    opn.processing += 1;
                    if opn.queued == 0 {
                        self.ready[node].remove(op);
                    }
                    return Some((op, act, false));
                }
            }
        }
        None
    }

    fn on_thread_ready(&mut self, node: usize, thread: usize) {
        // Quantum-end wakeups of a node that failed mid-quantum die here.
        if !self.live[node] {
            self.set_idle(node, thread, true);
            return;
        }
        self.set_idle(node, thread, false);
        match self.select_work(node, thread) {
            Some((op, act, primary)) => self.process_activation(node, thread, op, act, primary),
            None => {
                self.set_idle(node, thread, true);
                self.request_global_work(node, thread);
            }
        }
    }

    /// Records thread idleness in both the boolean flag and the per-node
    /// idle bitmask (the mask is the scan structure, the flag the source of
    /// truth for wide machines).
    fn set_idle(&mut self, node: usize, thread: usize, idle: bool) {
        self.threads[node][thread].idle = idle;
        if thread < 64 {
            let bit = 1u64 << thread;
            if idle {
                self.idle_threads[node] |= bit;
            } else {
                self.idle_threads[node] &= !bit;
            }
        }
    }

    fn wake_threads(&mut self, node: usize, op_filter: Option<usize>) {
        if !self.live[node] {
            return;
        }
        if self.threads_per_node <= 64 {
            // Fast path: walk the idle bitmask (ascending thread order, the
            // same order as the boolean scan).
            let mut mask = self.idle_threads[node];
            debug_assert!(
                (0..self.threads_per_node)
                    .all(|t| self.threads[node][t].idle == ((mask >> t) & 1 == 1)),
                "idle bitmask drifted from thread flags"
            );
            if mask == 0 {
                return;
            }
            let now = self.calendar.now();
            while mask != 0 {
                let thread = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(op) = op_filter {
                    if !self.thread_may_process(node, thread, op) {
                        continue;
                    }
                }
                self.set_idle(node, thread, false);
                self.calendar
                    .schedule_at(now, Event::ThreadReady { node, thread });
            }
            return;
        }
        let now = self.calendar.now();
        for thread in 0..self.threads_per_node {
            if !self.threads[node][thread].idle {
                continue;
            }
            if let Some(op) = op_filter {
                if !self.thread_may_process(node, thread, op) {
                    continue;
                }
            }
            self.set_idle(node, thread, false);
            self.calendar
                .schedule_at(now, Event::ThreadReady { node, thread });
        }
    }

    // ----------------------------------------------------------------- //
    // Memory admission (head-of-line FCFS, matching `mix::schedule_mix`)
    // ----------------------------------------------------------------- //

    /// The *live* node indices of one lane's placement (its mask, or the
    /// whole machine). With no topology events every node is live, so this is
    /// exactly the static placement.
    fn admission_nodes(&self, lane: usize) -> Vec<usize> {
        match &self.lanes[lane].mask {
            Some(mask) => mask
                .iter()
                .map(|n| n.index())
                .filter(|&n| self.live[n])
                .collect(),
            None => (0..self.nodes).filter(|&n| self.live[n]).collect(),
        }
    }

    /// If the head-of-line waiting lane fits on every live node of its
    /// placement, pops it and reserves its memory, returning the lane.
    /// Admission is strictly FCFS: a later lane never jumps a blocked head.
    fn try_reserve_head(&mut self) -> Option<usize> {
        let &lane = self.admission_queue.front()?;
        let mem = self.lanes[lane].mem_per_node;
        let nodes = self.admission_nodes(lane);
        if !nodes.iter().all(|&n| self.free_mem[n] >= mem) {
            return None;
        }
        for &n in &nodes {
            self.free_mem[n] -= mem;
        }
        self.lanes[lane].reserved = nodes.into_iter().map(|n| (n, mem)).collect();
        self.admission_queue.pop_front();
        Some(lane)
    }

    /// Marks an admitted lane started and seeds its triggers. Memory was
    /// already reserved by [`Self::try_reserve_head`].
    fn start_lane(&mut self, lane: usize) {
        self.lanes[lane].started = true;
        self.lanes[lane].admitted_at = self.calendar.now();
        self.sync_lane_hot(lane);
        self.seed_triggers(lane);
    }

    /// Re-snapshots one lane's hot scheduling fields after a
    /// `started`/`n_ops` mutation (see [`LaneHot`]).
    fn sync_lane_hot(&mut self, lane: usize) {
        self.lane_hot[lane] = LaneHot {
            base: self.lanes[lane].base as u32,
            n_ops: self.lanes[lane].n_ops as u32,
            started: self.lanes[lane].started,
        };
    }

    /// Post-admission bookkeeping of a lane admitted mid-run: trivially-done
    /// operators report, and every node wakes (the new work may sit
    /// anywhere, and steal decisions must see it).
    fn activate_lane(&mut self, lane: usize) {
        let (base, n_ops) = (self.lanes[lane].base, self.lanes[lane].n_ops);
        for op in base..base + n_ops {
            for node in 0..self.nodes {
                self.check_local_end(op, node);
            }
        }
        for node in 0..self.nodes {
            self.wake_threads(node, None);
        }
    }

    /// A co-simulated query arrives: it joins the admission queue and — when
    /// its placement has the memory and no earlier query is blocked ahead of
    /// it — is admitted on the spot: memory reserved, triggers seeded,
    /// machine woken.
    fn on_query_start(&mut self, lane: usize) {
        self.admission_queue.push_back(lane);
        while let Some(admitted) = self.try_reserve_head() {
            self.start_lane(admitted);
            self.activate_lane(admitted);
        }
    }

    /// A waiting query's reservation succeeded after a release: start it.
    fn on_query_admit(&mut self, lane: usize) {
        self.start_lane(lane);
        self.activate_lane(lane);
    }

    /// A query completed: free its working set on its placement nodes, then
    /// admit every waiting lane that now fits (each admission is its own
    /// `QueryAdmit` event at the current instant; memory is reserved at
    /// scheduling time so the chain of fits stays consistent).
    fn on_query_release(&mut self, lane: usize) {
        // A restarted operator can re-terminate a lane that already released
        // (lose-and-restart rebuilds after the lane's first completion).
        if std::mem::replace(&mut self.lanes[lane].released, true) {
            return;
        }
        let cap = self.config.machine.memory_per_node_bytes;
        for (n, amt) in std::mem::take(&mut self.lanes[lane].reserved) {
            // Reservations moved onto a survivor may have overcommitted it
            // (saturating reserve); cap the give-back at the capacity.
            self.free_mem[n] = (self.free_mem[n] + amt).min(cap);
        }
        if self.open.is_some() {
            // Open mode: retirement — record latency samples, drop the
            // lane's operator state, recycle the slot, admit from the
            // waiting room.
            self.retire_open_lane(lane);
            self.try_admit_open();
            return;
        }
        let now = self.calendar.now();
        while let Some(admitted) = self.try_reserve_head() {
            self.calendar
                .schedule_at(now, Event::QueryAdmit { lane: admitted });
        }
    }

    // ----------------------------------------------------------------- //
    // Open-system mode (stochastic arrivals, bounded live state)
    // ----------------------------------------------------------------- //

    /// The next query of the arrival stream arrives: the front end tries the
    /// result cache, then single-flight coalescing; only a miss that leads
    /// enters the waiting room. The following arrival is drawn and scheduled
    /// (lazy, one ahead), and admission runs. With the front end disabled the
    /// path is exactly the historical one.
    fn on_open_arrival(&mut self) {
        let now = self.calendar.now();
        let next_offset = {
            let open = self.open.as_mut().expect("open mode");
            let arrival = open.upcoming.take().expect("an arrival was scheduled");
            let mut enqueue = true;
            if open.frontend.enabled() {
                if open.frontend.cache_capacity > 0 {
                    if let Lookup::Hit(()) = open.cache.lookup(&arrival.template, now.as_secs_f64())
                    {
                        // Served from cache: retire synchronously at
                        // now + fan-out, never touching a lane or the
                        // calendar. Wait is zero — it never queued.
                        let response = open.frontend.fanout_cost_secs;
                        let solo = open.templates[arrival.template].solo_secs;
                        let slowdown = if solo > 0.0 { response / solo } else { 1.0 };
                        open.response.record(response);
                        open.wait.record(0.0);
                        open.slowdown.record(slowdown);
                        let class =
                            (arrival.priority as usize - 1).min(open.response_by_class.len() - 1);
                        open.response_by_class[class].record(response);
                        open.response_cache_hit.record(response);
                        open.completed += 1;
                        let retire_at = now + Duration::from_secs_f64(response);
                        open.front_finish = open.front_finish.max(retire_at);
                        enqueue = false;
                    }
                } else {
                    open.cache_bypass += 1;
                }
                if enqueue && open.frontend.coalesce && !open.flight.lead(arrival.template) {
                    // An identical query is in flight: subscribe to its
                    // leader instead of executing again.
                    open.flight.attach(
                        &arrival.template,
                        OpenFollower {
                            arrived_at: now,
                            priority: arrival.priority,
                        },
                    );
                    enqueue = false;
                }
            }
            if enqueue {
                open.pending.push_back(OpenPending {
                    arrived_at: now,
                    template: arrival.template,
                    priority: arrival.priority,
                });
            }
            match open.stream.next() {
                Some(next) => {
                    open.upcoming = Some(next);
                    Some(next.offset_secs)
                }
                None => {
                    open.arrivals_done = true;
                    None
                }
            }
        };
        if let Some(offset) = next_offset {
            self.calendar.schedule_at(
                SimTime::ZERO + Duration::from_secs_f64(offset),
                Event::OpenArrival,
            );
        }
        self.try_admit_open();
    }

    /// Admits waiting queries while a lane slot is free and the head of the
    /// waiting room fits in every node's free memory. Strict head-of-line
    /// FCFS, like closed-mode admission: a blocked head is never jumped.
    fn try_admit_open(&mut self) {
        loop {
            let (slot, head) = {
                let open = self.open.as_mut().expect("open mode");
                if open.free_slots.is_empty() {
                    return;
                }
                let Some(front) = open.pending.front() else {
                    return;
                };
                let mem_per_node = open.templates[front.template]
                    .memory_bytes
                    .div_ceil(self.nodes as u64);
                if !(0..self.nodes).all(|n| self.free_mem[n] >= mem_per_node) {
                    return;
                }
                let head = open.pending.pop_front().expect("checked non-empty");
                let slot = open.free_slots.pop().expect("checked non-empty");
                open.admission_seq += 1;
                open.lane_seq[slot] = open.admission_seq;
                open.lane_template[slot] = head.template;
                open.live_now += 1;
                open.peak_live = open.peak_live.max(open.live_now);
                (slot, head)
            };
            self.admit_open_lane(slot, head);
        }
    }

    /// Populates a free lane slot with one admitted query: lane descriptors,
    /// fresh operator runtimes over the slot's op range, memory reservation,
    /// FP thread allocation, scheduling order, triggers.
    fn admit_open_lane(&mut self, slot: usize, head: OpenPending) {
        let now = self.calendar.now();
        let (plan, memory_bytes) = {
            let open = self.open.as_ref().expect("open mode");
            let t = &open.templates[head.template];
            (t.plan, t.memory_bytes)
        };
        let mem_per_node = memory_bytes.div_ceil(self.nodes as u64);
        for n in 0..self.nodes {
            self.free_mem[n] -= mem_per_node;
        }
        let n_ops = plan.tree.operators().len();
        let base = self.lanes[slot].base;
        let skew = self.lanes[slot].skew;
        {
            let lane = &mut self.lanes[slot];
            lane.plan = plan;
            lane.arrival = head.arrived_at;
            lane.priority = head.priority;
            lane.memory_bytes = memory_bytes;
            lane.mem_per_node = mem_per_node;
            lane.reserved = (0..self.nodes).map(|n| (n, mem_per_node)).collect();
            lane.released = false;
            lane.n_ops = n_ops;
            lane.started = true;
            lane.admitted_at = now;
            lane.ops_terminated = 0;
            lane.finished_at = SimTime::ZERO;
            lane.activations = 0;
            lane.tuples_processed = 0;
            lane.result_tuples = 0;
        }
        self.sync_lane_hot(slot);
        // Rebuild the slot's operator runtimes (mirrors `initialize`, but in
        // place over the slot's fixed op range).
        let joins = plan.tree.joins();
        for op in plan.tree.operators() {
            let idx = base + op.id.index();
            let home: Vec<NodeId> = plan
                .homes
                .home(op.id)
                .nodes()
                .iter()
                .copied()
                .filter(|n| n.index() < self.nodes)
                .collect();
            let mut blockers: Vec<OperatorId> = plan.blocked_by(op.id);
            blockers.sort_unstable();
            blockers.dedup();
            let output_ratio = if op.input_tuples == 0 {
                0.0
            } else {
                op.output_tuples as f64 / op.input_tuples as f64
            };
            let build_twin = match op.kind {
                OperatorKind::Probe { join } => joins.get(&join).map(|(b, _)| base + b.index()),
                _ => None,
            };
            let slots = home.len() * self.threads_per_node;
            let mut per_node: Vec<Option<OpNodeRuntime>> = (0..self.nodes).map(|_| None).collect();
            for node in &home {
                per_node[node.index()] = Some(OpNodeRuntime::new(
                    self.threads_per_node,
                    self.options.flow.queue_capacity,
                ));
            }
            self.ops[idx] = OpRuntime {
                lane: slot,
                kind: op.kind,
                consumer: op.consumer.map(|c| base + c.index()),
                home,
                output_ratio,
                blockers_remaining: blockers.len(),
                terminated: false,
                router: OutputRouter::new(slots, skew, idx),
                input_sent: 0,
                input_delivered: 0,
                input_processed: 0,
                phase1_reports: 0,
                phase2_started: false,
                phase2_confirms: 0,
                build_twin,
                producers: Self::global_producers(plan, base, op.id),
            };
            self.op_nodes[idx] = per_node;
            // The slot's ops were counted terminated (placeholder or
            // retired); they are live again.
            self.ops_terminated -= 1;
            self.live_ops.insert(idx);
        }
        // FP: one fresh allocation per admission (the optimizer
        // mis-estimates each arriving query once), inserted into every
        // node's thread sets; retirement removes it again.
        if self.strategy.constrains_threads() {
            let mut fp_rng = std::mem::replace(
                &mut self.open.as_mut().expect("open mode").fp_rng,
                rng_from_seed(0),
            );
            let assignment = self
                .strategy
                .allocate(plan, self.threads_per_node as u32, &self.cost, &mut fp_rng)
                .unwrap_or_default();
            self.open.as_mut().expect("open mode").fp_rng = fp_rng;
            for node in 0..self.nodes {
                for (t, ops) in assignment.iter().enumerate() {
                    let set = self.threads[node][t]
                        .allowed
                        .as_mut()
                        .expect("FP threads carry allowed sets");
                    for o in ops {
                        set.insert(base + o.index());
                    }
                }
            }
        }
        // Re-derive the scheduling order: priority descending, admission
        // sequence ascending on ties (free slots sort by their last
        // occupant's keys — harmless, they are skipped as not started).
        let mut order = std::mem::take(&mut self.lane_order);
        {
            let open = self.open.as_ref().expect("open mode");
            order.sort_by(|&a, &b| {
                self.lanes[b]
                    .priority
                    .cmp(&self.lanes[a].priority)
                    .then(open.lane_seq[a].cmp(&open.lane_seq[b]))
            });
        }
        self.lane_order = order;
        self.seed_triggers(slot);
        self.activate_lane(slot);
    }

    /// Retires a completed open-mode lane: records its latency samples into
    /// the streaming sketches, then *drops* its operator state — op-node
    /// queues become `None`, op runtimes revert to placeholders, FP allowed
    /// ids are withdrawn — and frees the slot. This is what bounds live
    /// state by the concurrency level instead of the total query count.
    fn retire_open_lane(&mut self, lane_idx: usize) {
        let (base, n_ops, priority, finished, response_secs, wait_secs) = {
            let lane = &self.lanes[lane_idx];
            (
                lane.base,
                lane.n_ops,
                lane.priority,
                lane.finished_at,
                lane.finished_at.since(lane.arrival).as_secs_f64(),
                lane.admitted_at.since(lane.arrival).as_secs_f64(),
            )
        };
        for idx in base..base + n_ops {
            // Invalidate steal episodes still referencing the retired op.
            self.epochs[idx] += 1;
            self.ops[idx] = Self::placeholder_op(lane_idx);
            self.op_nodes[idx] = (0..self.nodes).map(|_| None).collect();
            for node in 0..self.nodes {
                self.ready[node].remove(idx);
            }
        }
        if self.strategy.constrains_threads() {
            for node in 0..self.nodes {
                for t in 0..self.threads_per_node {
                    if let Some(set) = &mut self.threads[node][t].allowed {
                        for idx in base..base + n_ops {
                            set.remove(idx);
                        }
                    }
                }
            }
        }
        self.lanes[lane_idx].started = false;
        self.sync_lane_hot(lane_idx);
        let open = self.open.as_mut().expect("open mode");
        let solo = open.templates[open.lane_template[lane_idx]].solo_secs;
        let slowdown = if solo > 0.0 {
            response_secs / solo
        } else {
            1.0
        };
        open.response.record(response_secs);
        open.wait.record(wait_secs);
        open.slowdown.record(slowdown);
        let class = (priority as usize - 1).min(open.response_by_class.len() - 1);
        open.response_by_class[class].record(response_secs);
        open.completed += 1;
        open.live_now -= 1;
        open.free_slots.push(lane_idx);
        // Front-end bookkeeping: this lane was an engine execution (counted
        // unconditionally so `completed == engine + hits + coalesced` holds
        // with the front end off too), its result becomes cacheable now, and
        // its followers retire with it.
        let template = open.lane_template[lane_idx];
        open.engine_queries += 1;
        open.engine_by_template[template] += 1;
        open.response_engine.record(response_secs);
        if open.frontend.cache_capacity > 0 {
            open.cache.insert(template, (), finished.as_secs_f64());
        }
        if open.frontend.coalesce {
            let followers = open.flight.complete(&template);
            if !followers.is_empty() {
                let retire_at = finished + Duration::from_secs_f64(open.frontend.fanout_cost_secs);
                let solo = open.templates[template].solo_secs;
                for f in followers {
                    let response = retire_at.since(f.arrived_at).as_secs_f64();
                    let wait = finished.since(f.arrived_at).as_secs_f64();
                    let slowdown = if solo > 0.0 { response / solo } else { 1.0 };
                    open.response.record(response);
                    open.wait.record(wait);
                    open.slowdown.record(slowdown);
                    let class = (f.priority as usize - 1).min(open.response_by_class.len() - 1);
                    open.response_by_class[class].record(response);
                    open.response_coalesced.record(response);
                    open.completed += 1;
                }
                open.front_finish = open.front_finish.max(retire_at);
            }
        }
    }

    // ----------------------------------------------------------------- //
    // Activation processing
    // ----------------------------------------------------------------- //

    fn contention(&self, _node: usize) -> f64 {
        self.options
            .contention_factor(self.config.machine.processors_per_node)
    }

    fn process_activation(
        &mut self,
        node: usize,
        thread: usize,
        op_idx: usize,
        act: Activation,
        primary: bool,
    ) {
        let now = self.calendar.now();
        let costs = self.config.costs;
        let mut instructions =
            costs.queue_access_instr + if primary { 0 } else { costs.interference_instr };
        let mut io_complete = now;
        let kind = self.ops[op_idx].kind;
        // Scans and probes emit in proportion to their input; builds emit
        // nothing.
        let out_tuples = if kind.is_build() {
            0
        } else {
            round_u64(act.tuples as f64 * self.ops[op_idx].output_ratio)
        };

        match act.kind {
            ActivationKind::Trigger { pages, disk } => {
                let io_requests = pages
                    .div_ceil(self.config.disk.io_cache_pages as u64)
                    .max(1);
                instructions += act.tuples * costs.scan_tuple_instr
                    + io_requests * self.config.disk.async_io_init_instr;
                // The first read of a partition fragment positions the disk
                // (latency + seek); later trigger activations of the same
                // scan stream sequentially.
                let first = self.op_nodes[op_idx][node]
                    .as_mut()
                    .map(|o| o.started_disks.insert(disk.local))
                    .unwrap_or(true);
                let outcome = if first {
                    self.disks.read(disk, now, pages)
                } else {
                    self.disks.read_streaming(disk, now, pages)
                };
                io_complete = outcome.complete;
            }
            ActivationKind::Data => {
                if kind.is_build() {
                    instructions += act.tuples * costs.build_tuple_instr;
                } else {
                    // Probe.
                    instructions += act.tuples * costs.probe_tuple_instr
                        + out_tuples * costs.result_tuple_instr;
                }
            }
        }

        let cpu_time = self.config.cpu.instructions(instructions) * self.contention(node);
        let mut quantum_end = (now + cpu_time).max(io_complete);

        // Record hash-table growth for builds.
        if kind.is_build() {
            if let Some(opn) = self.op_nodes[op_idx][node].as_mut() {
                opn.hash_tuples += act.tuples;
            }
        }

        // Produce and route output.
        if out_tuples > 0 {
            quantum_end = self.emit_output(node, op_idx, out_tuples, quantum_end);
        }

        // Bookkeeping.
        {
            let opn = self.op_nodes[op_idx][node].as_mut().expect("home state");
            opn.processing -= 1;
        }
        self.ops[op_idx].input_processed += act.tuples;
        self.activations_done += 1;
        self.tuples_processed += act.tuples;
        {
            // Per-query accounting keys off the activation's own query tag
            // (which steals and transfers preserve); the operator's lane
            // must always agree with it.
            debug_assert_eq!(
                act.query as usize, self.ops[op_idx].lane,
                "activation tagged for a different query than its operator"
            );
            let lane = &mut self.lanes[act.query as usize];
            lane.activations += 1;
            lane.tuples_processed += act.tuples;
        }

        let busy = quantum_end.since(now);
        self.cpu.record_busy(
            ProcessorId::new(NodeId::from(node), thread as u32),
            busy,
            quantum_end,
        );

        // End detection must be re-evaluated on every home node: a node that
        // drained earlier (while batches were still in flight elsewhere) only
        // becomes reportable once the operator's global counters settle.
        self.check_local_ends(op_idx, None);
        self.maybe_terminate(op_idx);

        self.calendar
            .schedule_at(quantum_end, Event::ThreadReady { node, thread });
    }

    /// Routes `out_tuples` produced by `op_idx` on `node` to the consumer's
    /// queues, batching into data activations. Returns the updated quantum end
    /// (network send CPU is charged to the producing thread).
    fn emit_output(
        &mut self,
        node: usize,
        op_idx: usize,
        out_tuples: u64,
        start: SimTime,
    ) -> SimTime {
        let Some(consumer_idx) = self.ops[op_idx].consumer else {
            self.result_tuples += out_tuples;
            self.lanes[self.ops[op_idx].lane].result_tuples += out_tuples;
            return start;
        };
        let lane_idx = self.ops[consumer_idx].lane;
        let consumer_local = OperatorId::from(consumer_idx - self.lanes[lane_idx].base);
        let batch_size = self.config.costs.tuples_per_batch.max(1);
        let mut remaining = out_tuples;
        let mut cursor = start;
        while remaining > 0 {
            let batch = remaining.min(batch_size);
            remaining -= batch;
            let slot = self.ops[consumer_idx].router.route(batch);
            let mut dest_node = self.ops[consumer_idx].home[slot / self.threads_per_node].index();
            if !self.live[dest_node] {
                dest_node = self.live_home_redirect(consumer_idx, slot as u64);
            }
            let dest_thread = slot % self.threads_per_node;
            let activation = Activation::data(consumer_local, batch).for_query(lane_idx as u32);
            self.ops[consumer_idx].input_sent += batch;
            if dest_node == node {
                // Same SM-node: the move goes through shared memory; the
                // activation becomes visible when the producer finishes.
                self.calendar.schedule_at(
                    cursor,
                    Event::Data {
                        node: dest_node,
                        op: consumer_idx,
                        slot: dest_thread,
                        activation,
                    },
                );
            } else {
                let bytes = self.config.costs.bytes_for_tuples(batch);
                let timing =
                    self.network
                        .send(NodeId::from(node), NodeId::from(dest_node), bytes, cursor);
                cursor = timing.sent;
                self.calendar.schedule_at(
                    timing.arrival + timing.recv_cpu,
                    Event::Data {
                        node: dest_node,
                        op: consumer_idx,
                        slot: dest_thread,
                        activation,
                    },
                );
            }
        }
        cursor
    }

    fn on_data(&mut self, node: usize, op: usize, slot: usize, activation: Activation) {
        // A batch in flight towards a node that failed after the send is
        // re-routed to a live home node by the recovery manager.
        let node = if self.live[node] {
            node
        } else {
            self.live_home_redirect(op, slot as u64)
        };
        self.ops[op].input_delivered += activation.tuples;
        {
            let opn = self.op_nodes[op][node]
                .as_mut()
                .expect("data routed to a home node");
            opn.enqueue_or_park(slot, activation);
            self.ready[node].insert(op);
        }
        if self.op_consumable(op, node) {
            self.wake_threads(node, Some(op));
        }
        // The delivery may have been the last in-flight batch of the
        // operator: other home nodes that drained earlier can now report
        // their local end.
        self.check_local_ends(op, Some(node));
        // Guarded at the call site: pull-only policies (`push` is `None`)
        // pay one predictable branch per delivery, not a call.
        if self.push.is_some() {
            self.maybe_push_work(node);
        }
    }

    // ----------------------------------------------------------------- //
    // Control messages (scheduler)
    // ----------------------------------------------------------------- //

    fn send_control(&mut self, from: usize, to: usize, bytes: u64, msg: ControlMsg) {
        let now = self.calendar.now();
        let timing = self
            .network
            .send(NodeId::from(from), NodeId::from(to), bytes, now);
        self.calendar.schedule_at(
            timing.arrival + timing.recv_cpu,
            Event::Control { node: to, msg },
        );
    }

    /// The end-detection coordinator: the lowest-indexed live node. The
    /// protocol counters live centrally in [`OpRuntime`], so the coordinator
    /// role survives a fail-over without state hand-off.
    fn coordinator(&self) -> usize {
        self.live.iter().position(|&l| l).unwrap_or(0)
    }

    /// Redirects work addressed to a down node onto a live home node of
    /// `op`, deterministically keyed by `key` under the configured re-home
    /// policy. Callers guarantee at least one live home node (enforced by
    /// the wholesale lane re-home on failure).
    fn live_home_redirect(&self, op: usize, key: u64) -> usize {
        let mut seen = BTreeSet::new();
        let survivors: Vec<NodeId> = self.ops[op]
            .home
            .iter()
            .copied()
            .filter(|n| self.live[n.index()] && seen.insert(n.index()))
            .collect();
        let total = (self.ops[op].home.len() * self.threads_per_node) as u64;
        self.options
            .recovery
            .rehome
            .survivor(key, total, &survivors)
            .index()
    }

    fn on_control(&mut self, node: usize, msg: ControlMsg) {
        match msg {
            ControlMsg::LocalEnd { op } => {
                self.ops[op].phase1_reports += 1;
                if self.ops[op].phase1_reports == self.ops[op].home.len()
                    && !self.ops[op].phase2_started
                {
                    self.ops[op].phase2_started = true;
                    for h in 0..self.ops[op].home.len() {
                        let home_node = self.ops[op].home[h].index();
                        self.send_control(
                            node,
                            home_node,
                            CONTROL_MESSAGE_BYTES,
                            ControlMsg::ConfirmRequest { op },
                        );
                    }
                }
            }
            ControlMsg::ConfirmRequest { op } => {
                let drained = self.op_nodes[op][node]
                    .as_ref()
                    .map(|o| o.is_drained())
                    .unwrap_or(true);
                if drained {
                    let already = self.op_nodes[op][node]
                        .as_mut()
                        .map(|o| std::mem::replace(&mut o.confirm_sent, true))
                        .unwrap_or(false);
                    if !already {
                        self.send_control(
                            node,
                            self.coordinator(),
                            CONTROL_MESSAGE_BYTES,
                            ControlMsg::Confirm { op },
                        );
                    }
                } else if let Some(opn) = self.op_nodes[op][node].as_mut() {
                    opn.confirm_pending = true;
                }
            }
            ControlMsg::Confirm { op } => {
                self.ops[op].phase2_confirms += 1;
                self.maybe_terminate(op);
            }
            ControlMsg::Terminated { .. } => {
                // Accounting-only broadcast: state was already updated when
                // the coordinator made the decision.
            }
            ControlMsg::Starving {
                from,
                free_bytes,
                target,
                epoch,
                token,
            } => self.on_starving(node, from, free_bytes, target, epoch, token),
            ControlMsg::Offer {
                from,
                op,
                tuples,
                bytes,
                load,
                epoch,
                token,
            } => self.on_offer(node, token, Some((from, op, tuples, bytes, load, epoch))),
            ControlMsg::NoOffer { from, token } => {
                let _ = from;
                self.on_offer(node, token, None)
            }
            ControlMsg::Acquire {
                from,
                op,
                has_table,
                epoch,
            } => self.on_acquire(node, from, op, has_table, epoch),
            ControlMsg::Transfer {
                from,
                op,
                activations,
                bytes,
            } => self.on_transfer(node, from, op, activations, bytes),
            ControlMsg::PushProbe { from, token } => self.on_push_probe(node, from, token),
            ControlMsg::PushReply {
                from,
                accept,
                free_bytes,
                token,
            } => self.on_push_reply(node, from, accept, free_bytes, token),
        }
    }

    // ----------------------------------------------------------------- //
    // End-of-operator detection (§4)
    // ----------------------------------------------------------------- //

    fn producers_terminated(&self, op: usize) -> bool {
        self.ops[op]
            .producers
            .iter()
            .all(|&p| self.ops[p].terminated)
    }

    /// What [`Self::check_local_end`] would send for `op` on `node` right
    /// now, as `(local_end, confirm)`: phase 1's `LocalEnd` once the node
    /// drained after the operator's last input, phase 2's `Confirm` once a
    /// pending confirmation request finds the node drained.
    fn local_end_actions(&self, op: usize, node: usize) -> (bool, bool) {
        let o = &self.ops[op];
        if o.terminated || !self.lanes[o.lane].started {
            return (false, false);
        }
        let Some(opn) = self.op_nodes[op][node].as_ref() else {
            return (false, false);
        };
        let drained = opn.is_drained();
        let local_end = !opn.phase1_sent
            && drained
            && o.input_sent == o.input_delivered
            && self.producers_terminated(op);
        let confirm = opn.confirm_pending && !opn.confirm_sent && drained;
        (local_end, confirm)
    }

    fn check_local_end(&mut self, op: usize, node: usize) {
        let (local_end, confirm) = self.local_end_actions(op, node);
        if local_end {
            self.op_nodes[op][node].as_mut().unwrap().phase1_sent = true;
            self.send_control(
                node,
                self.coordinator(),
                CONTROL_MESSAGE_BYTES,
                ControlMsg::LocalEnd { op },
            );
        }
        if confirm {
            let opn = self.op_nodes[op][node].as_mut().unwrap();
            opn.confirm_pending = false;
            opn.confirm_sent = true;
            self.send_control(
                node,
                self.coordinator(),
                CONTROL_MESSAGE_BYTES,
                ControlMsg::Confirm { op },
            );
        }
    }

    /// Whether the §4 end check can act for `op` on any home node. A
    /// `LocalEnd` needs every sent input delivered and every producer
    /// terminated; a `Confirm` needs a pending confirmation request, and
    /// those only arrive once phase 2 started (re-homing, re-opening and
    /// slot recycling clear both together). Operator-level state, so the
    /// per-home loop is skipped on most activations and deliveries.
    fn end_check_due(&self, op: usize) -> bool {
        let o = &self.ops[op];
        !o.terminated
            && (o.phase2_started
                || (o.input_sent == o.input_delivered && self.producers_terminated(op)))
    }

    /// Runs [`Self::check_local_end`] on every home node of `op` but `skip`,
    /// when [`Self::end_check_due`] allows it. Iterating by index keeps
    /// this allocation-free.
    fn check_local_ends(&mut self, op: usize, skip: Option<usize>) {
        if !self.end_check_due(op) {
            #[cfg(debug_assertions)]
            for n in &self.ops[op].home {
                debug_assert_eq!(
                    self.local_end_actions(op, n.index()),
                    (false, false),
                    "the end-check gate skipped op {op} on node {} with a message due",
                    n.index()
                );
            }
            return;
        }
        for h in 0..self.ops[op].home.len() {
            let home_node = self.ops[op].home[h].index();
            if Some(home_node) != skip {
                self.check_local_end(op, home_node);
            }
        }
    }

    fn maybe_terminate(&mut self, op: usize) {
        if self.ops[op].terminated {
            return;
        }
        let home_len = self.ops[op].home.len();
        if self.ops[op].phase1_reports < home_len || self.ops[op].phase2_confirms < home_len {
            return;
        }
        // Global safety conditions against races with work acquisition.
        if self.ops[op].input_processed < self.ops[op].input_sent {
            return;
        }
        let any_left = self.ops[op]
            .home
            .iter()
            .any(|n| !self.op_nodes[op][n.index()].as_ref().unwrap().is_drained());
        if any_left {
            return;
        }

        // Terminate.
        self.ops[op].terminated = true;
        self.ops_terminated += 1;
        self.live_ops.remove(op);
        let now = self.calendar.now();
        self.finished_at = self.finished_at.max(now);
        {
            let lane_idx = self.ops[op].lane;
            let lane = &mut self.lanes[lane_idx];
            lane.ops_terminated += 1;
            lane.finished_at = lane.finished_at.max(now);
            // The lane's last operator terminated: release its working set
            // (and re-run admission) at this instant. The release of the
            // final lane may be left unprocessed — the loop exits once every
            // operator terminated.
            if lane.ops_terminated == lane.n_ops {
                self.calendar
                    .schedule_at(now, Event::QueryRelease { lane: lane_idx });
            }
        }

        // Accounting broadcast (the 4th message round of the protocol).
        for h in 0..self.ops[op].home.len() {
            let home_node = self.ops[op].home[h].index();
            self.send_control(
                self.coordinator(),
                home_node,
                CONTROL_MESSAGE_BYTES,
                ControlMsg::Terminated { op },
            );
        }

        // Unblock dependent operators of the same query and wake their nodes.
        let lane_base = self.lanes[self.ops[op].lane].base;
        let local = OperatorId::from(op - lane_base);
        for blocked in self.lanes[self.ops[op].lane].plan.blocks(local) {
            let b = lane_base + blocked.index();
            self.ops[b].blockers_remaining = self.ops[b].blockers_remaining.saturating_sub(1);
            if self.ops[b].blockers_remaining == 0 {
                for h in 0..self.ops[b].home.len() {
                    let home_node = self.ops[b].home[h].index();
                    self.wake_threads(home_node, Some(b));
                }
            }
        }

        // Some operators may now be able to report their own end (e.g. a
        // consumer that received no input, or one waiting for this producer).
        // The live set is snapshotted first because the recursive calls
        // shrink it; ops terminated mid-sweep are skipped at visit time,
        // exactly as the full-range scan did.
        let sweep: Vec<usize> = self.live_ops.iter().collect();
        for other in sweep {
            if self.ops[other].terminated {
                continue;
            }
            self.check_local_ends(other, None);
            self.maybe_terminate(other);
        }
    }

    // ----------------------------------------------------------------- //
    // Global load balancing (§3.2)
    // ----------------------------------------------------------------- //

    fn request_global_work(&mut self, node: usize, thread: usize) {
        if self.nodes <= 1 || self.ops_terminated == self.ops.len() {
            return;
        }
        match self.scope {
            StealScope::Node => {
                if self.node_lb[node].starving_outstanding {
                    return;
                }
                // Neighbourhood-limited policies (Diffusion) may leave a node
                // with no eligible provider at all; don't arm an episode that
                // can never complete.
                if !self.has_steal_providers(node) {
                    return;
                }
                self.node_lb[node].starving_outstanding = true;
                self.begin_steal_request(node, None);
            }
            StealScope::TargetedOps => {
                // A request may already be outstanding for this node.
                if self.node_lb[node].replies_received < self.node_lb[node].replies_expected {
                    return;
                }
                if !self.has_steal_providers(node) {
                    return;
                }
                // Find-then-act: the scan only reads, so it can walk the
                // thread's allowed set in place (no per-episode collection).
                let chosen = self.threads[node][thread].allowed.as_ref().and_then(|set| {
                    set.iter().find(|&op| {
                        self.ops[op].kind.is_probe()
                            && self.lanes[self.ops[op].lane].started
                            && !self.ops[op].terminated
                            && self.ops[op].blockers_remaining == 0
                            && !self.node_lb[node].fp_outstanding.contains(&op)
                    })
                });
                if let Some(op) = chosen {
                    self.node_lb[node].fp_outstanding.insert(op);
                    // One outstanding request per starving episode.
                    self.begin_steal_request(node, Some(op));
                }
            }
            StealScope::None => {}
        }
    }

    /// Whether any node may answer a steal request from `node` under the
    /// strategy's provider rule.
    fn has_steal_providers(&self, node: usize) -> bool {
        (0..self.nodes).any(|other| self.strategy.steal_provider(node, other, self.nodes))
    }

    /// Broadcasts a starving message to every eligible provider node and arms
    /// the reply-collection state for one steal episode. Which nodes are
    /// eligible is the strategy's call ([`Policy::steal_provider`]): every
    /// other node for DP/FP, ring neighbours for Diffusion.
    fn begin_steal_request(&mut self, node: usize, target: Option<usize>) {
        self.node_lb[node].current_token += 1;
        let token = self.node_lb[node].current_token;
        self.node_lb[node].offers.clear();
        self.node_lb[node].replies_received = 0;
        self.node_lb[node].replies_expected = (0..self.nodes)
            .filter(|&other| self.strategy.steal_provider(node, other, self.nodes))
            .count();
        self.lb_requests += 1;
        // Advertise the node's memory net of admission reservations: an
        // acquired shipment (activations + hash-table partition) must fit in
        // what the admitted working sets left free, so steal decisions
        // respect the same per-node limit the in-loop admission enforces.
        // Single-plan runs reserve nothing, so this is the full capacity
        // there.
        let free = self.free_mem[node];
        // Pin the target's recycle epoch (FP only; DP requests carry no
        // target). A provider seeing a different epoch knows the slot was
        // recycled and must not offer the new occupant's work for it.
        let epoch = target.map(|op| self.epochs[op]).unwrap_or(0);
        for other in 0..self.nodes {
            if self.strategy.steal_provider(node, other, self.nodes) {
                self.send_control(
                    node,
                    other,
                    CONTROL_MESSAGE_BYTES,
                    ControlMsg::Starving {
                        from: node,
                        free_bytes: free,
                        target,
                        epoch,
                        token,
                    },
                );
            }
        }
    }

    /// Total queued-tuple load of a node across live operators: the
    /// aggregate a §3.2 provider advertises in its offers, and the quantity
    /// the Threshold watermarks compare against.
    fn node_load(&self, node: usize) -> u64 {
        self.live_ops
            .iter()
            .filter_map(|op| self.op_nodes[op][node].as_ref())
            .map(|opn| opn.queued_tuples())
            .sum()
    }

    /// Evaluates one operator as a steal candidate for `requester`
    /// (conditions (i)–(vi) of §3.2): only unblocked, non-terminated probe
    /// work whose home includes the requester moves, it must clear the
    /// minimum-tuples bar, and the shipment (tuples + hash-table partition)
    /// must fit the requester's free memory. Returns
    /// `(op, tuples, bytes, tuples-per-byte ratio)`.
    fn steal_candidate(
        &self,
        op: usize,
        node: usize,
        requester: usize,
        free_bytes: u64,
    ) -> Option<(usize, u64, u64, f64)> {
        if !self.ops[op].kind.is_probe()
            || !self.lanes[self.ops[op].lane].started
            || self.ops[op].terminated
            || self.ops[op].blockers_remaining > 0
            || !self.ops[op].home.contains(&NodeId::from(requester))
        {
            return None;
        }
        let opn = self.op_nodes[op][node].as_ref()?;
        let queued = opn.queued_tuples();
        if queued < self.options.steal.min_tuples {
            return None;
        }
        let steal_tuples = ((queued as f64) * self.options.steal.fraction) as u64;
        if steal_tuples == 0 {
            return None;
        }
        // The requester must copy this node's hash-table partition for
        // the probed join (conservatively assumed not yet copied).
        let hash_bytes = self.ops[op]
            .build_twin
            .and_then(|b| self.op_nodes[b][node].as_ref())
            .map(|b| self.cost.hash_table_bytes(b.hash_tuples))
            .unwrap_or(0);
        let bytes = self.config.costs.bytes_for_tuples(steal_tuples) + hash_bytes;
        if bytes > free_bytes {
            return None;
        }
        let ratio = steal_tuples as f64 / bytes.max(1) as f64;
        Some((op, steal_tuples, bytes, ratio))
    }

    /// A provider node looks for a candidate queue to off-load (conditions
    /// (i)–(vi) of §3.2) and answers the requester. In co-simulated mode the
    /// candidate set — and the advertised load — spans the operators of
    /// *every* interleaved query, so steal decisions see cross-query load.
    fn on_starving(
        &mut self,
        node: usize,
        requester: usize,
        free_bytes: u64,
        target: Option<usize>,
        epoch: u64,
        token: u64,
    ) {
        let mut best: Option<(usize, u64, u64, f64)> = None; // (op, tuples, bytes, ratio)
        match target {
            // Open mode: the targeted slot was recycled while the request was
            // in flight — the new occupant's work must not be offered under
            // the stale id. An empty candidate set still yields a NoOffer
            // reply, so the requester's reply counting stays intact.
            Some(op) if self.epochs[op] != epoch => {}
            Some(op) => best = self.steal_candidate(op, node, requester, free_bytes),
            // DP considers every live operator: the bitset walk visits the
            // non-terminated slots in ascending index order — the same
            // candidates, in the same order, as the full `0..ops.len()`
            // scan it replaces.
            None => {
                for op in self.live_ops.iter() {
                    let Some(candidate) = self.steal_candidate(op, node, requester, free_bytes)
                    else {
                        continue;
                    };
                    if best.map(|(_, _, _, r)| candidate.3 > r).unwrap_or(true) {
                        best = Some(candidate);
                    }
                }
            }
        }

        let load = self.node_load(node);

        match best {
            Some((op, tuples, bytes, _)) => self.send_control(
                node,
                requester,
                CONTROL_MESSAGE_BYTES,
                ControlMsg::Offer {
                    from: node,
                    op,
                    tuples,
                    bytes,
                    load,
                    epoch: self.epochs[op],
                    token,
                },
            ),
            None => self.send_control(
                node,
                requester,
                CONTROL_MESSAGE_BYTES,
                ControlMsg::NoOffer { from: node, token },
            ),
        }
    }

    /// The requester collects offers; once all providers answered it acquires
    /// from the most loaded one.
    fn on_offer(&mut self, node: usize, token: u64, offer: Option<OfferEntry>) {
        // A requester that died mid-episode abandons it: acquiring work onto
        // a dead node would strand it.
        if !self.live[node] {
            return;
        }
        {
            let lb = &mut self.node_lb[node];
            if token != lb.current_token {
                // Reply to an older steal episode; ignore it.
                return;
            }
            lb.replies_received += 1;
            if let Some(o) = offer {
                lb.offers.push(o);
            }
            if lb.replies_received < lb.replies_expected {
                return;
            }
        }
        // All replies in: pick the provider to acquire from. DP keeps a list
        // of queues it already stole from (§4): when possible it prefers a
        // provider whose hash-table partition it has already copied, and
        // otherwise takes the most loaded provider. FP has no such
        // optimization — it is part of the paper's DP contribution.
        let table_cached = |provider: usize, op: usize| {
            self.op_nodes[op][node]
                .as_ref()
                .map(|o| o.hash_copied_from.contains(&provider))
                .unwrap_or(false)
        };
        let offers = std::mem::take(&mut self.node_lb[node].offers);
        let chosen = if self.prefers_cached {
            offers
                .iter()
                .filter(|(provider, op, _, _, _, _)| table_cached(*provider, *op))
                .max_by_key(|(_, _, _, _, load, _)| *load)
                .or_else(|| offers.iter().max_by_key(|(_, _, _, _, load, _)| *load))
                .copied()
        } else {
            offers
                .iter()
                .max_by_key(|(_, _, _, _, load, _)| *load)
                .copied()
        };
        match chosen {
            None => {
                // Nothing to acquire; clear the outstanding flags so a later
                // starving episode can retry.
                self.node_lb[node].starving_outstanding = false;
                self.node_lb[node].fp_outstanding.clear();
            }
            Some((provider, op, _tuples, _bytes, _load, epoch)) => {
                let has_table = self.prefers_cached && table_cached(provider, op);
                self.send_control(
                    node,
                    provider,
                    CONTROL_MESSAGE_BYTES,
                    ControlMsg::Acquire {
                        from: node,
                        op,
                        has_table,
                        epoch,
                    },
                );
            }
        }
    }

    /// The provider ships roughly `steal_fraction` of its queued activations
    /// of `op`, plus its hash-table partition when the requester lacks it.
    fn on_acquire(
        &mut self,
        node: usize,
        requester: usize,
        op: usize,
        has_table: bool,
        epoch: u64,
    ) {
        // Open mode: the offered slot was recycled between Offer and Acquire
        // (its query terminated and a new one moved in). Ship an empty,
        // control-sized transfer so the requester's outstanding flags clear,
        // and leave the new occupant untouched.
        if self.epochs[op] != epoch {
            self.send_control(
                node,
                requester,
                CONTROL_MESSAGE_BYTES,
                ControlMsg::Transfer {
                    from: node,
                    op,
                    activations: Vec::new(),
                    bytes: CONTROL_MESSAGE_BYTES,
                },
            );
            return;
        }
        let mut shipped: Vec<Activation> = Vec::new();
        let mut shipped_tuples = 0u64;
        let mut hash_bytes = 0u64;
        if let Some(opn) = self.op_nodes[op][node].as_mut() {
            let total: usize = opn.queued_activations();
            let take = ((total as f64) * self.options.steal.fraction).ceil() as usize;
            // The shipped batch size is known up front; size the transfer
            // buffer once instead of growing it pop by pop.
            shipped.reserve_exact(take.min(total));
            let mut remaining = take;
            // Parked activations first (they are the oldest overflow).
            while remaining > 0 {
                let Some(a) = opn.unpark_front() else {
                    break;
                };
                shipped_tuples += a.tuples;
                shipped.push(a);
                remaining -= 1;
            }
            // Then bulk-drain the queues, spreading the remainder evenly over
            // the queues (a queue holding less than its quota rolls the
            // difference over to the later ones). `drain_into` appends into
            // the pre-sized transfer buffer and accounts tuples in the same
            // pass.
            let nq = opn.queues.len();
            for i in 0..nq {
                if remaining == 0 {
                    break;
                }
                let quota = remaining.div_ceil(nq - i);
                let outcome = opn.drain_queue_into(i, quota, &mut shipped);
                shipped_tuples += outcome.tuples;
                remaining -= outcome.count;
            }
            // Top-up sweep: under skew the work concentrates in low-index
            // queues (the router's hot slots), which the even-spread quota
            // above deliberately under-drains; take the shortfall from
            // whatever is left so the transfer really carries `take`
            // activations whenever that much work exists.
            for i in 0..nq {
                if remaining == 0 {
                    break;
                }
                let outcome = opn.drain_queue_into(i, remaining, &mut shipped);
                shipped_tuples += outcome.tuples;
                remaining -= outcome.count;
            }
            if opn.queued == 0 {
                self.ready[node].remove(op);
            }
        }
        if !has_table {
            hash_bytes = self.ops[op]
                .build_twin
                .and_then(|b| self.op_nodes[b][node].as_ref())
                .map(|b| self.cost.hash_table_bytes(b.hash_tuples))
                .unwrap_or(0);
        }
        let tuple_bytes: u64 = self.config.costs.bytes_for_tuples(shipped_tuples);
        let bytes = (tuple_bytes + hash_bytes).max(CONTROL_MESSAGE_BYTES);
        self.lb_bytes += bytes;
        // The provider's queues may now be empty: re-run end detection.
        self.check_local_end(op, node);
        self.maybe_terminate(op);
        self.send_control(
            node,
            requester,
            bytes,
            ControlMsg::Transfer {
                from: node,
                op,
                activations: shipped,
                bytes,
            },
        );
    }

    /// The requester integrates the acquired activations and wakes its
    /// threads.
    fn on_transfer(
        &mut self,
        node: usize,
        provider: usize,
        op: usize,
        activations: Vec<Activation>,
        _bytes: u64,
    ) {
        self.node_lb[node].starving_outstanding = false;
        self.node_lb[node].fp_outstanding.remove(&op);
        if activations.is_empty() {
            return;
        }
        // The provider already gave the work up: a shipment towards a node
        // that died in flight lands on a live home node instead of being
        // dropped (work conservation).
        let node = if self.live[node] {
            node
        } else {
            self.live_home_redirect(op, provider as u64)
        };
        self.lb_acquisitions += 1;
        {
            let opn = self.op_nodes[op][node]
                .as_mut()
                .expect("requester is in the operator home");
            opn.hash_copied_from.insert(provider);
            for a in activations {
                let slot = opn.steal_cursor % self.threads_per_node;
                opn.steal_cursor += 1;
                opn.enqueue_or_park(slot, a);
            }
            self.ready[node].insert(op);
        }
        if self.op_consumable(op, node) {
            self.wake_threads(node, Some(op));
        }
    }

    // ----------------------------------------------------------------- //
    // Sender-initiated push (Threshold)
    // ----------------------------------------------------------------- //

    /// After new work lands on `node`, probe a round-robin neighbour when
    /// the local queued load crossed the `hi` watermark. At most one probe
    /// is in flight per node; the eventual shipment reuses the §3.2
    /// Acquire/Transfer path, so conservation and fault redirects hold
    /// unchanged. A no-op (one branch) for pull-only policies.
    fn maybe_push_work(&mut self, node: usize) {
        let Some(cfg) = self.push else { return };
        if self.nodes < 2
            || !self.live[node]
            || self.node_lb[node].push_outstanding
            || self.node_load(node) as f64 <= cfg.hi
        {
            return;
        }
        let start = self.node_lb[node].push_cursor;
        let Some(target) = (1..self.nodes)
            .map(|d| (start + d) % self.nodes)
            .find(|&n| n != node && self.live[n])
        else {
            return;
        };
        let lb = &mut self.node_lb[node];
        lb.push_cursor = target;
        lb.push_outstanding = true;
        lb.current_token += 1;
        let token = lb.current_token;
        self.lb_requests += 1;
        self.send_control(
            node,
            target,
            CONTROL_MESSAGE_BYTES,
            ControlMsg::PushProbe { from: node, token },
        );
    }

    /// A probed node decides whether to take pushed work: accept when it is
    /// alive and its own queued load sits below the `lo` watermark. It
    /// always replies, so the sender's outstanding probe clears either way.
    fn on_push_probe(&mut self, node: usize, sender: usize, token: u64) {
        let accept = self
            .push
            .map(|cfg| self.live[node] && (self.node_load(node) as f64) < cfg.lo)
            .unwrap_or(false);
        self.send_control(
            node,
            sender,
            CONTROL_MESSAGE_BYTES,
            ControlMsg::PushReply {
                from: node,
                accept,
                free_bytes: self.free_mem[node],
                token,
            },
        );
    }

    /// The sender integrates a push verdict: on accept it offers its best
    /// candidate queue (the §3.2 tuples-per-byte arbitration, against the
    /// receiver's advertised free memory) and ships it through the regular
    /// Acquire path.
    fn on_push_reply(
        &mut self,
        node: usize,
        receiver: usize,
        accept: bool,
        free_bytes: u64,
        token: u64,
    ) {
        if token != self.node_lb[node].current_token {
            return;
        }
        self.node_lb[node].push_outstanding = false;
        if !accept || !self.live[node] || !self.live[receiver] {
            return;
        }
        let mut best: Option<(usize, u64, u64, f64)> = None;
        for op in self.live_ops.iter() {
            let Some(candidate) = self.steal_candidate(op, node, receiver, free_bytes) else {
                continue;
            };
            if best.map(|(_, _, _, r)| candidate.3 > r).unwrap_or(true) {
                best = Some(candidate);
            }
        }
        if let Some((op, _, _, _)) = best {
            self.on_acquire(node, receiver, op, false, self.epochs[op]);
        }
    }

    // ----------------------------------------------------------------- //
    // Topology events (fault injection)
    // ----------------------------------------------------------------- //

    /// Applies one validated topology event. Failures and drains strip the
    /// node and recover its state on the survivors; joins revive the node
    /// with empty memory and fresh threads.
    fn on_topology(&mut self, index: usize) -> Result<()> {
        let ev = self.topology[index];
        let node = ev.node.index();
        match ev.change {
            TopologyChange::NodeFail => self.on_node_down(node, false),
            TopologyChange::NodeDrain => self.on_node_down(node, true),
            TopologyChange::NodeJoin => self.on_node_join(node),
        }
    }

    /// A node leaves the machine. Between events no activation is mid-
    /// processing (`processing` is always 0 then), so the node's recoverable
    /// state is exactly its queued/parked activations plus its built
    /// hash-table partitions. A `graceful` drain always migrates that state;
    /// a failure loses it under [`RecoveryPolicy::LoseRestart`].
    fn on_node_down(&mut self, dead: usize, graceful: bool) -> Result<()> {
        self.live[dead] = false;
        if graceful {
            self.faults.drains += 1;
        } else {
            self.faults.failures += 1;
        }
        for thread in 0..self.threads_per_node {
            self.set_idle(dead, thread, true);
        }
        // Abandon the node's steal bookkeeping; the token bump voids replies
        // still in flight towards it.
        let lb = &mut self.node_lb[dead];
        lb.current_token += 1;
        lb.starving_outstanding = false;
        lb.fp_outstanding.clear();
        lb.offers.clear();
        lb.replies_received = 0;
        lb.replies_expected = 0;
        lb.push_outstanding = false;
        // The node's memory dies with it: admitted reservations on it are
        // gone, and nothing can be reserved there until it re-joins.
        for lane in &mut self.lanes {
            lane.reserved.retain(|&(n, _)| n != dead);
        }
        self.free_mem[dead] = 0;
        // Lanes whose whole placement died move wholesale onto one survivor;
        // afterwards every non-terminated operator has a live home node.
        self.rehome_dead_lanes(dead, graceful);
        // Strip the dead node's per-operator state and recover it.
        self.strip_node(dead, graceful);
        // Waiting queries re-admit against the survivors.
        self.refresh_admission()?;
        // The strip may have completed operators (the dead node held their
        // last pending work) and the survivors have new work: sweep end
        // detection and wake every live node.
        for op in 0..self.ops.len() {
            for node in 0..self.nodes {
                self.check_local_end(op, node);
            }
            self.maybe_terminate(op);
        }
        for node in 0..self.nodes {
            self.wake_threads(node, None);
        }
        Ok(())
    }

    /// A previously departed node re-joins: full memory, fresh threads, and
    /// it resumes receiving routed output for every operator still homing on
    /// it. Re-homed (replaced) homes are not restored.
    fn on_node_join(&mut self, node: usize) -> Result<()> {
        self.live[node] = true;
        self.faults.joins += 1;
        self.free_mem[node] = self.config.machine.memory_per_node_bytes;
        let lb = &mut self.node_lb[node];
        lb.current_token += 1;
        lb.starving_outstanding = false;
        lb.fp_outstanding.clear();
        lb.offers.clear();
        lb.replies_received = 0;
        lb.replies_expected = 0;
        lb.push_outstanding = false;
        // Demands shrink with the grown placement; waiting lanes may fit now.
        self.refresh_admission()?;
        let now = self.calendar.now();
        while let Some(admitted) = self.try_reserve_head() {
            self.calendar
                .schedule_at(now, Event::QueryAdmit { lane: admitted });
        }
        for thread in 0..self.threads_per_node {
            self.set_idle(node, thread, false);
            self.calendar
                .schedule_at(now, Event::ThreadReady { node, thread });
        }
        Ok(())
    }

    /// Moves every lane whose operators have no live home node left onto one
    /// chosen survivor: home entries are rewritten, routers rebuilt for the
    /// single-node slot space, the end-detection protocol restarts, and the
    /// lane's memory reservation follows (saturating — a survivor may end up
    /// overcommitted; graceful degradation beats an aborted query).
    fn rehome_dead_lanes(&mut self, dead: usize, graceful: bool) {
        for lane_idx in 0..self.lanes.len() {
            let (base, n_ops) = (self.lanes[lane_idx].base, self.lanes[lane_idx].n_ops);
            let needs: Vec<usize> = (base..base + n_ops)
                .filter(|&op| {
                    !self.ops[op].terminated
                        && !self.ops[op].home.iter().any(|n| self.live[n.index()])
                })
                .collect();
            let mask_dead = self.lanes[lane_idx]
                .mask
                .as_ref()
                .map(|m| !m.iter().any(|n| self.live[n.index()]))
                .unwrap_or(false);
            if needs.is_empty() && !mask_dead {
                continue;
            }
            // The survivor with the most free memory (lowest index on ties).
            let m = (0..self.nodes)
                .filter(|&n| self.live[n])
                .max_by(|&a, &b| self.free_mem[a].cmp(&self.free_mem[b]).then(b.cmp(&a)))
                .expect("the live set is never empty");
            if mask_dead {
                self.lanes[lane_idx].mask = Some(vec![NodeId::from(m)]);
                // An admitted, unreleased lane carries its reservation over.
                if self.lanes[lane_idx].started && !self.lanes[lane_idx].released {
                    let amt = self.lanes[lane_idx].mem_per_node;
                    if amt > 0 {
                        self.free_mem[m] = self.free_mem[m].saturating_sub(amt);
                        self.lanes[lane_idx].reserved.push((m, amt));
                    }
                }
            }
            for op in needs {
                let old_home = std::mem::replace(&mut self.ops[op].home, vec![NodeId::from(m)]);
                self.ops[op].router =
                    OutputRouter::new(self.threads_per_node, self.lanes[lane_idx].skew, op);
                // Restart end detection from scratch for the new home; the
                // global safety counters in `maybe_terminate` make stale
                // in-flight protocol messages harmless.
                self.ops[op].phase1_reports = 0;
                self.ops[op].phase2_started = false;
                self.ops[op].phase2_confirms = 0;
                let mut moved: Vec<Activation> = Vec::new();
                let mut hash = 0u64;
                let mut seen = BTreeSet::new();
                for d in old_home {
                    if !seen.insert(d.index()) {
                        continue;
                    }
                    if let Some(mut opn) = self.op_nodes[op][d.index()].take() {
                        opn.drain_all_into(&mut moved);
                        hash += opn.hash_tuples;
                        self.ready[d.index()].remove(op);
                    }
                }
                self.op_nodes[op][m] = Some(OpNodeRuntime::new(
                    self.threads_per_node,
                    self.options.flow.queue_capacity,
                ));
                // FP: the survivor's threads must be allowed to run the
                // re-homed operator (its static allocation never mentioned
                // this node).
                if self.strategy.constrains_threads() {
                    for thread in 0..self.threads_per_node {
                        if let Some(set) = &mut self.threads[m][thread].allowed {
                            set.insert(op);
                        }
                    }
                }
                self.recover_state(op, dead, moved, hash, graceful);
            }
        }
    }

    /// Empties the departed node's per-operator state (queues, parked
    /// overflow, hash-table partitions, disk positions) and recovers it on
    /// the survivors. The emptied [`OpNodeRuntime`] stays allocated so the
    /// end-detection and steal protocols keep working unchanged — a dead
    /// node's side of them is answered by the recovery manager.
    fn strip_node(&mut self, dead: usize, graceful: bool) {
        for op in 0..self.ops.len() {
            let Some(opn) = self.op_nodes[op][dead].as_mut() else {
                continue;
            };
            let mut moved: Vec<Activation> = Vec::new();
            opn.drain_all_into(&mut moved);
            self.ready[dead].remove(op);
            let hash = std::mem::take(&mut opn.hash_tuples);
            opn.hash_copied_from.clear();
            opn.started_disks.clear();
            opn.steal_cursor = 0;
            if moved.is_empty() && hash == 0 {
                continue;
            }
            self.recover_state(op, dead, moved, hash, graceful);
        }
    }

    /// Recovers one operator's stripped state on the live nodes of its home.
    ///
    /// * **Re-home and resume** (and every graceful drain): activations and
    ///   hash-table partitions ship over the interconnect to survivors
    ///   chosen by the re-home policy; nothing is lost or redone.
    /// * **Lose and restart**: queued input is discarded and regenerated on
    ///   the survivors at no transfer cost (upstream logically re-sends it);
    ///   a hash-table partition still needed by a live probe is rebuilt by
    ///   re-processing its tuples, re-opening the build operator when it had
    ///   already terminated.
    fn recover_state(
        &mut self,
        op: usize,
        from: usize,
        moved: Vec<Activation>,
        hash: u64,
        graceful: bool,
    ) {
        let mut seen = BTreeSet::new();
        let survivors: Vec<NodeId> = self.ops[op]
            .home
            .iter()
            .copied()
            .filter(|n| self.live[n.index()] && seen.insert(n.index()))
            .collect();
        if survivors.is_empty() {
            // Only reachable for a *terminated* operator (live homes are
            // guaranteed otherwise): its residual hash table dies with the
            // node. A probe that still wanted it was re-homed separately and
            // probes on without it — counts-level simulation keeps this
            // benign.
            self.faults.tuples_lost += hash + moved.iter().map(|a| a.tuples).sum::<u64>();
            return;
        }
        let lose = !graceful && matches!(self.options.recovery.policy, RecoveryPolicy::LoseRestart);
        let now = self.calendar.now();
        let total = (moved.len() as u64).max(1);
        for (i, a) in moved.into_iter().enumerate() {
            let dest = self
                .options
                .recovery
                .rehome
                .survivor(i as u64, total, &survivors)
                .index();
            // A trigger's pending disk reads move to the destination's disks
            // (the replica assumption: partitions are readable from the
            // survivors).
            let a = match a.kind {
                ActivationKind::Trigger { pages, .. } => {
                    let disk_local = self.disk_cursor[dest] % self.disks_per_node;
                    self.disk_cursor[dest] += 1;
                    Activation::trigger(
                        a.op,
                        pages,
                        a.tuples,
                        DiskId::new(NodeId::from(dest), disk_local),
                    )
                    .for_query(a.query)
                }
                ActivationKind::Data => a,
            };
            // Net-zero delivery accounting: `on_data` re-adds exactly what is
            // subtracted here, so end detection keeps its invariants.
            self.ops[op].input_delivered -= a.tuples;
            let slot = i % self.threads_per_node;
            if lose {
                self.faults.tuples_lost += a.tuples;
                self.calendar.schedule_at(
                    now,
                    Event::Data {
                        node: dest,
                        op,
                        slot,
                        activation: a,
                    },
                );
            } else {
                self.faults.activations_rehomed += 1;
                self.faults.tuples_rehomed += a.tuples;
                let bytes = self
                    .config
                    .costs
                    .bytes_for_tuples(a.tuples)
                    .max(CONTROL_MESSAGE_BYTES);
                self.faults.rebalance_bytes += bytes;
                let timing = self
                    .network
                    .send(NodeId::from(from), NodeId::from(dest), bytes, now);
                self.calendar.schedule_at(
                    timing.arrival + timing.recv_cpu,
                    Event::Data {
                        node: dest,
                        op,
                        slot,
                        activation: a,
                    },
                );
            }
        }
        if hash > 0 {
            self.recover_hash(op, from, hash, lose, &survivors);
        }
    }

    /// Recovers a lost or migrating hash-table partition of build operator
    /// `op`: shipped intact under re-home-and-resume (and drains), rebuilt
    /// by re-processing under lose-and-restart. A partition no probe needs
    /// any more is dropped silently.
    fn recover_hash(
        &mut self,
        op: usize,
        from: usize,
        hash: u64,
        lose: bool,
        survivors: &[NodeId],
    ) {
        let needed = self
            .ops
            .iter()
            .any(|o| o.build_twin == Some(op) && !o.terminated);
        if !needed {
            return;
        }
        if lose {
            self.faults.tuples_lost += hash;
            self.faults.tuples_redone += hash;
            if self.ops[op].terminated {
                self.reopen_operator(op);
            }
        }
        let now = self.calendar.now();
        let lane = self.ops[op].lane;
        let local = OperatorId::from(op - self.lanes[lane].base);
        // Spread the partition over the survivors in fixed-size units so
        // both re-home policies see a keyed stream (mirrors
        // `dlb_storage::rehome`).
        const UNIT: u64 = 1 << 10;
        let units = hash.div_ceil(UNIT);
        let mut remaining = hash;
        for unit in 0..units {
            let chunk = remaining.min(UNIT);
            remaining -= chunk;
            let dest = self
                .options
                .recovery
                .rehome
                .survivor(unit, units, survivors)
                .index();
            if lose {
                // Rebuild: fresh build input beyond the original stream.
                self.ops[op].input_sent += chunk;
                let a = Activation::data(local, chunk).for_query(lane as u32);
                self.calendar.schedule_at(
                    now,
                    Event::Data {
                        node: dest,
                        op,
                        slot: unit as usize % self.threads_per_node,
                        activation: a,
                    },
                );
            } else {
                let bytes = self.cost.hash_table_bytes(chunk).max(CONTROL_MESSAGE_BYTES);
                self.faults.rebalance_bytes += bytes;
                self.faults.tuples_rehomed += chunk;
                self.network
                    .send(NodeId::from(from), NodeId::from(dest), bytes, now);
                // The partition lands intact: counts move now, the transfer
                // cost is the network charge above.
                self.op_nodes[op][dest]
                    .as_mut()
                    .expect("survivor is a home node")
                    .hash_tuples += chunk;
            }
        }
    }

    /// Rolls a terminated operator back into the running state so lost build
    /// work can be redone; it re-terminates through the normal protocol once
    /// the rebuild input drains.
    fn reopen_operator(&mut self, op: usize) {
        if !self.ops[op].terminated {
            return;
        }
        self.ops[op].terminated = false;
        self.ops_terminated -= 1;
        self.live_ops.insert(op);
        let lane = self.ops[op].lane;
        self.lanes[lane].ops_terminated -= 1;
        self.ops[op].phase1_reports = 0;
        self.ops[op].phase2_started = false;
        self.ops[op].phase2_confirms = 0;
        for h in 0..self.ops[op].home.len() {
            let node = self.ops[op].home[h].index();
            if let Some(opn) = self.op_nodes[op][node].as_mut() {
                opn.phase1_sent = false;
                opn.confirm_pending = false;
                opn.confirm_sent = false;
            }
        }
        self.faults.operators_restarted += 1;
    }

    /// Re-derives the per-node working-set share of every not-yet-started
    /// lane from the live placement, failing fast when a waiting query can
    /// never fit on the shrunken topology.
    fn refresh_admission(&mut self) -> Result<()> {
        let cap = self.config.machine.memory_per_node_bytes;
        for i in 0..self.lanes.len() {
            if self.lanes[i].started {
                continue;
            }
            let placement_len = self.admission_nodes(i).len().max(1) as u64;
            let mem = self.lanes[i].memory_bytes.div_ceil(placement_len);
            self.lanes[i].mem_per_node = mem;
            if mem > cap {
                return Err(DlbError::exec(format!(
                    "query {i} needs {mem} bytes on each of its {placement_len} surviving \
                     placement node(s) but nodes have {cap} — it can never be admitted \
                     after the topology change"
                )));
            }
        }
        Ok(())
    }
}

/// Executes `plan` on the machine described by `config` with the given
/// strategy and options, returning the execution report.
pub fn execute(
    plan: &ParallelPlan,
    config: &SystemConfig,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<ExecutionReport> {
    if strategy.queue_based() {
        QueueEngine::new(plan, *config, strategy, *options)?.run()
    } else {
        crate::sp::execute_sp(plan, config, options)
    }
}

/// Co-simulates `queries` concurrent queries inside **one** engine event
/// loop on the machine described by `config`: query-tagged activations of
/// all queries interleave in the shared per-(operator, thread) queues,
/// threads serve lanes in priority order, and global load balancing ranks
/// providers by their cross-query load.
///
/// Each query carries a *placement mask* ([`CoSimQuery::mask`]) re-homing
/// its plan onto a node subset — the pinning placements of
/// [`crate::mix::MixPolicy::RoundRobin`] / [`crate::mix::MixPolicy::LoadAware`]
/// — and a working-set estimate ([`CoSimQuery::memory_bytes`]) admitted
/// against per-node free memory **inside** the event loop: a query whose
/// placement lacks the memory waits, in strict head-of-line FCFS arrival
/// order, until a `QueryRelease` frees enough (exactly the admission
/// discipline of [`crate::mix::schedule_mix`]). A query whose demand can
/// never fit is a configuration error, not a deadlock.
///
/// Only the queue-based strategies can interleave activations;
/// [`Strategy::synchronous`] is rejected. The event loop is strictly
/// sequential and seeded, so the result is bit-identical for any harness
/// thread count, and a single query with arrival 0, priority 1 and the
/// options' skew reproduces [`execute`] exactly (`aggregate ==` the plain
/// report).
pub fn execute_cosimulated(
    queries: &[CoSimQuery<'_>],
    config: &SystemConfig,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<CoSimReport> {
    execute_cosimulated_faulted(queries, config, strategy, options, &[])
}

/// [`execute_cosimulated`] with a deterministic stream of topology events
/// (node failures, drains, re-joins) injected into the shared event loop.
///
/// The stream is validated up front (see
/// [`crate::topology::validate_topology`]); recovery behaviour is selected by
/// `options.recovery`. Degradation accounting lands in
/// [`CoSimReport::faults`]. With an empty stream this is exactly
/// [`execute_cosimulated`] — same events, same report, bit for bit.
pub fn execute_cosimulated_faulted(
    queries: &[CoSimQuery<'_>],
    config: &SystemConfig,
    strategy: Strategy,
    options: &ExecOptions,
    topology: &[TopologyEvent],
) -> Result<CoSimReport> {
    if !strategy.queue_based() {
        return Err(DlbError::config(
            "co-simulation requires a queue-based strategy (DP or FP); \
             SP has no activation queues to interleave",
        ));
    }
    QueueEngine::new_cosim(queries, *config, strategy, *options, topology)?.run_cosim()
}

/// Runs the co-simulated engine as an **open system**: queries arrive over a
/// stochastic (but deterministic-per-seed) arrival process, are admitted from
/// a FCFS waiting room into a fixed pool of `traffic.concurrency` lane slots,
/// execute interleaved in the one shared event loop, and *retire* on
/// completion — their per-operator state is dropped and the slot recycled —
/// so live engine state is O(concurrency), never O(total queries).
///
/// Per-query latencies (response, admission wait, slowdown against the
/// template's solo time) stream into constant-size log-bucketed sketches; the
/// returned [`OpenReport`] carries p50/p95/p99 summaries overall and per
/// priority class.
///
/// An optional front end ([`OpenTraffic::frontend`]) sits between the stream
/// and the waiting room: an LRU/TTL result cache retires repeat queries at
/// the fan-out cost without touching a lane, and single-flight coalescing
/// subscribes concurrent identical arrivals to the in-flight leader's
/// result. [`OpenReport::frontend`] accounts for every outcome, and
/// [`OpenReport::engine_by_template`] records the residual per-template load
/// the balancer actually saw. With the default (inert) config the run is
/// bit-identical to one without a front end.
///
/// The arrival stream, template choices, priorities and FP thread allocations
/// are all drawn from seeded generators, and the event loop is strictly
/// sequential, so the result is bit-identical for any harness thread count.
/// A single-arrival stream reproduces [`execute`]'s response time exactly.
/// [`Strategy::synchronous`] is rejected like in co-simulated mode.
pub fn execute_open(
    traffic: &OpenTraffic<'_>,
    config: &SystemConfig,
    strategy: Strategy,
    options: &ExecOptions,
) -> Result<OpenReport> {
    if !strategy.queue_based() {
        return Err(DlbError::config(
            "open-system mode requires a queue-based strategy (DP or FP); \
             SP has no activation queues to interleave",
        ));
    }
    QueueEngine::new_open(traffic, *config, strategy, *options)?.run_open()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_common::{Duration, QueryId, RelationId};
    use dlb_query::jointree::JoinTree;
    use dlb_query::optree::OperatorTree;
    use dlb_query::plan::{ChainScheduling, OperatorHomes, ParallelPlan};

    fn two_join_plan(nodes: u32) -> ParallelPlan {
        let tree = JoinTree::join(
            JoinTree::join(
                JoinTree::leaf(RelationId::new(0), 4_000),
                JoinTree::leaf(RelationId::new(1), 8_000),
                1.0 / 8_000.0,
            ),
            JoinTree::leaf(RelationId::new(2), 6_000),
            1.0 / 6_000.0,
        );
        let ot = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&ot, nodes);
        ParallelPlan::build(QueryId::new(7), ot, homes, ChainScheduling::OneAtATime).unwrap()
    }

    fn bushy_plan(nodes: u32) -> ParallelPlan {
        let left = JoinTree::join(
            JoinTree::leaf(RelationId::new(0), 5_000),
            JoinTree::leaf(RelationId::new(1), 10_000),
            1.0 / 10_000.0,
        );
        let right = JoinTree::join(
            JoinTree::leaf(RelationId::new(2), 4_000),
            JoinTree::leaf(RelationId::new(3), 12_000),
            1.0 / 12_000.0,
        );
        let tree = JoinTree::join(left, right, 1.0 / 5_000.0);
        let ot = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&ot, nodes);
        ParallelPlan::build(QueryId::new(8), ot, homes, ChainScheduling::OneAtATime).unwrap()
    }

    fn solo(plan: &ParallelPlan, arrival: f64, priority: u32, skew: f64) -> CoSimQuery<'_> {
        CoSimQuery {
            plan,
            arrival_secs: arrival,
            priority,
            skew,
            mask: None,
            memory_bytes: 0,
        }
    }

    #[test]
    fn dp_single_node_executes_to_completion() {
        let plan = two_join_plan(1);
        let config = SystemConfig::shared_memory(4);
        let r = execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).unwrap();
        assert!(r.response_time > Duration::ZERO);
        assert!(r.activations > 0);
        assert!(
            r.tuples_processed >= 18_000,
            "tuples {}",
            r.tuples_processed
        );
        assert_eq!(r.messages, 0, "single node must not use the network");
        assert_eq!(r.lb_bytes, 0);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn dp_more_processors_is_faster() {
        let plan = bushy_plan(1);
        let opts = ExecOptions::default();
        let t2 = execute(
            &plan,
            &SystemConfig::shared_memory(2),
            Strategy::dynamic(),
            &opts,
        )
        .unwrap()
        .response_time;
        let t8 = execute(
            &plan,
            &SystemConfig::shared_memory(8),
            Strategy::dynamic(),
            &opts,
        )
        .unwrap()
        .response_time;
        assert!(t8 < t2, "8 procs ({t8}) should beat 2 procs ({t2})");
        let speedup = t2.as_secs_f64() / t8.as_secs_f64();
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn dp_is_deterministic() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let opts = ExecOptions::with_skew(0.5);
        let a = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
        let b = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(a.response_time, b.response_time);
        assert_eq!(a.activations, b.activations);
        assert_eq!(a.network_bytes, b.network_bytes);
    }

    #[test]
    fn dp_hierarchical_execution_uses_the_network_but_completes() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let r = execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).unwrap();
        assert!(r.messages > 0, "pipelined tuples must cross nodes");
        assert!(r.network_bytes > 0);
        assert!(r.result_tuples > 0);
    }

    #[test]
    fn fp_executes_and_is_not_faster_than_dp_under_skew() {
        let plan = bushy_plan(1);
        let opts = ExecOptions::with_skew(0.8);
        let config = SystemConfig::shared_memory(8);
        let dp = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
        let fp = execute(&plan, &config, Strategy::fixed(0.0), &opts).unwrap();
        assert!(
            fp.response_time >= dp.response_time,
            "FP ({}) should not beat DP ({}) with skewed data",
            fp.response_time,
            dp.response_time
        );
    }

    #[test]
    fn fp_with_cost_errors_is_no_faster_than_exact_fp() {
        let plan = two_join_plan(1);
        let config = SystemConfig::shared_memory(8);
        let opts = ExecOptions::default();
        let exact = execute(&plan, &config, Strategy::fixed(0.0), &opts).unwrap();
        let wrong = execute(&plan, &config, Strategy::fixed(0.3), &opts).unwrap();
        // Allocation with distorted estimates can only be as good or worse.
        assert!(wrong.response_time.as_secs_f64() >= exact.response_time.as_secs_f64() * 0.99);
    }

    #[test]
    fn processed_tuples_match_plan_volume_for_dp() {
        let plan = bushy_plan(1);
        let config = SystemConfig::shared_memory(4);
        let r = execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).unwrap();
        // Every operator input must be processed exactly once; allow a small
        // slack for rounding of probe outputs.
        let expected = plan.total_input_tuples();
        let tolerance = expected / 50 + 10;
        assert!(
            r.tuples_processed.abs_diff(expected) <= tolerance,
            "processed {} expected {expected}",
            r.tuples_processed
        );
        // The result cardinality is close to the optimizer estimate.
        let est = plan.tree.result_tuples();
        assert!(r.result_tuples.abs_diff(est) <= est / 10 + 16);
    }

    #[test]
    fn global_load_balancing_kicks_in_under_heavy_skew() {
        let plan = bushy_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let opts = ExecOptions {
            skew: 0.9,
            ..ExecOptions::default()
        };
        let r = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
        assert!(
            r.lb_requests > 0,
            "skewed hierarchical run should starve some node"
        );
    }

    #[test]
    fn single_scan_plan_terminates() {
        let ot = OperatorTree::from_join_tree(&JoinTree::leaf(RelationId::new(0), 2_000));
        let homes = OperatorHomes::all_nodes(&ot, 1);
        let plan =
            ParallelPlan::build(QueryId::new(1), ot, homes, ChainScheduling::OneAtATime).unwrap();
        let r = execute(
            &plan,
            &SystemConfig::shared_memory(2),
            Strategy::dynamic(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.result_tuples, 2_000);
        assert!(r.response_time > Duration::ZERO);
    }

    #[test]
    fn invalid_machine_rejected() {
        let plan = two_join_plan(1);
        let mut config = SystemConfig::shared_memory(4);
        config.machine.nodes = 0;
        assert!(execute(&plan, &config, Strategy::dynamic(), &ExecOptions::default()).is_err());
    }

    // ------------------------------------------------------------------ //
    // Co-simulated (multi-query) mode
    // ------------------------------------------------------------------ //

    #[test]
    fn cosim_single_query_matches_the_plain_engine_exactly() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        for (strategy, skew) in [
            (Strategy::dynamic(), 0.0),
            (Strategy::dynamic(), 0.6),
            (Strategy::fixed(0.1), 0.6),
        ] {
            let opts = ExecOptions::with_skew(skew);
            let plain = execute(&plan, &config, strategy, &opts).unwrap();
            let co = execute_cosimulated(&[solo(&plan, 0.0, 1, skew)], &config, strategy, &opts)
                .unwrap();
            assert_eq!(co.aggregate, plain, "{strategy:?} skew {skew}");
            assert_eq!(co.queries.len(), 1);
            let q = &co.queries[0];
            assert_eq!(q.response_secs, plain.response_time.as_secs_f64());
            assert_eq!(q.activations, plain.activations);
            assert_eq!(q.tuples_processed, plain.tuples_processed);
            assert_eq!(q.result_tuples, plain.result_tuples);
        }
    }

    #[test]
    fn cosim_interleaves_queries_and_slows_both_down() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::default();
        let alone = execute(&plan, &config, Strategy::dynamic(), &opts)
            .unwrap()
            .response_time
            .as_secs_f64();
        let co = execute_cosimulated(
            &[solo(&plan, 0.0, 1, 0.0), solo(&plan, 0.0, 1, 0.0)],
            &config,
            Strategy::dynamic(),
            &opts,
        )
        .unwrap();
        assert_eq!(co.queries.len(), 2);
        // Two simultaneous copies share the processors: neither can beat its
        // solo run, and the work counters double.
        for q in &co.queries {
            assert!(
                q.response_secs >= alone * 0.999,
                "query {} finished in {} but alone takes {alone}",
                q.query,
                q.response_secs
            );
        }
        assert!(co.queries.iter().any(|q| q.response_secs > alone * 1.2));
        assert_eq!(
            co.aggregate.tuples_processed,
            co.queries.iter().map(|q| q.tuples_processed).sum::<u64>()
        );
        assert!(co.makespan_secs() >= co.mean_response_secs());
    }

    #[test]
    fn cosim_is_deterministic() {
        let plan_a = bushy_plan(2);
        let plan_b = two_join_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let opts = ExecOptions::default();
        let queries = [solo(&plan_a, 0.0, 2, 0.4), solo(&plan_b, 0.5, 1, 0.8)];
        let a = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        let b = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cosim_respects_arrival_offsets() {
        let plan = two_join_plan(1);
        let config = SystemConfig::shared_memory(4);
        let opts = ExecOptions::default();
        let arrival = 5.0;
        let co = execute_cosimulated(
            &[solo(&plan, 0.0, 1, 0.0), solo(&plan, arrival, 1, 0.0)],
            &config,
            Strategy::dynamic(),
            &opts,
        )
        .unwrap();
        assert_eq!(co.queries[1].arrival_secs, arrival);
        assert!(
            co.queries[1].completion_secs >= arrival,
            "a query cannot finish before it arrives"
        );
        // With a gap longer than the solo run, the first query runs alone.
        let alone = execute(&plan, &config, Strategy::dynamic(), &opts).unwrap();
        if alone.response_time.as_secs_f64() < arrival {
            assert_eq!(
                co.queries[0].response_secs,
                alone.response_time.as_secs_f64(),
                "a disjoint first query runs at solo speed"
            );
        }
    }

    #[test]
    fn cosim_priority_favors_the_high_priority_query() {
        let plan = two_join_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        let co = execute_cosimulated(
            &[solo(&plan, 0.0, 3, 0.0), solo(&plan, 0.0, 1, 0.0)],
            &config,
            Strategy::dynamic(),
            &opts,
        )
        .unwrap();
        assert!(
            co.queries[0].completion_secs <= co.queries[1].completion_secs,
            "priority 3 ({}) must not finish after priority 1 ({})",
            co.queries[0].completion_secs,
            co.queries[1].completion_secs
        );
    }

    #[test]
    fn cosim_steals_see_cross_query_load() {
        // Two skewed queries on a hierarchical machine: global load
        // balancing still fires with interleaved queries, and the aggregate
        // accounts all of it.
        let plan = bushy_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let opts = ExecOptions::with_skew(0.9);
        let co = execute_cosimulated(
            &[solo(&plan, 0.0, 1, 0.9), solo(&plan, 0.0, 1, 0.9)],
            &config,
            Strategy::dynamic(),
            &opts,
        )
        .unwrap();
        assert!(co.aggregate.lb_requests > 0);
        assert!(co.aggregate.result_tuples > 0);
    }

    #[test]
    fn cosim_placement_mask_rehomes_a_lane_onto_its_nodes() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::default();
        for strategy in [Strategy::dynamic(), Strategy::fixed(0.0)] {
            let mask = [NodeId::from(1usize)];
            let co = execute_cosimulated(
                &[CoSimQuery {
                    mask: Some(&mask),
                    ..solo(&plan, 0.0, 1, 0.0)
                }],
                &config,
                strategy,
                &opts,
            )
            .unwrap();
            // All work lands on the masked node; the other node never
            // executes an activation (scheduling, steals and FP allocations
            // are all restricted to the mask).
            assert_eq!(
                co.aggregate.per_node_busy[0],
                Duration::ZERO,
                "{strategy:?}: node 0 is outside the mask"
            );
            assert!(co.aggregate.per_node_busy[1] > Duration::ZERO);
            assert!(co.queries[0].result_tuples > 0);
        }
    }

    #[test]
    fn cosim_mask_validation_rejects_bad_masks() {
        let plan = two_join_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::default();
        let empty: [NodeId; 0] = [];
        assert!(execute_cosimulated(
            &[CoSimQuery {
                mask: Some(&empty),
                ..solo(&plan, 0.0, 1, 0.0)
            }],
            &config,
            Strategy::dynamic(),
            &opts
        )
        .is_err());
        let out_of_range = [NodeId::from(5usize)];
        assert!(execute_cosimulated(
            &[CoSimQuery {
                mask: Some(&out_of_range),
                ..solo(&plan, 0.0, 1, 0.0)
            }],
            &config,
            Strategy::dynamic(),
            &opts
        )
        .is_err());
    }

    #[test]
    fn cosim_memory_admission_serializes_and_keeps_fcfs_order() {
        let plan = two_join_plan(1);
        let mut config = SystemConfig::shared_memory(4);
        config.machine.memory_per_node_bytes = 1_010;
        let opts = ExecOptions::default();
        let with_mem = |mem: u64| CoSimQuery {
            memory_bytes: mem,
            ..solo(&plan, 0.0, 1, 0.0)
        };

        // q0 holds 1000 of the 1010 bytes; q1 (1000) blocks; q2 (10) would
        // fit but must not jump the blocked head of the FCFS queue.
        let co = execute_cosimulated(
            &[with_mem(1_000), with_mem(1_000), with_mem(10)],
            &config,
            Strategy::dynamic(),
            &opts,
        )
        .unwrap();
        let [q0, q1, q2] = [&co.queries[0], &co.queries[1], &co.queries[2]];
        assert_eq!(q0.wait_secs, 0.0, "the first arrival admits immediately");
        assert!(q1.wait_secs > 0.0, "q1 must wait for q0's release");
        assert_eq!(
            q1.admitted_secs, q0.completion_secs,
            "q1 is admitted by q0's QueryRelease"
        );
        assert!(
            q2.wait_secs > 0.0 && q2.admitted_secs >= q1.admitted_secs,
            "q2 fits from the start but never jumps the blocked head \
             (admitted {} vs {})",
            q2.admitted_secs,
            q1.admitted_secs
        );
        // Serialized q0/q1 stretch the makespan beyond the concurrent case.
        let generous = execute_cosimulated(
            &[with_mem(0), with_mem(0), with_mem(0)],
            &config,
            Strategy::dynamic(),
            &opts,
        )
        .unwrap();
        assert!(generous.queries.iter().all(|q| q.wait_secs == 0.0));
        assert_eq!(generous.mean_wait_secs(), 0.0);
        assert!(co.mean_wait_secs() > 0.0);
        // Serialized admission orders completions by admission instant.
        assert!(q1.completion_secs >= q0.completion_secs);
        assert!(
            q1.response_secs > q1.wait_secs,
            "waits are part of response"
        );

        // A demand that can never fit errors up front instead of stalling
        // the event loop.
        let err = execute_cosimulated(&[with_mem(2_000)], &config, Strategy::dynamic(), &opts)
            .unwrap_err();
        assert!(
            matches!(err, DlbError::InvalidConfig(ref m) if m.contains("never be admitted")),
            "{err}"
        );
    }

    #[test]
    fn fp_shared_realization_is_the_default_and_per_node_differs_on_hierarchies() {
        // With error injection on a multi-node machine the two realizations
        // draw different allocations; on exact estimates they coincide.
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let strategy = Strategy::fixed(0.3);
        let shared = ExecOptions::default();
        assert_eq!(shared.fp_realization, ErrorRealization::Shared);
        let per_node = ExecOptions {
            fp_realization: ErrorRealization::PerNode,
            ..ExecOptions::default()
        };
        let a = execute(&plan, &config, strategy, &shared).unwrap();
        let b = execute(&plan, &config, strategy, &per_node).unwrap();
        // Both complete the same logical work...
        assert_eq!(a.result_tuples, b.result_tuples);
        // ...and with exact estimates the knob is a no-op.
        let exact = Strategy::fixed(0.0);
        let ea = execute(&plan, &config, exact, &shared).unwrap();
        let eb = execute(&plan, &config, exact, &per_node).unwrap();
        assert_eq!(ea, eb);
    }

    // ------------------------------------------------------------------ //
    // Fault injection (topology events)
    // ------------------------------------------------------------------ //

    #[test]
    fn failover_rehome_resume_conserves_work_and_accounts_rebalance() {
        let plan = bushy_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let opts = ExecOptions::with_skew(0.3);
        let queries = [solo(&plan, 0.0, 1, 0.3), solo(&plan, 0.05, 1, 0.3)];
        let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        let topo = [TopologyEvent::fail(clean.makespan_secs() * 0.3, 3)];
        let faulted =
            execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                .unwrap();
        assert_eq!(faulted.faults.failures, 1);
        assert_eq!(faulted.faults.tuples_lost, 0, "resume never loses state");
        assert_eq!(faulted.faults.tuples_redone, 0, "resume never redoes work");
        assert!(
            faulted.faults.tuples_rehomed > 0,
            "a mid-run failure must find state to migrate"
        );
        assert!(faulted.faults.rebalance_bytes > 0);
        // Work conservation: re-homing moves activations, it neither drops
        // nor duplicates them.
        assert_eq!(
            faulted.aggregate.tuples_processed, clean.aggregate.tuples_processed,
            "re-home-and-resume conserves processed tuples exactly"
        );
        assert_eq!(
            faulted.aggregate.result_tuples,
            clean.aggregate.result_tuples
        );
        // Losing a quarter of the machine mid-run cannot speed things up.
        assert!(
            faulted.aggregate.response_time >= clean.aggregate.response_time,
            "faulted {} vs clean {}",
            faulted.aggregate.response_time,
            clean.aggregate.response_time
        );
        // The dead node never works again.
        assert_eq!(faulted.aggregate.per_node_busy.len(), 4);
    }

    #[test]
    fn failover_lose_restart_discards_and_redoes_work() {
        let plan = bushy_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let mut opts = ExecOptions::with_skew(0.3);
        opts.recovery.policy = RecoveryPolicy::LoseRestart;
        let queries = [solo(&plan, 0.0, 1, 0.3), solo(&plan, 0.05, 1, 0.3)];
        let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        let topo = [TopologyEvent::fail(clean.makespan_secs() * 0.5, 3)];
        let faulted =
            execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                .unwrap();
        assert!(faulted.faults.tuples_lost > 0, "failure must lose state");
        assert!(
            faulted.faults.tuples_redone > 0,
            "a needed hash table must be rebuilt"
        );
        // Redone build work inflates the processed-tuple count.
        assert!(
            faulted.aggregate.tuples_processed > clean.aggregate.tuples_processed,
            "faulted {} vs clean {}",
            faulted.aggregate.tuples_processed,
            clean.aggregate.tuples_processed
        );
        // The answer itself is unchanged: lost input is regenerated.
        assert_eq!(
            faulted.aggregate.result_tuples,
            clean.aggregate.result_tuples
        );
    }

    #[test]
    fn drain_migrates_without_loss_even_under_lose_restart() {
        let plan = bushy_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let mut opts = ExecOptions::with_skew(0.3);
        opts.recovery.policy = RecoveryPolicy::LoseRestart;
        let queries = [solo(&plan, 0.0, 1, 0.3)];
        let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        let topo = [TopologyEvent::drain(clean.makespan_secs() * 0.3, 2)];
        let faulted =
            execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                .unwrap();
        assert_eq!(faulted.faults.drains, 1);
        assert_eq!(faulted.faults.failures, 0);
        assert_eq!(faulted.faults.tuples_lost, 0, "drains migrate, never lose");
        assert_eq!(faulted.faults.tuples_redone, 0);
        assert_eq!(
            faulted.aggregate.tuples_processed,
            clean.aggregate.tuples_processed
        );
        assert_eq!(
            faulted.aggregate.result_tuples,
            clean.aggregate.result_tuples
        );
    }

    #[test]
    fn faulted_cosim_replays_bit_identically() {
        let plan_a = bushy_plan(4);
        let plan_b = two_join_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let opts = ExecOptions::with_skew(0.6);
        let queries = [solo(&plan_a, 0.0, 2, 0.6), solo(&plan_b, 0.02, 1, 0.6)];
        let topo = [
            TopologyEvent::fail(0.05, 3),
            TopologyEvent::join(0.25, 3),
            TopologyEvent::drain(0.4, 1),
        ];
        for strategy in [Strategy::dynamic(), Strategy::fixed(0.1)] {
            let a = execute_cosimulated_faulted(&queries, &config, strategy, &opts, &topo).unwrap();
            let b = execute_cosimulated_faulted(&queries, &config, strategy, &opts, &topo).unwrap();
            assert_eq!(a, b, "{strategy:?}");
            assert_eq!(a.faults.failures, 1);
            assert_eq!(a.faults.joins, 1);
            assert!(a.queries.iter().all(|q| q.result_tuples > 0));
        }
    }

    #[test]
    fn failed_node_rejoins_and_the_run_completes() {
        let plan = bushy_plan(4);
        let config = SystemConfig::hierarchical(4, 2);
        let opts = ExecOptions::default();
        let queries = [solo(&plan, 0.0, 1, 0.0), solo(&plan, 0.1, 1, 0.0)];
        let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        let m = clean.makespan_secs();
        let topo = [
            TopologyEvent::fail(m * 0.2, 3),
            TopologyEvent::join(m * 0.5, 3),
        ];
        let faulted =
            execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                .unwrap();
        assert_eq!(faulted.faults.failures, 1);
        assert_eq!(faulted.faults.joins, 1);
        assert_eq!(
            faulted.aggregate.result_tuples,
            clean.aggregate.result_tuples
        );
        assert_eq!(
            faulted.aggregate.tuples_processed,
            clean.aggregate.tuples_processed
        );
    }

    #[test]
    fn masked_lane_survives_death_of_its_only_node() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::default();
        let mask = [NodeId::from(1usize)];
        let queries = [CoSimQuery {
            mask: Some(&mask),
            ..solo(&plan, 0.0, 1, 0.0)
        }];
        let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        let topo = [TopologyEvent::fail(clean.makespan_secs() * 0.4, 1)];
        for strategy in [Strategy::dynamic(), Strategy::fixed(0.0)] {
            let faulted =
                execute_cosimulated_faulted(&queries, &config, strategy, &opts, &topo).unwrap();
            // The whole lane re-homed onto node 0 and finished there.
            assert!(
                faulted.aggregate.per_node_busy[0] > Duration::ZERO,
                "{strategy:?}: the survivor must take over the pinned lane"
            );
            assert_eq!(
                faulted.queries[0].result_tuples,
                clean.queries[0].result_tuples
            );
            assert!(faulted.faults.tuples_rehomed > 0);
        }
    }

    #[test]
    fn waiting_query_that_cannot_fit_after_failure_errors_clearly() {
        let plan = two_join_plan(2);
        let mut config = SystemConfig::hierarchical(2, 2);
        config.machine.memory_per_node_bytes = 1_010;
        let opts = ExecOptions::default();
        let with_mem = |mem: u64| CoSimQuery {
            memory_bytes: mem,
            ..solo(&plan, 0.0, 1, 0.0)
        };
        // q0 takes 1000 of the 1010 bytes per node; q1 (750 per node across
        // both) waits. Node 1 dies before q0 releases: q1's demand collapses
        // onto node 0 as 1500 > 1010.
        let queries = [with_mem(2_000), with_mem(1_500)];
        let topo = [TopologyEvent::fail(1e-4, 1)];
        let err = execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
            .unwrap_err();
        assert!(
            matches!(err, DlbError::ExecutionError(ref m)
                if m.contains("never be admitted after the topology change")),
            "{err}"
        );
        // Without the failure the same mix runs fine.
        assert!(execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).is_ok());
    }

    #[test]
    fn post_completion_topology_events_change_nothing_material() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::default();
        let queries = [solo(&plan, 0.0, 1, 0.0)];
        let clean = execute_cosimulated(&queries, &config, Strategy::dynamic(), &opts).unwrap();
        // The simulation ends with the last query: a failure scheduled past
        // that instant never takes effect and the report is bit-identical.
        let topo = [TopologyEvent::fail(clean.makespan_secs() + 1.0, 0)];
        let faulted =
            execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                .unwrap();
        assert_eq!(faulted, clean);
    }

    #[test]
    fn faulted_cosim_rejects_invalid_topology_streams() {
        let plan = two_join_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::default();
        let queries = [solo(&plan, 0.0, 1, 0.0)];
        for topo in [
            vec![TopologyEvent::fail(0.1, 9)],
            vec![TopologyEvent::join(0.1, 0)],
            vec![TopologyEvent::fail(0.1, 0), TopologyEvent::fail(0.2, 1)],
            vec![TopologyEvent::fail(f64::NAN, 0)],
        ] {
            assert!(
                execute_cosimulated_faulted(&queries, &config, Strategy::dynamic(), &opts, &topo)
                    .is_err(),
                "{topo:?}"
            );
        }
    }

    #[test]
    fn cosim_rejects_invalid_inputs() {
        let plan = two_join_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        assert!(execute_cosimulated(&[], &config, Strategy::dynamic(), &opts).is_err());
        assert!(execute_cosimulated(
            &[solo(&plan, 0.0, 0, 0.0)],
            &config,
            Strategy::dynamic(),
            &opts
        )
        .is_err());
        assert!(execute_cosimulated(
            &[solo(&plan, -1.0, 1, 0.0)],
            &config,
            Strategy::dynamic(),
            &opts
        )
        .is_err());
        assert!(execute_cosimulated(
            &[solo(&plan, 0.0, 1, 2.0)],
            &config,
            Strategy::dynamic(),
            &opts
        )
        .is_err());
        assert!(execute_cosimulated(
            &[solo(&plan, 0.0, 1, 0.0)],
            &config,
            Strategy::synchronous(),
            &opts
        )
        .is_err());
    }

    // ------------------------------------------------------------------ //
    // Open-system mode
    // ------------------------------------------------------------------ //

    use dlb_traffic::ArrivalKind;

    /// A small two-relation join: 4 operators (2 scans, build, probe).
    fn tiny_plan(nodes: u32) -> ParallelPlan {
        let tree = JoinTree::join(
            JoinTree::leaf(RelationId::new(0), 120),
            JoinTree::leaf(RelationId::new(1), 240),
            1.0 / 240.0,
        );
        let ot = OperatorTree::from_join_tree(&tree);
        let homes = OperatorHomes::all_nodes(&ot, nodes);
        ParallelPlan::build(QueryId::new(9), ot, homes, ChainScheduling::OneAtATime).unwrap()
    }

    fn arrivals(kind: ArrivalKind, queries: usize, rate_qps: f64, burstiness: f64) -> ArrivalSpec {
        ArrivalSpec {
            kind,
            rate_qps,
            burstiness,
            queries,
            templates: 1,
            template_skew: 0.0,
            priority_classes: 1,
            seed: 0xD1B_1996,
        }
    }

    fn template(plan: &ParallelPlan) -> OpenTemplate<'_> {
        OpenTemplate {
            plan,
            memory_bytes: 0,
            solo_secs: 0.0,
        }
    }

    #[test]
    fn open_single_arrival_matches_the_plain_engine_exactly() {
        // One arrival through the open machinery is the closed engine,
        // time-translated to the arrival instant: response (and hence
        // slowdown against the solo baseline) must be bit-identical.
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        for (strategy, skew) in [
            (Strategy::dynamic(), 0.0),
            (Strategy::dynamic(), 0.6),
            (Strategy::fixed(0.1), 0.6),
        ] {
            let opts = ExecOptions::with_skew(skew);
            let plain = execute(&plan, &config, strategy, &opts).unwrap();
            let traffic = OpenTraffic {
                templates: vec![OpenTemplate {
                    plan: &plan,
                    memory_bytes: 0,
                    solo_secs: plain.response_time.as_secs_f64(),
                }],
                arrivals: arrivals(ArrivalKind::Poisson, 1, 0.25, 0.0),
                concurrency: 3,
                frontend: FrontendConfig::default(),
            };
            let open = execute_open(&traffic, &config, strategy, &opts).unwrap();
            assert_eq!(open.completed, 1, "{strategy:?} skew {skew}");
            assert_eq!(open.peak_live, 1);
            assert_eq!(
                open.response.max(),
                plain.response_time.as_secs_f64(),
                "{strategy:?} skew {skew}: open response vs plain"
            );
            assert_eq!(open.wait.max(), 0.0, "an uncontended arrival never waits");
            assert_eq!(open.slowdown.max(), 1.0, "response / solo must be exact");
        }
    }

    #[test]
    fn open_runs_are_deterministic() {
        let plan = tiny_plan(2);
        let bushy = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::with_skew(0.5);
        let traffic = OpenTraffic {
            templates: vec![template(&plan), template(&bushy)],
            arrivals: ArrivalSpec {
                templates: 2,
                priority_classes: 3,
                ..arrivals(ArrivalKind::Bursty, 120, 20.0, 0.5)
            },
            concurrency: 4,
            frontend: FrontendConfig::default(),
        };
        for strategy in [Strategy::dynamic(), Strategy::fixed(0.2)] {
            let a = execute_open(&traffic, &config, strategy, &opts).unwrap();
            let b = execute_open(&traffic, &config, strategy, &opts).unwrap();
            assert_eq!(a, b, "{strategy:?}");
            assert_eq!(a.completed, 120);
            assert!(a.throughput_qps > 0.0);
        }
    }

    #[test]
    fn open_live_state_is_bounded_by_concurrency_at_10k_queries() {
        // Saturating arrival stream: offered load far above capacity, so the
        // waiting room grows into the thousands while live engine state must
        // stay pinned at `concurrency` lane slots.
        let plan = tiny_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        let concurrency = 8;
        let traffic = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: arrivals(ArrivalKind::Poisson, 10_000, 400.0, 0.0),
            concurrency,
            frontend: FrontendConfig::default(),
        };
        let mut engine =
            QueueEngine::new_open(&traffic, config, Strategy::dynamic(), opts).unwrap();
        // Op state is O(concurrency × max_ops) by construction, not O(total).
        assert_eq!(engine.ops.len(), concurrency * 4);
        engine.run_loop().unwrap();
        let open = engine.open.as_ref().unwrap();
        assert_eq!(open.completed, 10_000);
        assert_eq!(open.response.count(), 10_000);
        assert!(
            open.peak_live <= concurrency,
            "peak live {} exceeds the {concurrency} lane slots",
            open.peak_live
        );
        // Under 50x overload the slot pool must actually fill up...
        assert_eq!(open.peak_live, concurrency);
        // ...and queries behind the pool must have waited.
        assert!(open.wait.quantile(0.5).unwrap() > 0.0);
        // Every retired query's operator state was dropped, not retained.
        assert!(engine.lanes.iter().all(|l| !l.started));
        assert!(engine
            .op_nodes
            .iter()
            .all(|row| row.iter().all(|cell| cell.is_none())));
        assert!(engine.ops.iter().all(|o| o.terminated && o.home.is_empty()));
    }

    #[test]
    fn open_bursty_and_diurnal_streams_complete() {
        let plan = tiny_plan(1);
        let config = SystemConfig::shared_memory(4);
        let opts = ExecOptions::default();
        for (kind, burstiness) in [(ArrivalKind::Bursty, 0.7), (ArrivalKind::Diurnal, 0.0)] {
            let traffic = OpenTraffic {
                templates: vec![template(&plan)],
                arrivals: arrivals(kind, 50, 30.0, burstiness),
                concurrency: 2,
                frontend: FrontendConfig::default(),
            };
            let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
            assert_eq!(r.completed, 50, "{kind:?}");
            assert_eq!(r.response.count(), 50);
            assert!(r.response.quantile(0.99).unwrap() > 0.0);
        }
    }

    #[test]
    fn open_multi_node_run_with_skew_and_memory_admission_completes() {
        // Multi-node, skewed, memory-constrained: exercises steal episodes
        // racing slot recycling (the epoch guard) and in-loop admission.
        let plan = tiny_plan(2);
        let bushy = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::with_skew(0.8);
        let mem = config.machine.memory_per_node_bytes;
        let traffic = OpenTraffic {
            templates: vec![
                OpenTemplate {
                    plan: &plan,
                    memory_bytes: mem,
                    solo_secs: 0.01,
                },
                OpenTemplate {
                    plan: &bushy,
                    memory_bytes: mem / 2,
                    solo_secs: 0.05,
                },
            ],
            arrivals: ArrivalSpec {
                templates: 2,
                priority_classes: 2,
                ..arrivals(ArrivalKind::Bursty, 150, 40.0, 0.6)
            },
            concurrency: 3,
            frontend: FrontendConfig::default(),
        };
        for strategy in [Strategy::dynamic(), Strategy::fixed(0.2)] {
            let r = execute_open(&traffic, &config, strategy, &opts).unwrap();
            assert_eq!(r.completed, 150, "{strategy:?}");
            assert!(r.slowdown.count() == 150);
            // The working sets force queueing: someone must have waited.
            assert!(r.wait.max() > 0.0);
        }
    }

    #[test]
    fn open_priority_classes_partition_the_response_sketch() {
        let plan = tiny_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        let traffic = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: ArrivalSpec {
                priority_classes: 3,
                ..arrivals(ArrivalKind::Poisson, 200, 50.0, 0.0)
            },
            concurrency: 4,
            frontend: FrontendConfig::default(),
        };
        let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(r.response_by_class.len(), 3);
        let per_class: u64 = r.response_by_class.iter().map(|h| h.count()).sum();
        assert_eq!(per_class, r.completed);
        assert!(r.response_by_class.iter().all(|h| h.count() > 0));
        let classes = r.class_summaries();
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].0, 1);
        assert_eq!(classes[2].0, 3);
    }

    #[test]
    fn open_result_cache_serves_repeats_without_engine_work() {
        // One template, infinite TTL, arrivals spaced far beyond the solo
        // response time: the first arrival executes and populates the cache,
        // every later arrival is a hit retiring at the fan-out cost.
        let plan = tiny_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        let traffic = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: arrivals(ArrivalKind::Poisson, 60, 2.0, 0.0),
            concurrency: 2,
            frontend: FrontendConfig {
                cache_capacity: 1,
                cache_ttl_secs: f64::INFINITY,
                coalesce: false,
                fanout_cost_secs: 0.001,
            },
        };
        let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(r.completed, 60);
        assert_eq!(r.frontend.engine_queries, 1, "only the first miss executes");
        assert_eq!(r.frontend.cache_hits, 59);
        assert_eq!(r.frontend.cache_misses, 1);
        assert_eq!(r.frontend.coalesced, 0);
        assert_eq!(r.response_cache_hit.count(), 59);
        assert_eq!(r.response_cache_hit.max(), 0.001, "hits cost the fan-out");
        assert_eq!(r.response_engine.count(), 1);
        assert_eq!(r.engine_by_template, vec![1]);
        assert_eq!(r.qps_multiplier(), 60.0);
        assert!((r.hit_ratio() - 59.0 / 60.0).abs() < 1e-12);
        // Decomposition: every completion is exactly one outcome.
        assert_eq!(
            r.response.count(),
            r.response_engine.count() + r.response_cache_hit.count() + r.response_coalesced.count()
        );
    }

    #[test]
    fn open_coalescing_subscribes_concurrent_identical_arrivals() {
        // One template under heavy overload with the cache off: the first
        // arrival leads, everyone arriving while it is in flight attaches,
        // and the whole stream is served by a handful of engine executions.
        let plan = tiny_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        let traffic = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: arrivals(ArrivalKind::Poisson, 200, 400.0, 0.0),
            concurrency: 4,
            frontend: FrontendConfig {
                cache_capacity: 0,
                cache_ttl_secs: f64::INFINITY,
                coalesce: true,
                fanout_cost_secs: 0.0005,
            },
        };
        let r = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(r.completed, 200);
        assert!(r.frontend.coalesced > 0, "overload must coalesce");
        assert_eq!(
            r.frontend.engine_queries + r.frontend.coalesced,
            r.completed,
            "every arrival either executed or followed a leader"
        );
        assert_eq!(r.frontend.cache_bypass, 200, "cache off: all bypass");
        assert_eq!(r.frontend.cache_hits, 0);
        assert_eq!(r.response_coalesced.count(), r.frontend.coalesced);
        assert_eq!(
            r.engine_by_template.iter().sum::<u64>(),
            r.frontend.engine_queries,
            "followers add zero engine admissions"
        );
        assert!(r.qps_multiplier() > 1.0);
        // Determinism holds with the front end on.
        let again = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(r, again);
    }

    #[test]
    fn open_inert_frontend_is_bit_identical_to_no_frontend() {
        // Setting the knobs that don't enable anything (TTL, fan-out cost)
        // must not perturb the run: the report is equal field for field.
        let plan = tiny_plan(2);
        let bushy = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 2);
        let opts = ExecOptions::with_skew(0.5);
        let mut traffic = OpenTraffic {
            templates: vec![template(&plan), template(&bushy)],
            arrivals: ArrivalSpec {
                templates: 2,
                priority_classes: 2,
                ..arrivals(ArrivalKind::Bursty, 80, 30.0, 0.5)
            },
            concurrency: 3,
            frontend: FrontendConfig::default(),
        };
        let base = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        traffic.frontend = FrontendConfig {
            cache_capacity: 0,
            cache_ttl_secs: 0.25,
            coalesce: false,
            fanout_cost_secs: 0.5,
        };
        let inert = execute_open(&traffic, &config, Strategy::dynamic(), &opts).unwrap();
        assert_eq!(base, inert);
        assert_eq!(
            base.frontend,
            FrontendStats {
                engine_queries: 80,
                ..FrontendStats::default()
            },
            "engine executions are counted even without a front end"
        );
        assert_eq!(base.qps_multiplier(), 1.0, "no front end: no multiplier");
    }

    #[test]
    fn open_rejects_invalid_inputs() {
        let plan = tiny_plan(1);
        let config = SystemConfig::shared_memory(2);
        let opts = ExecOptions::default();
        let good = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: arrivals(ArrivalKind::Poisson, 10, 5.0, 0.0),
            concurrency: 2,
            frontend: FrontendConfig::default(),
        };
        // SP has no queues to interleave.
        assert!(execute_open(&good, &config, Strategy::synchronous(), &opts).is_err());
        // No templates.
        let mut bad = good.clone();
        bad.templates.clear();
        bad.arrivals.templates = 0;
        assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
        // Zero concurrency.
        let mut bad = good.clone();
        bad.concurrency = 0;
        assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
        // Arrival spec draws from more templates than supplied.
        let mut bad = good.clone();
        bad.arrivals.templates = 2;
        assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
        // A working set that can never fit is a configuration error, not a
        // deadlock.
        let mut bad = good.clone();
        bad.templates[0].memory_bytes = 3 * config.machine.memory_per_node_bytes;
        assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
        // Invalid solo baseline.
        let mut bad = good.clone();
        bad.templates[0].solo_secs = f64::NAN;
        assert!(execute_open(&bad, &config, Strategy::dynamic(), &opts).is_err());
    }

    /// The plan's `pipelined_producers` of every in-use op slot, in global
    /// indices, against the list installed on the operator; placeholder
    /// slots carry none.
    fn assert_producers_match_plan(engine: &QueueEngine<'_>) {
        for op in 0..engine.ops.len() {
            let installed = &engine.ops[op].producers;
            if !engine.slot_in_use(op) {
                assert!(installed.is_empty(), "placeholder slot {op} has producers");
                continue;
            }
            let lane = &engine.lanes[engine.ops[op].lane];
            let expected: Vec<usize> = lane
                .plan
                .tree
                .pipelined_producers(OperatorId::from(op - lane.base))
                .iter()
                .map(|p| lane.base + p.index())
                .collect();
            assert_eq!(installed, &expected, "op slot {op}");
        }
    }

    #[test]
    fn installed_producers_match_the_plan() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let engine =
            QueueEngine::new(&plan, config, Strategy::dynamic(), ExecOptions::default()).unwrap();
        assert!(engine.ops.iter().any(|o| !o.producers.is_empty()));
        assert_producers_match_plan(&engine);

        // Open mode: a single lane slot recycled between two templates of
        // different sizes, checked once the second admission installed its
        // plan over the slot the first retired from.
        let tiny = tiny_plan(2);
        let mut spec = arrivals(ArrivalKind::Poisson, 6, 50.0, 0.0);
        spec.templates = 2;
        let traffic = OpenTraffic {
            templates: vec![template(&tiny), template(&plan)],
            arrivals: spec,
            concurrency: 1,
            frontend: FrontendConfig::default(),
        };
        let mut engine = QueueEngine::new_open(
            &traffic,
            config,
            Strategy::dynamic(),
            ExecOptions::default(),
        )
        .unwrap();
        let mut recycled = 0;
        while let Some((_, event)) = engine.calendar.pop() {
            engine.dispatch(event).unwrap();
            let open = engine.open.as_ref().unwrap();
            if open.completed > recycled && engine.lanes[0].started {
                recycled = open.completed;
                assert_producers_match_plan(&engine);
            }
        }
        assert!(recycled >= 2, "the slot was recycled only {recycled} times");
    }

    #[test]
    fn stall_error_lists_the_unterminated_operators() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let mut engine =
            QueueEngine::new(&plan, config, Strategy::dynamic(), ExecOptions::default()).unwrap();
        // Drop every scheduled event: the seeded triggers stay queued and
        // nothing can ever run them.
        while engine.calendar.pop().is_some() {}
        let n_ops = plan.tree.operators().len();
        let msg = engine.run_loop().unwrap_err().to_string();
        assert!(
            msg.contains(&format!(
                "simulation stalled: 0 of {n_ops} operators terminated"
            )),
            "{msg}"
        );
        // Up to eight operators, each with its phase counts and per-home
        // queue state; the rest are counted.
        assert_eq!(msg.matches("lane 0 op ").count(), STALL_REPORT_OPS, "{msg}");
        assert!(
            msg.contains(&format!("; and {} more", n_ops - STALL_REPORT_OPS)),
            "{msg}"
        );
        assert!(
            msg.contains("lane 0 op 0 (phase-1 0/2, phase-2 0/2, node 0: "),
            "{msg}"
        );
        let queued = engine.op_nodes[0][1].as_ref().unwrap().queued_activations();
        assert!(queued > 0);
        assert!(
            msg.contains(&format!("node 1: {queued} queued 0 parked 0 processing)")),
            "{msg}"
        );
    }

    #[test]
    fn open_stall_error_counts_only_in_use_slots() {
        let plan = bushy_plan(2);
        let config = SystemConfig::hierarchical(2, 4);
        let traffic = OpenTraffic {
            templates: vec![template(&plan)],
            arrivals: arrivals(ArrivalKind::Poisson, 3, 0.5, 0.0),
            concurrency: 4,
            frontend: FrontendConfig::default(),
        };
        let mut engine = QueueEngine::new_open(
            &traffic,
            config,
            Strategy::dynamic(),
            ExecOptions::default(),
        )
        .unwrap();
        // Run up to the first admission, then drop everything else.
        while !engine.lanes.iter().any(|l| l.started) {
            let (_, event) = engine.calendar.pop().unwrap();
            engine.dispatch(event).unwrap();
        }
        while engine.calendar.pop().is_some() {}
        let n_ops = plan.tree.operators().len();
        assert!(engine.ops.len() > n_ops);
        let msg = engine.run_loop().unwrap_err().to_string();
        assert!(
            msg.contains(&format!(
                "simulation stalled: 0 of {n_ops} operators terminated"
            )),
            "{msg}"
        );
    }
}
