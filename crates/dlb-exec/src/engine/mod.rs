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
//!
//! ## One constructor, one selection path
//!
//! Every entry point builds the same engine through one constructor over a
//! lane source: a closed query list (with its topology-event stream) for
//! [`execute`], [`execute_cosimulated`] and [`execute_cosimulated_faulted`],
//! or an [`OpenTraffic`] stream for [`execute_open`]. The source decides only
//! how lanes are laid out and when each is installed — all up front in
//! closed mode, one per admission in open mode — and the same
//! `install_lane` writes a lane's operators either way. An open run also
//! owns an `OpenState` beside its engine (arrival stream, waiting room, front
//! end, latency sketches) and hands it to the arrival and retirement
//! handlers, so a closed engine carries no open-mode state. Work selection has
//! one path for every plan and node width: candidate sets are walked a
//! 64-bit word at a time across as many words as the lane spans, and the
//! per-node queue and idle-thread sets are multi-word bitsets.

use crate::activation::{Activation, ActivationKind, ActivationQueue, DrainOutcome};
use crate::fp::ThreadAssignment;
use crate::options::{ErrorRealization, ExecOptions, RecoveryPolicy};
use crate::report::{CoSimReport, ExecutionReport, FaultStats, OpenReport, QueryExecReport};
use crate::router::OutputRouter;
use crate::strategy::{PushConfig, StealScope, Strategy};
use crate::topology::{validate_topology, TopologyChange, TopologyEvent};
use dlb_common::config::SystemConfig;
use dlb_common::rng::rng_from_seed;
use dlb_common::{
    round_u64, BitSet, DiskId, DlbError, Duration, NodeId, OperatorId, ProcessorId, RelationId,
    Result, SimTime, Slab,
};
use dlb_frontend::{FrontendConfig, FrontendStats, Lookup, ResultCache, SingleFlight};
use dlb_query::cost::CostModel;
use dlb_query::optree::OperatorKind;
use dlb_query::plan::ParallelPlan;
use dlb_sim::{CpuAccounting, DiskFarm, EventCalendar, InstructionClock, Network};
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

mod admission;
mod build;
mod flow;
mod push;
mod recovery;
mod select;
mod steal;
mod termination;

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

/// The state an open-system run owns beside its engine: the arrival stream,
/// the waiting room, lane-slot bookkeeping, the front end and the latency
/// sketches. An open run passes it to the event loop as its [`Lanes`], and
/// the open-only handlers take it as an argument, so a closed run cannot
/// reach them.
struct OpenState<'a> {
    templates: Vec<OpenTemplate<'a>>,
    stream: ArrivalStream,
    /// The next arrival, already drawn and scheduled as an `OpenArrival`
    /// event; `None` once the stream is exhausted. Drawing lazily — one
    /// descriptor ahead of the clock — keeps the calendar and the generator
    /// state `O(1)` in the query count.
    upcoming: Option<Arrival>,
    pending: VecDeque<OpenPending>,
    /// Recyclable lane slots; initialized in reverse so the first admission
    /// takes slot 0 (a lone query then reproduces the closed engine exactly).
    free_slots: Vec<usize>,
    peak_live: usize,
    completed: u64,
    admission_seq: u64,
    /// Per lane slot, the admission sequence number of its latest occupant;
    /// one entry per slot, so the live lanes are the slots not free.
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

/// One calendar event. Every id is a `u32` and the rare, wide payloads are
/// held apart, so an event is 24 bytes: the calendar moves and stores
/// ~16 M of them per paper-scale pass.
#[derive(Debug)]
enum Event {
    ThreadReady {
        node: u32,
        thread: u32,
    },
    /// A batch of `tuples` for operator slot `op` lands in queue `slot` on
    /// `node`. The data activation itself is rebuilt from the operator's
    /// lane on delivery.
    Data {
        node: u32,
        op: u32,
        slot: u32,
        tuples: u64,
    },
    /// A re-homed trigger activation lands like a data batch (recovery
    /// only).
    Trigger {
        node: u32,
        op: u32,
        slot: u32,
        activation: Box<Activation>,
    },
    /// A control message reaches `node`'s scheduler; `msg` is its key in
    /// [`QueueEngine::messages`].
    Control {
        node: u32,
        msg: u32,
    },
    /// A co-simulated query arrives: it joins the admission queue (and is
    /// admitted on the spot when its placement has the memory).
    QueryStart {
        lane: u32,
    },
    /// A waiting query's memory reservation succeeded after a release: seed
    /// its triggers and wake the machine. Only scheduled for queries that
    /// actually waited — arrivals that fit are admitted synchronously, so
    /// the single-query/no-contention event stream is unchanged.
    QueryAdmit {
        lane: u32,
    },
    /// A query completed: release its working set on its placement nodes and
    /// admit whoever now fits (head-of-line FCFS order).
    QueryRelease {
        lane: u32,
    },
    /// A scheduled topology change (node failure, drain or re-join) takes
    /// effect. `index` points into the engine's validated, time-sorted
    /// topology stream.
    Topology {
        index: u32,
    },
    /// Open mode: the next query of the arrival stream arrives. The
    /// descriptor sits in `OpenState::upcoming`; handling it draws (and
    /// schedules) the following arrival.
    OpenArrival,
}

impl Event {
    /// Thread `thread` of `node` looks for work.
    fn ready(node: usize, thread: usize) -> Self {
        Event::ThreadReady {
            node: node as u32,
            thread: thread as u32,
        }
    }
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
    Terminated,
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
    NoOffer { token: u64 },
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

impl<'a> LaneRuntime<'a> {
    /// A lane of `n_ops` operators of `plan` at `base`, not yet admitted:
    /// arrival at time zero, priority 1, no placement mask, no working set.
    fn new(plan: &'a ParallelPlan, base: usize, n_ops: usize, skew: f64) -> Self {
        Self {
            plan,
            arrival: SimTime::ZERO,
            priority: 1,
            skew,
            mask: None,
            memory_bytes: 0,
            mem_per_node: 0,
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
        }
    }
}

/// Where an engine's lanes come from.
pub(crate) enum LaneSource<'s, 'a> {
    /// A fixed query list, every lane installed up front, plus the
    /// topology-event stream injected into the run (closed mode).
    Closed {
        queries: &'s [CoSimQuery<'a>],
        topology: &'s [TopologyEvent],
    },
    /// An arrival stream over query templates, admitted into
    /// `concurrency` recyclable lane slots (open mode).
    Open(&'s OpenTraffic<'a>),
}

/// A run's lanes as the event loop sees them: when the run is done, and
/// what an arrival and a finished lane mean. A closed run passes [`Closed`];
/// an open run passes the [`OpenState`] it owns, so only an open run reaches
/// the open-mode handlers.
trait Lanes<'a> {
    /// Whether the run is complete.
    fn is_done(&self, engine: &QueueEngine<'a>) -> bool;
    /// An `OpenArrival` event fired.
    fn on_arrival(&mut self, engine: &mut QueueEngine<'a>);
    /// Lane `lane` finished: its `QueryRelease` event fired.
    fn on_release(&mut self, engine: &mut QueueEngine<'a>, lane: usize);
}

/// The lanes of a closed run: a fixed query list, installed up front.
struct Closed;

/// Per-operator global runtime state.
struct OpRuntime {
    /// The lane (query) this operator belongs to.
    lane: usize,
    kind: OperatorKind,
    /// Global index of the consumer operator, if any.
    consumer: Option<usize>,
    home: Vec<NodeId>,
    /// The live nodes of `home`, each once, in home order: where work
    /// addressed to a down node is redirected. Refreshed whenever a
    /// topology event changes the live set or the home; empty until the
    /// first one, while nothing reads it (lanes are installed before any
    /// topology event, or in open runs, which have none).
    live_homes: Vec<NodeId>,
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
    /// Slots of the queues holding at least one activation, over as many
    /// words as the node has threads. Lets work selection jump straight to
    /// a loaded queue instead of probing every empty one.
    nonempty: BitSet,
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
            nonempty: BitSet::with_capacity(threads_per_node),
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
        if pushed {
            self.nonempty.insert(slot);
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
        if a.is_some() && self.queues[slot].is_empty() {
            self.nonempty.remove(slot);
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
        if outcome.count > 0 && self.queues[slot].is_empty() {
            self.nonempty.remove(slot);
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

    /// The nonempty-queue set, consistency-checked in debug builds.
    fn nonempty(&self) -> &BitSet {
        debug_assert!(
            (0..self.queues.len()).all(|s| self.queues[s].is_empty() != self.nonempty.contains(s)),
            "nonempty bitset drifted from queue contents"
        );
        &self.nonempty
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

impl LaneHot {
    fn of(lane: &LaneRuntime<'_>) -> Self {
        Self {
            base: lane.base as u32,
            n_ops: lane.n_ops as u32,
            started: lane.started,
        }
    }
}

/// Bits per word of the candidate sets work selection walks.
const WORD_BITS: usize = u64::BITS as usize;

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
    /// Cached [`Policy::starving_scope`]: policies are stateless
    /// singletons with fixed parameters, so the hot-loop hooks are snapshot
    /// once at construction and the steal paths branch on plain fields
    /// instead of paying virtual dispatch per event.
    scope: StealScope,
    /// Cached [`Policy::prefers_cached_tables`].
    prefers_cached: bool,
    cost: CostModel,
    nodes: usize,
    threads_per_node: usize,
    disks_per_node: u32,

    calendar: EventCalendar<Event>,
    /// The control messages in flight, keyed by their `Control` events; a
    /// slab, so steady-state messaging allocates nothing.
    messages: Slab<ControlMsg>,
    /// An activation's CPU time, with the node's shared-memory contention
    /// slowdown folded in.
    clock: InstructionClock,
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
    /// Per-node set of idle threads, so wake scans walk set bits only.
    idle_threads: Vec<BitSet>,
    op_nodes: Vec<Vec<Option<OpNodeRuntime>>>,
    /// FP only: per node and thread, the global operator indices the
    /// thread's static allocation permits (`None` = unconstrained), as
    /// bitsets so work selection intersects them with the ready set a word
    /// at a time.
    allowed: Vec<Vec<Option<BitSet>>>,
    node_lb: Vec<NodeLb>,
    disk_cursor: Vec<u32>,

    /// Per-op-slot recycle epoch, bumped when open mode retires a lane and
    /// frees its slot. Steal-protocol messages carry the epoch they were
    /// issued under so episodes that straddle a retirement die harmlessly.
    /// All-zero (and never bumped) in closed mode.
    epochs: Vec<u64>,

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
    /// Runs the event loop until `lanes` says the run is done. A calendar
    /// that empties first is a stall, and a run past [`MAX_EVENTS`] is out
    /// of budget.
    fn run_loop(&mut self, lanes: &mut dyn Lanes<'a>) -> Result<()> {
        while !lanes.is_done(self) {
            let Some((_, event)) = self.calendar.pop() else {
                return Err(self.stall_error());
            };
            if self.calendar.processed() > MAX_EVENTS {
                return Err(self.budget_error());
            }
            self.dispatch(event, lanes)?;
        }
        Ok(())
    }

    /// Handles one event. Arrivals and finished lanes go to `lanes`.
    fn dispatch(&mut self, event: Event, lanes: &mut dyn Lanes<'a>) -> Result<()> {
        match event {
            Event::ThreadReady { node, thread } => {
                self.on_thread_ready(node as usize, thread as usize)
            }
            Event::Data {
                node,
                op,
                slot,
                tuples,
            } => {
                let activation = self.data_activation(op as usize, tuples);
                self.on_data(node as usize, op as usize, slot as usize, activation)
            }
            Event::Trigger {
                node,
                op,
                slot,
                activation,
            } => self.on_data(node as usize, op as usize, slot as usize, *activation),
            Event::Control { node, msg } => {
                let msg = self
                    .messages
                    .remove(msg)
                    .expect("a delivered message is stored");
                self.on_control(node as usize, msg)
            }
            Event::QueryStart { lane } => self.on_query_start(lane as usize),
            Event::QueryAdmit { lane } => self.on_query_admit(lane as usize),
            Event::QueryRelease { lane } => lanes.on_release(self, lane as usize),
            Event::Topology { index } => self.on_topology(index as usize)?,
            Event::OpenArrival => lanes.on_arrival(self),
        }
        Ok(())
    }

    /// Whether op slot `op` holds an installed operator. An installed
    /// operator always has a home node; the placeholders of an open run's
    /// free and retired slots have none.
    fn slot_in_use(&self, op: usize) -> bool {
        !self.ops[op].home.is_empty()
    }

    /// The error for a calendar that emptied before the run was done.
    fn stall_error(&self) -> DlbError {
        DlbError::exec(format!(
            "simulation stalled: {}",
            self.unterminated_summary()
        ))
    }

    /// The error for a run that passed [`MAX_EVENTS`]: how far the clock
    /// got, what is still scheduled, and which operators never finished.
    fn budget_error(&self) -> DlbError {
        DlbError::exec(format!(
            "event budget exhausted: {} events processed, now {}, {} events pending; {}",
            self.calendar.processed(),
            self.calendar.now(),
            self.calendar.pending(),
            self.unterminated_summary()
        ))
    }

    /// How operator slot `op` reads in diagnostics: its lane and plan-local
    /// index.
    fn op_label(&self, op: usize) -> String {
        let lane = self.ops[op].lane;
        format!("lane {lane} op {}", op - self.lanes[lane].base)
    }

    /// How many in-use operators terminated, then up to
    /// [`STALL_REPORT_OPS`] of the others with their end-detection progress
    /// and per-home queue state, then every node's load-balancing episode
    /// still in flight: a steal request with the replies it has and
    /// expects, the operators a targeted request asked for, a push probe.
    fn unterminated_summary(&self) -> String {
        let in_use: Vec<usize> = (0..self.ops.len())
            .filter(|&op| self.slot_in_use(op))
            .collect();
        let stuck: Vec<usize> = in_use
            .iter()
            .copied()
            .filter(|&op| !self.ops[op].terminated)
            .collect();
        let mut msg = format!(
            "{} of {} operators terminated",
            in_use.len() - stuck.len(),
            in_use.len()
        );
        for (i, &op) in stuck.iter().take(STALL_REPORT_OPS).enumerate() {
            let o = &self.ops[op];
            let homes = o.home.len();
            msg += if i == 0 { "; unterminated: " } else { "; " };
            msg += &format!(
                "{} (phase-1 {}/{homes}, phase-2 {}/{homes}",
                self.op_label(op),
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
        for (node, lb) in self.node_lb.iter().enumerate() {
            let mut episodes = Vec::new();
            if lb.starving_outstanding || !lb.fp_outstanding.is_empty() {
                episodes.push(format!(
                    "steal {}/{} replies",
                    lb.replies_received, lb.replies_expected
                ));
            }
            if !lb.fp_outstanding.is_empty() {
                let targets: Vec<String> = lb
                    .fp_outstanding
                    .iter()
                    .map(|&op| self.op_label(op))
                    .collect();
                episodes.push(format!("targets {}", targets.join(" and ")));
            }
            if lb.push_outstanding {
                episodes.push("push probe".to_string());
            }
            if !episodes.is_empty() {
                msg += &format!(
                    "; node {node} token {}: {}",
                    lb.current_token,
                    episodes.join(", ")
                );
            }
        }
        msg
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
        self.run_loop(&mut Closed)?;
        Ok(self.aggregate_report())
    }

    /// Runs the simulation to completion and produces the aggregate plus the
    /// per-query breakdown (co-simulated mode).
    pub(crate) fn run_cosim(mut self) -> Result<CoSimReport> {
        self.run_loop(&mut Closed)?;
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
    fn run_open(mut self, mut open: OpenState<'a>) -> Result<OpenReport> {
        self.run_loop(&mut open)?;
        let aggregate = self.aggregate_report();
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
        let queries = [CoSimQuery {
            plan,
            arrival_secs: 0.0,
            priority: 1,
            skew: options.skew,
            mask: None,
            memory_bytes: 0,
        }];
        let source = LaneSource::Closed {
            queries: &queries,
            topology: &[],
        };
        QueueEngine::new(source, *config, strategy, *options)?.run()
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
    let source = LaneSource::Closed { queries, topology };
    QueueEngine::new(source, *config, strategy, *options)?.run_cosim()
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
    let (engine, open) = QueueEngine::open_run(traffic, *config, strategy, *options)?;
    engine.run_open(open)
}

#[cfg(test)]
mod tests;
