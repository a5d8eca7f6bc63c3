//! Inter-query (multi-query) scheduling: admission, placement and
//! processor-sharing of N concurrent queries on the SM-nodes of one machine.
//!
//! The paper's hierarchical architecture is motivated by *many* queries
//! sharing a few powerful SM-nodes, but the intra-query engines of this crate
//! execute one plan at a time. This module adds the missing inter-query
//! layer as a deterministic scheduler simulation on top of engine-measured
//! per-query costs:
//!
//! * each query is a [`MixJob`]: an arrival offset, a priority, the
//!   standalone (solo) response time the engine measured for it on its
//!   placement shape, and a working-set estimate (its hash tables) used for
//!   memory admission;
//! * a [`MixPolicy`] decides placement: [`MixPolicy::Fcfs`] admits queries
//!   in arrival order onto the whole machine, [`MixPolicy::RoundRobin`]
//!   pins each query to one SM-node in rotation, and
//!   [`MixPolicy::LoadAware`] pins each query to the SM-node with the least
//!   outstanding work at admission time (the same load metric — queued work
//!   seconds — the engine's global load balancing reasons about);
//! * admitted queries time-share their nodes under priority-weighted
//!   processor sharing: a query of weight `w` on a node whose admitted
//!   weights sum to `W` progresses at rate `w / W`, so a query alone on its
//!   placement finishes in exactly its solo time;
//! * a query is only admitted when every node of its placement has enough
//!   free memory for its share of the working set (the admission limit the
//!   engine's steal policy also respects); otherwise it waits, in strict
//!   arrival order with head-of-line blocking (priorities weight the
//!   sharing of admitted queries, they never jump the admission queue).
//!
//! [`schedule_mix`] runs the event-driven simulation to completion and
//! returns a [`MixSchedule`] with per-query response times
//! ([`QueryOutcome`]) and the aggregate metrics the scenario layer renders.

use dlb_common::{DlbError, Result};

/// How an inter-query mix is evaluated.
///
/// The scheduler of this module ([`schedule_mix`]) and the engine's
/// co-simulated mode ([`crate::engine::execute_cosimulated`]) answer the
/// same question — what do N concurrent queries experience on the shared
/// SM-nodes? — at two fidelities. Both support every placement policy and
/// per-node memory admission. `Composed` is cheap (per-query solo runs plus
/// an analytic model); `CoSimulated` actually interleaves the queries'
/// activations in one event loop, so queue contention, flow control,
/// cross-query steal traffic and admission serialization are simulated
/// rather than modeled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MixMode {
    /// Compose engine-measured **solo** runs with priority-weighted
    /// processor sharing and per-node memory admission (the analytic model
    /// of [`schedule_mix`]). The default.
    #[default]
    Composed,
    /// Interleave all queries inside **one** engine event loop
    /// ([`crate::engine::execute_cosimulated`]): query-tagged activations,
    /// priority-aware local scheduling, steal decisions that see cross-query
    /// load, per-query placement masks (pinning policies re-home each plan
    /// onto its node) and per-node memory admission with head-of-line FCFS
    /// queueing — the same admission discipline as [`schedule_mix`], driven
    /// by the simulated completion instants instead of the analytic ones.
    CoSimulated,
}

impl MixMode {
    /// Stable lower-case label, also the JSON spelling (`composed`,
    /// `co-simulated`).
    pub fn label(&self) -> &'static str {
        match self {
            MixMode::Composed => "composed",
            MixMode::CoSimulated => "co-simulated",
        }
    }

    /// Parses a [`MixMode::label`] spelling.
    pub fn from_label(label: &str) -> Result<Self> {
        match label {
            "composed" => Ok(MixMode::Composed),
            "co-simulated" => Ok(MixMode::CoSimulated),
            other => Err(DlbError::Parse(format!(
                "unknown mix mode {other:?} (expected composed | co-simulated)"
            ))),
        }
    }
}

/// Admission / placement policy of an inter-query mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixPolicy {
    /// First come, first served onto the *whole* machine: every admitted
    /// query spreads over all SM-nodes and time-shares them with every other
    /// admitted query.
    Fcfs,
    /// Each query is pinned to one SM-node, assigned in admission rotation
    /// (query `i` to node `i mod nodes`). Blind but cheap placement.
    RoundRobin,
    /// Each query is pinned to the SM-node with the least outstanding
    /// admitted work (in remaining solo-seconds) at its admission instant —
    /// placement driven by the engine's load metric.
    LoadAware,
}

impl MixPolicy {
    /// Stable lower-case label, also the JSON spelling (`fcfs`,
    /// `round-robin`, `load-aware`).
    pub fn label(&self) -> &'static str {
        match self {
            MixPolicy::Fcfs => "fcfs",
            MixPolicy::RoundRobin => "round-robin",
            MixPolicy::LoadAware => "load-aware",
        }
    }

    /// Parses a [`MixPolicy::label`] spelling.
    pub fn from_label(label: &str) -> Result<Self> {
        match label {
            "fcfs" => Ok(MixPolicy::Fcfs),
            "round-robin" => Ok(MixPolicy::RoundRobin),
            "load-aware" => Ok(MixPolicy::LoadAware),
            other => Err(DlbError::Parse(format!(
                "unknown mix policy {other:?} (expected fcfs | round-robin | load-aware)"
            ))),
        }
    }
}

/// One query of a mix, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixJob {
    /// Arrival offset from the start of the mix, in seconds.
    pub arrival_secs: f64,
    /// Scheduling priority (≥ 1). Used as the processor-sharing weight: a
    /// priority-2 query progresses twice as fast as a priority-1 query
    /// sharing the same node.
    pub priority: u32,
    /// Standalone response time on the query's placement shape (one SM-node
    /// for pinning policies, the full machine for FCFS), as measured by the
    /// execution engine.
    pub solo_secs: f64,
    /// Working-set estimate (hash tables) used for memory admission, spread
    /// evenly over the nodes of the placement.
    pub memory_bytes: u64,
}

/// The scheduler's verdict on one query of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// Index of the query within the mix.
    pub query: usize,
    /// The SM-node the query was pinned to, or `None` when it spread over
    /// the whole machine (FCFS).
    pub node: Option<u32>,
    /// Arrival offset, in seconds.
    pub arrival_secs: f64,
    /// Instant the query was admitted (= arrival unless memory was tight).
    pub admitted_secs: f64,
    /// Instant the query completed.
    pub completion_secs: f64,
    /// Response time: completion − arrival.
    pub response_secs: f64,
    /// Admission delay: admitted − arrival.
    pub wait_secs: f64,
    /// The standalone response time the query was charged with.
    pub solo_secs: f64,
    /// Multi-query slowdown: response / solo (1.0 = no interference).
    pub slowdown: f64,
}

/// The outcome of scheduling one mix: per-query outcomes plus the aggregate
/// response-time metrics of the paper-style evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSchedule {
    /// The policy that produced this schedule.
    pub policy: MixPolicy,
    /// Whether the schedule came from the analytic composition
    /// ([`schedule_mix`]) or from a co-simulated engine run.
    pub mode: MixMode,
    /// One outcome per query, in mix order.
    pub queries: Vec<QueryOutcome>,
    /// Completion instant of the last query (seconds from mix start).
    pub makespan_secs: f64,
    /// Mean per-query response time.
    pub mean_response_secs: f64,
    /// Largest per-query response time.
    pub max_response_secs: f64,
    /// Mean per-query slowdown against the solo run.
    pub mean_slowdown: f64,
    /// Mean admission delay.
    pub mean_wait_secs: f64,
}

/// Completion slack under which a query counts as finished (guards the event
/// loop against floating-point residue).
const EPS: f64 = 1e-9;

/// An admitted query mid-flight.
struct Active {
    job: usize,
    nodes: Vec<u32>,
    weight: f64,
    remaining_secs: f64,
    mem_per_node: u64,
}

/// Runs the inter-query schedule of `jobs` on a machine of `nodes` SM-nodes
/// with `memory_per_node` bytes of shared memory each, under `policy`.
///
/// The simulation is deterministic: outcomes depend only on the inputs. A
/// query whose memory demand can never fit (even on an idle machine) is an
/// [`DlbError::InvalidConfig`] error rather than a deadlock.
pub fn schedule_mix(
    jobs: &[MixJob],
    nodes: u32,
    memory_per_node: u64,
    policy: MixPolicy,
) -> Result<MixSchedule> {
    if nodes == 0 {
        return Err(DlbError::config("mix machine needs at least one node"));
    }
    let placement_size = match policy {
        MixPolicy::Fcfs => nodes as u64,
        MixPolicy::RoundRobin | MixPolicy::LoadAware => 1,
    };
    for (i, job) in jobs.iter().enumerate() {
        if job.priority == 0 {
            return Err(DlbError::config(format!("query {i} has priority 0")));
        }
        if !(job.arrival_secs.is_finite() && job.arrival_secs >= 0.0) {
            return Err(DlbError::config(format!(
                "query {i} has invalid arrival {}",
                job.arrival_secs
            )));
        }
        if !(job.solo_secs.is_finite() && job.solo_secs >= 0.0) {
            return Err(DlbError::config(format!(
                "query {i} has invalid solo time {}",
                job.solo_secs
            )));
        }
        let per_node = job.memory_bytes.div_ceil(placement_size);
        if per_node > memory_per_node {
            return Err(DlbError::config(format!(
                "query {i} needs {per_node} bytes per node of its placement \
                 but nodes have {memory_per_node}"
            )));
        }
    }

    // Arrival order (stable on ties by mix index).
    let mut arrival_order: Vec<usize> = (0..jobs.len()).collect();
    arrival_order.sort_by(|&a, &b| {
        jobs[a]
            .arrival_secs
            .total_cmp(&jobs[b].arrival_secs)
            .then(a.cmp(&b))
    });

    let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; jobs.len()];
    let mut free_mem: Vec<u64> = vec![memory_per_node; nodes as usize];
    let mut active: Vec<Active> = Vec::new();
    // Waiting queries in strict arrival order; admission stops at the first
    // query that does not fit (head-of-line blocking).
    let mut waiting: Vec<usize> = Vec::new();
    let mut next_arrival = 0usize;
    let mut admitted_count = 0usize; // round-robin rotation cursor
    let mut now = 0.0f64;

    // Per-node admitted weight, recomputed on every membership change.
    let node_weight = |active: &[Active]| -> Vec<f64> {
        let mut w = vec![0.0f64; nodes as usize];
        for a in active {
            for &n in &a.nodes {
                w[n as usize] += a.weight;
            }
        }
        w
    };
    // Progress rate of one active query under priority-weighted processor
    // sharing, averaged over its placement nodes so that a query alone on
    // its whole placement runs at rate 1.
    let rate_of = |a: &Active, weights: &[f64]| -> f64 {
        let share: f64 = a
            .nodes
            .iter()
            .map(|&n| a.weight / weights[n as usize].max(a.weight))
            .sum();
        share / a.nodes.len() as f64
    };

    while next_arrival < arrival_order.len() || !active.is_empty() || !waiting.is_empty() {
        // Admit as many waiting queries as memory allows, in queue order.
        let mut admitted_any = true;
        while admitted_any {
            admitted_any = false;
            if let Some(&job_idx) = waiting.first() {
                let job = &jobs[job_idx];
                let placement: Vec<u32> = match policy {
                    MixPolicy::Fcfs => (0..nodes).collect(),
                    MixPolicy::RoundRobin => vec![(admitted_count as u32) % nodes],
                    MixPolicy::LoadAware => {
                        // Outstanding admitted work per node, in remaining
                        // solo-seconds.
                        let mut load = vec![0.0f64; nodes as usize];
                        for a in &active {
                            for &n in &a.nodes {
                                load[n as usize] += a.remaining_secs / a.nodes.len() as f64;
                            }
                        }
                        let best = (0..nodes)
                            .min_by(|&x, &y| load[x as usize].total_cmp(&load[y as usize]))
                            .expect("at least one node");
                        vec![best]
                    }
                };
                let mem_per_node = job.memory_bytes.div_ceil(placement.len() as u64);
                let fits = placement
                    .iter()
                    .all(|&n| free_mem[n as usize] >= mem_per_node);
                if fits {
                    waiting.remove(0);
                    for &n in &placement {
                        free_mem[n as usize] -= mem_per_node;
                    }
                    admitted_count += 1;
                    // Arrivals are enqueued at `arrival_secs <= now + EPS`,
                    // so `now` can sit an epsilon *before* the arrival —
                    // clamp so the recorded wait is never negative.
                    let wait_secs = (now - job.arrival_secs).max(0.0);
                    debug_assert!(wait_secs >= 0.0);
                    outcomes[job_idx] = Some(QueryOutcome {
                        query: job_idx,
                        node: (placement.len() == 1).then(|| placement[0]),
                        arrival_secs: job.arrival_secs,
                        admitted_secs: now.max(job.arrival_secs),
                        completion_secs: 0.0, // filled at completion
                        response_secs: 0.0,
                        wait_secs,
                        solo_secs: job.solo_secs,
                        slowdown: 1.0,
                    });
                    active.push(Active {
                        job: job_idx,
                        nodes: placement,
                        weight: job.priority as f64,
                        remaining_secs: job.solo_secs,
                        mem_per_node,
                    });
                    admitted_any = true;
                }
            }
        }

        // Immediate completions (zero-work queries, floating-point residue).
        if finish_done(&mut active, &mut free_mem, &mut outcomes, now) {
            continue;
        }
        if active.is_empty() && waiting.is_empty() && next_arrival >= arrival_order.len() {
            break;
        }

        // Time of the next event: the earliest pending arrival or the
        // earliest completion at current rates.
        let weights = node_weight(&active);
        let arrival_t = arrival_order
            .get(next_arrival)
            .map(|&j| jobs[j].arrival_secs.max(now));
        let completion_t = active
            .iter()
            .map(|a| now + a.remaining_secs / rate_of(a, &weights))
            .min_by(f64::total_cmp);
        let t_next = match (arrival_t, completion_t) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => {
                // Waiting queries but nothing active and no arrivals left:
                // unreachable thanks to the feasibility pre-check.
                return Err(DlbError::exec("mix admission deadlocked"));
            }
        };

        // Advance every active query to t_next.
        let dt = t_next - now;
        if dt > 0.0 {
            for a in active.iter_mut() {
                a.remaining_secs -= dt * rate_of(a, &weights);
            }
        }
        now = t_next;

        // Enqueue arrivals due now. Admission is strictly first come, first
        // served: priorities weight the processor sharing of *admitted*
        // queries but never jump the admission queue.
        while next_arrival < arrival_order.len()
            && jobs[arrival_order[next_arrival]].arrival_secs <= now + EPS
        {
            waiting.push(arrival_order[next_arrival]);
            next_arrival += 1;
        }

        finish_done(&mut active, &mut free_mem, &mut outcomes, now);
    }

    // Memory conservation: every admitted query released exactly what it
    // reserved, so each node's free memory is back at its capacity. A
    // violation would mean admission double-booked or leaked memory — fail
    // loudly instead of returning a schedule built on corrupt accounting.
    if free_mem.iter().any(|&f| f != memory_per_node) {
        return Err(DlbError::exec(format!(
            "mix admission leaked memory: free per node {free_mem:?} after completion, \
             expected {memory_per_node} everywhere"
        )));
    }

    let mut queries: Vec<QueryOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every query was scheduled"))
        .collect();
    queries.sort_by_key(|o| o.query);

    let n = queries.len() as f64;
    let mean = |f: &dyn Fn(&QueryOutcome) -> f64| -> f64 {
        if queries.is_empty() {
            0.0
        } else {
            queries.iter().map(f).sum::<f64>() / n
        }
    };
    Ok(MixSchedule {
        policy,
        mode: MixMode::Composed,
        makespan_secs: queries
            .iter()
            .map(|o| o.completion_secs)
            .fold(0.0, f64::max),
        mean_response_secs: mean(&|o| o.response_secs),
        max_response_secs: queries.iter().map(|o| o.response_secs).fold(0.0, f64::max),
        mean_slowdown: mean(&|o| o.slowdown),
        mean_wait_secs: mean(&|o| o.wait_secs),
        queries,
    })
}

/// Completes every active query whose remaining work is (numerically) zero,
/// freeing its memory. Returns whether anything completed.
fn finish_done(
    active: &mut Vec<Active>,
    free_mem: &mut [u64],
    outcomes: &mut [Option<QueryOutcome>],
    now: f64,
) -> bool {
    let mut any = false;
    let mut i = 0;
    while i < active.len() {
        if active[i].remaining_secs <= EPS {
            let a = active.swap_remove(i);
            for &n in &a.nodes {
                free_mem[n as usize] += a.mem_per_node;
            }
            let o = outcomes[a.job].as_mut().expect("admitted before completed");
            // Like the admission instant, `now` can carry an epsilon of
            // floating-point residue; a completion never precedes the
            // (already arrival-clamped) admission, and a response is never
            // negative.
            o.completion_secs = now.max(o.admitted_secs);
            o.response_secs = (o.completion_secs - o.arrival_secs).max(0.0);
            debug_assert!(o.response_secs >= 0.0 && o.wait_secs >= 0.0);
            o.slowdown = if o.solo_secs > 0.0 {
                o.response_secs / o.solo_secs
            } else {
                1.0
            };
            any = true;
        } else {
            i += 1;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn job(arrival: f64, solo: f64) -> MixJob {
        MixJob {
            arrival_secs: arrival,
            priority: 1,
            solo_secs: solo,
            memory_bytes: MB,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [MixPolicy::Fcfs, MixPolicy::RoundRobin, MixPolicy::LoadAware] {
            assert_eq!(MixPolicy::from_label(p.label()).unwrap(), p);
        }
        assert!(MixPolicy::from_label("shortest-first").is_err());
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in [MixMode::Composed, MixMode::CoSimulated] {
            assert_eq!(MixMode::from_label(m.label()).unwrap(), m);
        }
        assert!(MixMode::from_label("interleaved").is_err());
        assert_eq!(MixMode::default(), MixMode::Composed);
        // The analytic scheduler stamps its schedules as composed.
        let s = schedule_mix(&[job(0.0, 1.0)], 1, MB, MixPolicy::Fcfs).unwrap();
        assert_eq!(s.mode, MixMode::Composed);
    }

    #[test]
    fn lone_query_runs_at_solo_speed() {
        for policy in [MixPolicy::Fcfs, MixPolicy::RoundRobin, MixPolicy::LoadAware] {
            let s = schedule_mix(&[job(0.0, 10.0)], 4, 64 * MB, policy).unwrap();
            assert!(close(s.queries[0].response_secs, 10.0), "{policy:?}");
            assert!(close(s.queries[0].slowdown, 1.0));
            assert!(close(s.makespan_secs, 10.0));
            assert_eq!(s.queries[0].wait_secs, 0.0);
        }
    }

    #[test]
    fn fcfs_processor_sharing_doubles_equal_queries() {
        let s = schedule_mix(
            &[job(0.0, 10.0), job(0.0, 10.0)],
            2,
            64 * MB,
            MixPolicy::Fcfs,
        )
        .unwrap();
        for q in &s.queries {
            assert!(close(q.response_secs, 20.0), "got {}", q.response_secs);
            assert!(close(q.slowdown, 2.0));
        }
        assert!(close(s.makespan_secs, 20.0));
    }

    #[test]
    fn staggered_fcfs_arrival_matches_processor_sharing_arithmetic() {
        // A (solo 10) at t=0, B (solo 10) at t=5 sharing one machine: they
        // split capacity from 5 to 15 (A completes), then B runs alone and
        // completes at 20.
        let s = schedule_mix(
            &[job(0.0, 10.0), job(5.0, 10.0)],
            1,
            64 * MB,
            MixPolicy::Fcfs,
        )
        .unwrap();
        assert!(close(s.queries[0].completion_secs, 15.0));
        assert!(close(s.queries[1].completion_secs, 20.0));
        assert!(close(s.queries[1].response_secs, 15.0));
    }

    #[test]
    fn priorities_weight_the_sharing() {
        let hi = MixJob {
            priority: 3,
            ..job(0.0, 10.0)
        };
        let lo = job(0.0, 10.0);
        let s = schedule_mix(&[hi, lo], 1, 64 * MB, MixPolicy::Fcfs).unwrap();
        // The weight-3 query gets 3/4 of the machine until it finishes.
        assert!(
            s.queries[0].response_secs < s.queries[1].response_secs,
            "priority 3 ({}) should finish before priority 1 ({})",
            s.queries[0].response_secs,
            s.queries[1].response_secs
        );
        assert!(close(s.queries[0].response_secs, 10.0 * 4.0 / 3.0));
        // Total work conserved: the low-priority query still completes at 20.
        assert!(close(s.queries[1].completion_secs, 20.0));
    }

    #[test]
    fn round_robin_spreads_queries_across_nodes() {
        let s = schedule_mix(
            &[job(0.0, 10.0), job(0.0, 10.0)],
            2,
            64 * MB,
            MixPolicy::RoundRobin,
        )
        .unwrap();
        assert_eq!(s.queries[0].node, Some(0));
        assert_eq!(s.queries[1].node, Some(1));
        // Different nodes: no interference at all.
        for q in &s.queries {
            assert!(close(q.response_secs, 10.0));
            assert!(close(q.slowdown, 1.0));
        }
    }

    #[test]
    fn load_aware_avoids_the_loaded_node() {
        // A long query lands on node 0; round-robin would put the third
        // query back on node 0, load-aware keeps it away.
        let jobs = [job(0.0, 100.0), job(1.0, 1.0), job(2.0, 10.0)];
        let s = schedule_mix(&jobs, 2, 64 * MB, MixPolicy::LoadAware).unwrap();
        assert_eq!(s.queries[0].node, Some(0));
        assert_eq!(s.queries[1].node, Some(1));
        assert_eq!(
            s.queries[2].node,
            Some(1),
            "node 0 still holds ~98s of work"
        );
        assert!(close(s.queries[2].response_secs, 10.0));

        let rr = schedule_mix(&jobs, 2, 64 * MB, MixPolicy::RoundRobin).unwrap();
        assert_eq!(rr.queries[2].node, Some(0));
        assert!(
            rr.queries[2].response_secs > 10.0 + 1.0,
            "round-robin shares the loaded node: {}",
            rr.queries[2].response_secs
        );
        assert!(s.mean_response_secs < rr.mean_response_secs);
    }

    #[test]
    fn memory_admission_serializes_queries() {
        // Each query needs the whole node's memory: the second waits for the
        // first to complete even though processors are free.
        let big = MixJob {
            memory_bytes: 8 * MB,
            ..job(0.0, 10.0)
        };
        let s = schedule_mix(&[big, big], 1, 8 * MB, MixPolicy::Fcfs).unwrap();
        assert!(close(s.queries[0].response_secs, 10.0));
        assert!(close(s.queries[1].wait_secs, 10.0));
        assert!(close(s.queries[1].response_secs, 20.0));
        assert!(close(s.mean_wait_secs, 5.0));
        // With twice the memory both are admitted immediately and share.
        let s = schedule_mix(&[big, big], 1, 16 * MB, MixPolicy::Fcfs).unwrap();
        assert_eq!(s.queries[1].wait_secs, 0.0);
        assert!(close(s.queries[1].response_secs, 20.0));
    }

    #[test]
    fn priorities_never_jump_the_admission_queue() {
        // One node whose memory holds a single query at a time. A long query
        // occupies it; a priority-1 query arrives before a priority-3 query.
        // FCFS admission must admit them in arrival order regardless of
        // priority (priorities only weight the sharing once admitted).
        let hog = MixJob {
            memory_bytes: 8 * MB,
            ..job(0.0, 10.0)
        };
        let low_first = MixJob {
            memory_bytes: 8 * MB,
            ..job(1.0, 5.0)
        };
        let high_later = MixJob {
            priority: 3,
            memory_bytes: 8 * MB,
            ..job(2.0, 5.0)
        };
        let s = schedule_mix(&[hog, low_first, high_later], 1, 8 * MB, MixPolicy::Fcfs).unwrap();
        assert!(
            close(s.queries[1].admitted_secs, 10.0),
            "first in, first admitted"
        );
        assert!(
            close(s.queries[2].admitted_secs, 15.0),
            "priority 3 waits its turn"
        );
        // Round-robin keeps the documented arrival-order node rotation too.
        let rr = schedule_mix(
            &[job(0.0, 1.0), job(0.5, 1.0), job(1.0, 1.0)],
            2,
            64 * MB,
            MixPolicy::RoundRobin,
        )
        .unwrap();
        assert_eq!(rr.queries[0].node, Some(0));
        assert_eq!(rr.queries[1].node, Some(1));
        assert_eq!(rr.queries[2].node, Some(0));
    }

    #[test]
    fn infeasible_memory_demand_is_an_error_not_a_deadlock() {
        let hog = MixJob {
            memory_bytes: 64 * MB,
            ..job(0.0, 1.0)
        };
        let err = schedule_mix(&[hog], 2, 8 * MB, MixPolicy::RoundRobin).unwrap_err();
        assert!(matches!(err, DlbError::InvalidConfig(_)), "{err}");
        // FCFS spreads the demand over both nodes and fits.
        assert!(schedule_mix(&[hog], 2, 32 * MB, MixPolicy::Fcfs).is_ok());
    }

    #[test]
    fn zero_priority_and_bad_inputs_are_rejected() {
        let bad = MixJob {
            priority: 0,
            ..job(0.0, 1.0)
        };
        assert!(schedule_mix(&[bad], 1, MB, MixPolicy::Fcfs).is_err());
        let nan = MixJob {
            solo_secs: f64::NAN,
            ..job(0.0, 1.0)
        };
        assert!(schedule_mix(&[nan], 1, MB, MixPolicy::Fcfs).is_err());
        assert!(schedule_mix(&[], 0, MB, MixPolicy::Fcfs).is_err());
    }

    #[test]
    fn empty_mix_yields_an_empty_schedule() {
        let s = schedule_mix(&[], 2, MB, MixPolicy::LoadAware).unwrap();
        assert!(s.queries.is_empty());
        assert_eq!(s.makespan_secs, 0.0);
        assert_eq!(s.mean_response_secs, 0.0);
    }

    #[test]
    fn zero_work_queries_complete_instantly() {
        let s = schedule_mix(&[job(3.0, 0.0)], 1, MB, MixPolicy::Fcfs).unwrap();
        assert!(close(s.queries[0].completion_secs, 3.0));
        assert_eq!(s.queries[0].response_secs, 0.0);
        assert!(close(s.queries[0].slowdown, 1.0));
    }

    #[test]
    fn schedule_is_deterministic() {
        let jobs: Vec<MixJob> = (0..8)
            .map(|i| MixJob {
                arrival_secs: i as f64 * 0.7,
                priority: 1 + (i % 3) as u32,
                solo_secs: 3.0 + i as f64,
                memory_bytes: (1 + i as u64) * MB,
            })
            .collect();
        let a = schedule_mix(&jobs, 3, 16 * MB, MixPolicy::LoadAware).unwrap();
        let b = schedule_mix(&jobs, 3, 16 * MB, MixPolicy::LoadAware).unwrap();
        assert_eq!(a, b);
    }
}
