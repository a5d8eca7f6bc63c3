//! Deterministic topology-event streams for the co-simulated engine.
//!
//! A fault-injection scenario specifies, per run, a list of [`TopologyEvent`]s
//! at fixed simulated times: node failures (state lost, recovered per the
//! configured [`crate::RecoveryPolicy`]), graceful drains (state migrated, no
//! loss) and re-joins of previously departed nodes. The engine merges the
//! stream into its seeded event loop, so a faulted run is as bit-replayable
//! as a fault-free one.
//!
//! The stream is validated up front against the machine shape by
//! [`validate_topology`]: times must be finite and non-negative, nodes must
//! exist, failures/drains may only hit live nodes, joins may only revive
//! previously departed nodes, and the live set may never become empty.

use dlb_common::{DlbError, NodeId};

/// What happens to a node at a topology event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyChange {
    /// Crash failure: queued activations and operator state on the node are
    /// lost and recovered on the survivors per the recovery policy.
    NodeFail,
    /// Graceful departure: the node stops accepting work and its queued state
    /// migrates to the survivors (never lost, independent of the recovery
    /// policy).
    NodeDrain,
    /// A previously failed or drained node re-joins with empty memory and
    /// fresh threads, and becomes eligible for routing and stealing again.
    NodeJoin,
}

impl TopologyChange {
    /// Stable label, also the JSON spelling (`fail` / `drain` / `join`).
    pub fn label(&self) -> &'static str {
        match self {
            TopologyChange::NodeFail => "fail",
            TopologyChange::NodeDrain => "drain",
            TopologyChange::NodeJoin => "join",
        }
    }

    /// Parses a [`Self::label`] spelling.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "fail" => Some(TopologyChange::NodeFail),
            "drain" => Some(TopologyChange::NodeDrain),
            "join" => Some(TopologyChange::NodeJoin),
            _ => None,
        }
    }

    /// Discriminant used in cache-key fingerprints.
    pub fn bits(&self) -> u64 {
        match self {
            TopologyChange::NodeFail => 0,
            TopologyChange::NodeDrain => 1,
            TopologyChange::NodeJoin => 2,
        }
    }
}

/// One scheduled change to the live node set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyEvent {
    /// Simulated time at which the change takes effect.
    pub at_secs: f64,
    /// The affected node.
    pub node: NodeId,
    /// What happens to it.
    pub change: TopologyChange,
}

impl TopologyEvent {
    /// A failure of `node` at `at_secs`.
    pub fn fail(at_secs: f64, node: usize) -> Self {
        Self {
            at_secs,
            node: NodeId::from(node),
            change: TopologyChange::NodeFail,
        }
    }

    /// A graceful drain of `node` at `at_secs`.
    pub fn drain(at_secs: f64, node: usize) -> Self {
        Self {
            at_secs,
            node: NodeId::from(node),
            change: TopologyChange::NodeDrain,
        }
    }

    /// A re-join of `node` at `at_secs`.
    pub fn join(at_secs: f64, node: usize) -> Self {
        Self {
            at_secs,
            node: NodeId::from(node),
            change: TopologyChange::NodeJoin,
        }
    }
}

/// Checks a topology stream against a machine of `nodes` SM-nodes and returns
/// it sorted by time (stable, so same-time events keep their spec order).
///
/// Rules enforced: finite non-negative times; node indices in range; a fail
/// or drain only hits a currently live node; a join only revives a node that
/// previously failed or drained; at least one node stays live at all times.
pub fn validate_topology(
    events: &[TopologyEvent],
    nodes: u32,
) -> Result<Vec<TopologyEvent>, DlbError> {
    let mut sorted = events.to_vec();
    for ev in &sorted {
        if !ev.at_secs.is_finite() || ev.at_secs < 0.0 {
            return Err(DlbError::config(format!(
                "topology event time {} must be finite and >= 0",
                ev.at_secs
            )));
        }
        if ev.node.index() >= nodes as usize {
            return Err(DlbError::config(format!(
                "topology event targets node {} but the machine has {} nodes",
                ev.node.index(),
                nodes
            )));
        }
    }
    sorted.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("finite times"));
    let mut live = vec![true; nodes as usize];
    for ev in &sorted {
        let n = ev.node.index();
        match ev.change {
            TopologyChange::NodeFail | TopologyChange::NodeDrain => {
                if !live[n] {
                    return Err(DlbError::config(format!(
                        "topology event {}s: node {} is already down",
                        ev.at_secs, n
                    )));
                }
                live[n] = false;
                if !live.iter().any(|&l| l) {
                    return Err(DlbError::config(format!(
                        "topology event {}s: removing node {} leaves no live nodes",
                        ev.at_secs, n
                    )));
                }
            }
            TopologyChange::NodeJoin => {
                if live[n] {
                    return Err(DlbError::config(format!(
                        "topology event {}s: node {} joins but never departed",
                        ev.at_secs, n
                    )));
                }
                live[n] = true;
            }
        }
    }
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for c in [
            TopologyChange::NodeFail,
            TopologyChange::NodeDrain,
            TopologyChange::NodeJoin,
        ] {
            assert_eq!(TopologyChange::from_label(c.label()), Some(c));
        }
        assert_eq!(TopologyChange::from_label("reboot"), None);
    }

    #[test]
    fn valid_stream_is_sorted_stably() {
        let evs = vec![
            TopologyEvent::fail(0.5, 2),
            TopologyEvent::fail(0.1, 1),
            TopologyEvent::join(0.5, 1),
        ];
        let sorted = validate_topology(&evs, 4).unwrap();
        assert_eq!(sorted[0].node.index(), 1);
        // Same-time events keep input order: fail(2) before join(1).
        assert_eq!(sorted[1].change, TopologyChange::NodeFail);
        assert_eq!(sorted[2].change, TopologyChange::NodeJoin);
    }

    #[test]
    fn rejects_bad_time_node_and_sequencing() {
        let bad_time = [TopologyEvent::fail(f64::NAN, 0)];
        assert!(validate_topology(&bad_time, 4).is_err());
        let neg = [TopologyEvent::fail(-1.0, 0)];
        assert!(validate_topology(&neg, 4).is_err());
        let out_of_range = [TopologyEvent::fail(0.1, 4)];
        assert!(validate_topology(&out_of_range, 4).is_err());
        let double_fail = [TopologyEvent::fail(0.1, 1), TopologyEvent::drain(0.2, 1)];
        assert!(validate_topology(&double_fail, 4).is_err());
        let join_live = [TopologyEvent::join(0.1, 1)];
        assert!(validate_topology(&join_live, 4).is_err());
        let all_dead = [TopologyEvent::fail(0.1, 0), TopologyEvent::fail(0.2, 1)];
        assert!(validate_topology(&all_dead, 2).is_err());
        // ... but failing down to one node is fine, and a re-join revives.
        let ok = [
            TopologyEvent::fail(0.1, 0),
            TopologyEvent::join(0.3, 0),
            TopologyEvent::fail(0.4, 1),
        ];
        assert!(validate_topology(&ok, 2).is_ok());
    }
}
