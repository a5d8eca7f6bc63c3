//! Pinned-output digests: FNV-1a over a canonical dump of every simulated
//! statistic of a scenario report.
//!
//! The dump covers every [`ExecutionReport`] field except the diagnostic
//! `events` count, plus every [`MixSchedule`], [`FaultStats`] and
//! [`OpenReport`] summary. Floats enter as IEEE-754 bit patterns, so a digest
//! moves on any change a user could observe and on nothing else: an
//! optimization that merges events keeps it, a behaviour change does not.

use dlb_core::scenario::ScenarioReport;
use dlb_core::{ExecutionReport, FaultStats, LatencySummary, MixSchedule, OpenReport};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hasher over little-endian words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn exec(&mut self, r: &ExecutionReport) {
        self.str(&r.strategy.label());
        self.u64(u64::from(r.nodes));
        self.u64(u64::from(r.processors_per_node));
        self.u64(r.response_time.as_nanos());
        self.u64(r.activations);
        self.u64(r.tuples_processed);
        self.u64(r.result_tuples);
        self.u64(r.total_busy.as_nanos());
        self.u64(r.total_idle.as_nanos());
        self.f64(r.utilization);
        self.u64(r.per_node_busy.len() as u64);
        for busy in &r.per_node_busy {
            self.u64(busy.as_nanos());
        }
        self.u64(r.messages);
        self.u64(r.network_bytes);
        self.u64(r.lb_requests);
        self.u64(r.lb_acquisitions);
        self.u64(r.lb_bytes);
    }

    fn schedule(&mut self, s: Option<&MixSchedule>) {
        let Some(s) = s else {
            return self.u64(0);
        };
        self.u64(1);
        self.str(&format!("{:?}/{:?}", s.policy, s.mode));
        self.u64(s.queries.len() as u64);
        for q in &s.queries {
            self.u64(q.query as u64);
            self.u64(q.node.map_or(u64::MAX, u64::from));
            for v in [
                q.arrival_secs,
                q.admitted_secs,
                q.completion_secs,
                q.response_secs,
                q.wait_secs,
                q.solo_secs,
                q.slowdown,
            ] {
                self.f64(v);
            }
        }
        for v in [
            s.makespan_secs,
            s.mean_response_secs,
            s.max_response_secs,
            s.mean_slowdown,
            s.mean_wait_secs,
        ] {
            self.f64(v);
        }
    }

    fn faults(&mut self, f: Option<&FaultStats>) {
        let Some(f) = f else {
            return self.u64(0);
        };
        self.u64(1);
        for v in [
            f.failures,
            f.drains,
            f.joins,
            f.rebalance_bytes,
            f.activations_rehomed,
            f.tuples_rehomed,
            f.tuples_lost,
            f.tuples_redone,
            f.operators_restarted,
        ] {
            self.u64(v);
        }
    }

    fn latency(&mut self, s: Option<LatencySummary>) {
        let Some(s) = s else {
            return self.u64(0);
        };
        self.u64(s.count);
        for v in [s.mean, s.p50, s.p95, s.p99, s.max] {
            self.f64(v);
        }
    }

    fn open(&mut self, o: Option<&OpenReport>) {
        let Some(o) = o else {
            return self.u64(0);
        };
        self.u64(1);
        self.exec(&o.aggregate);
        self.u64(o.completed);
        self.u64(o.peak_live as u64);
        self.f64(o.throughput_qps);
        for h in [
            &o.response,
            &o.wait,
            &o.slowdown,
            &o.response_engine,
            &o.response_cache_hit,
            &o.response_coalesced,
        ] {
            self.latency(h.summary());
        }
        self.u64(o.response_by_class.len() as u64);
        for h in &o.response_by_class {
            self.latency(h.summary());
        }
        let f = &o.frontend;
        for v in [
            f.cache_hits,
            f.cache_stale,
            f.cache_evictions,
            f.cache_misses,
            f.cache_bypass,
            f.coalesced,
            f.engine_queries,
        ] {
            self.u64(v);
        }
        self.u64(o.engine_by_template.len() as u64);
        for &n in &o.engine_by_template {
            self.u64(n);
        }
    }
}

/// The digest of every simulated statistic of `report`.
pub fn digest(report: &ScenarioReport) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.u64(report.points.len() as u64);
    for point in &report.points {
        h.f64(point.row);
        h.f64(point.col.unwrap_or(f64::NAN));
        h.u64(point.cells.len() as u64);
        for cell in &point.cells {
            h.str(&cell.strategy.label());
            h.f64(cell.value);
            h.u64(cell.runs.len() as u64);
            for run in cell.runs.iter() {
                h.u64(run.plan_index as u64);
                h.u64(run.query_index as u64);
                h.exec(&run.report);
            }
            h.schedule(cell.mix.as_ref());
            h.schedule(cell.mix_composed.as_ref());
            h.faults(cell.faults.as_ref());
            h.schedule(cell.mix_fault_free.as_ref());
            h.open(cell.open.as_ref());
        }
    }
    h.0
}

/// A digest as the fixed-width hex string `expected.json` stores.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv(FNV_OFFSET);
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
