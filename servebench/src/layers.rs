//! Per-layer attribution of one traced replay, from outside the program:
//! the timing adapter's tallies (`policies`), `LhrCache::stats()` and the
//! `lhr.*` / `gbm.*` spans of the shards' recorders (`core`, `gbm`), the
//! engine report (`proto`), and the fleet recorder's export (`obs`).

use crate::metrics::{self, metric, Metric};
use crate::timed::{CallHist, Probe};
use crate::workload::Replay;
use lhr_obs::ObsRecord;
use std::collections::{BTreeMap, HashMap};
use std::thread::ThreadId;

/// The reconcile gap above which a traced run is flagged, %.
pub const RECONCILE_TOLERANCE_PCT: f64 = 10.0;

/// What the `sim` layer costs alone: the router over the same trace and
/// thread count with counting no-op workers.
#[derive(Debug, Clone, Copy)]
pub struct RouteFloor {
    /// Wall seconds (min of several runs).
    pub wall_secs: f64,
    /// Process CPU seconds of that run.
    pub cpu_secs: f64,
}

/// Span totals and counters summed over every LHR shard recorder.
#[derive(Default)]
struct Learning {
    span_secs: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl Learning {
    fn collect(probe: &Probe) -> Self {
        let mut out = Learning::default();
        for obs in probe.recorders() {
            for record in obs.records() {
                match record {
                    ObsRecord::Span(span) => {
                        // Nested spans carry their parents' path; the leaf
                        // names the work.
                        let leaf = span.path.rsplit('/').next().unwrap_or("").to_string();
                        *out.span_secs.entry(leaf).or_insert(0.0) += span.total_secs;
                    }
                    ObsRecord::Counter { name, value } => {
                        *out.counters.entry(name).or_insert(0) += value;
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn secs(&self, span: &str) -> f64 {
        self.span_secs.get(span).copied().unwrap_or(0.0)
    }

    fn count(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0) as f64
    }
}

/// The layer metrics of one traced replay on `threads` workers.
pub fn attribute(replay: &Replay, probe: &Probe, threads: usize, floor: RouteFloor) -> Vec<Metric> {
    let tallies = probe.tallies();
    let learning = Learning::collect(probe);

    // policies
    let mut hist = CallHist::default();
    let mut busy_by_thread: HashMap<ThreadId, f64> = HashMap::new();
    let (mut busy_s, mut lhr_busy_s) = (0.0, 0.0);
    let (mut evictions, mut admitted, mut bypassed) = (0u64, 0u64, 0u64);
    let (mut windows, mut trainings, mut threshold_updates) = (0u64, 0u64, 0u64);
    let mut fit_s = 0.0;
    for t in &tallies {
        hist.merge(&t.hist);
        let secs = t.busy_ns as f64 * 1e-9;
        busy_s += secs;
        if let Some(thread) = t.thread {
            *busy_by_thread.entry(thread).or_insert(0.0) += secs;
        }
        evictions += t.evictions;
        admitted += t.admitted;
        bypassed += t.bypassed;
        if let Some(stats) = &t.lhr {
            lhr_busy_s += secs;
            windows += stats.windows;
            trainings += stats.trainings;
            threshold_updates += stats.threshold_updates;
            fit_s += stats.train_wall_secs;
        }
    }
    let misses = admitted + bypassed;
    let busy: Vec<f64> = busy_by_thread.into_values().collect();

    // core and gbm: the learning loop runs inside `handle` on the serving
    // thread, except background fits, which run on shadow threads.
    let label_s = learning.secs("lhr.label");
    let detect_s = learning.secs("lhr.detect");
    let threshold_s = learning.secs("lhr.threshold");
    let fit_inline_s = learning.secs("gbm.fit");
    let serve_s = (lhr_busy_s - label_s - detect_s - threshold_s - fit_inline_s).max(0.0);
    let background_fit_s = (fit_s - fit_inline_s).max(0.0);

    // proto: what the layers above leave of the replay's CPU.
    let cpu_s = replay.cpu_secs;
    let attributed = busy_s + background_fit_s + floor.cpu_secs;
    let self_s = (cpu_s - attributed).max(0.0);
    let reconcile_gap_pct = if cpu_s > 0.0 {
        (attributed + self_s - cpu_s).abs() / cpu_s * 100.0
    } else {
        0.0
    };
    let [retries, breaker_opens, coalesced, stale_served] = replay.report.fault_counters();
    let report_misses = replay.report.requests() as f64 * (1.0 - replay.report.hit_pct() / 100.0);
    let fleet = replay.report.fleet();
    let export = replay.export.clone().unwrap_or_default();

    vec![
        metric("policies.calls", "count", hist.total() as f64),
        metric("policies.busy_s", "s", busy_s),
        metric("policies.call_ns_p50", "ns", hist.quantile_ns(0.5) as f64),
        metric("policies.call_ns_p99", "ns", hist.quantile_ns(0.99) as f64),
        metric(
            "policies.call_ns_p999",
            "ns",
            hist.quantile_ns(0.999) as f64,
        ),
        metric("policies.call_ns_max", "ns", hist.max_ns() as f64),
        metric("policies.evictions", "count", evictions as f64),
        metric(
            "policies.admit_pct",
            "%",
            if misses == 0 {
                0.0
            } else {
                admitted as f64 / misses as f64 * 100.0
            },
        ),
        metric(
            "policies.worker_busy_imbalance",
            "ratio",
            metrics::imbalance(&busy),
        ),
        metric("core.windows", "count", windows as f64),
        metric("core.trainings", "count", trainings as f64),
        metric("core.threshold_updates", "count", threshold_updates as f64),
        metric("core.label_s", "s", label_s),
        metric("core.detect_s", "s", detect_s),
        metric("core.threshold_s", "s", threshold_s),
        metric("core.serve_s", "s", serve_s),
        metric("gbm.fits", "count", learning.count("gbm.fits")),
        metric("gbm.trees", "count", learning.count("gbm.trees")),
        metric("gbm.fit_s", "s", fit_s),
        metric("gbm.fit_inline_s", "s", fit_inline_s),
        metric("gbm.bin_s", "s", learning.secs("gbm.bin")),
        metric("gbm.tree_s", "s", learning.secs("gbm.tree")),
        metric("proto.replay_s", "s", replay.wall_secs),
        metric("proto.cpu_s", "s", cpu_s),
        metric(
            "proto.worker_util_pct",
            "%",
            cpu_s / (replay.wall_secs * threads as f64).max(1e-12) * 100.0,
        ),
        metric("proto.self_s", "s", self_s),
        metric("proto.retries", "count", retries as f64),
        metric(
            "proto.retries_per_miss",
            "ratio",
            if report_misses > 0.0 {
                retries as f64 / report_misses
            } else {
                0.0
            },
        ),
        metric("proto.breaker_opens", "count", breaker_opens as f64),
        metric("proto.coalesced", "count", coalesced as f64),
        metric("proto.stale_served", "count", stale_served as f64),
        metric(
            "proto.fleet.failovers",
            "count",
            fleet.map_or(0.0, |f| f.failovers as f64),
        ),
        metric(
            "proto.fleet.peer_hits",
            "count",
            fleet.map_or(0.0, |f| f.peer_hits as f64),
        ),
        metric(
            "proto.fleet.unrouted",
            "count",
            fleet.map_or(0.0, |f| f.unrouted as f64),
        ),
        metric(
            "proto.fleet.node_imbalance",
            "ratio",
            fleet.map_or(0.0, |f| f.node_imbalance),
        ),
        metric(
            "proto.fleet.shield_hit_pct",
            "%",
            fleet.map_or(0.0, |f| f.shield_hit_pct),
        ),
        metric("obs.export_bytes", "bytes", export.bytes as f64),
        metric("obs.export_s", "s", export.export_secs),
        metric("obs.events", "count", export.events as f64),
        metric("obs.traces", "count", export.traces as f64),
        metric("obs.dropped", "count", export.dropped as f64),
        metric("reconcile_gap_pct", "%", reconcile_gap_pct),
        metric(
            "error_pct",
            "%",
            metrics::error_pct(replay.report.availability_pct()),
        ),
    ]
}

/// Per-name medians over several replays' metric lists (all lists name the
/// same metrics in the same order).
pub fn median_by_name(samples: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            metric(m.name, m.unit, metrics::median(&values))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_histogram_quantiles_are_within_a_sixteenth() {
        let mut h = CallHist::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        assert_eq!(h.total(), 10_000);
        assert_eq!(h.max_ns(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let got = h.quantile_ns(q) as f64;
            assert!(
                got <= exact && got >= exact * (1.0 - 1.0 / 16.0),
                "q{q}: {got}"
            );
        }
        assert_eq!(CallHist::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn medians_are_taken_per_metric() {
        let run = |a: f64, b: f64| vec![metric("a", "s", a), metric("b", "count", b)];
        let m = median_by_name(&[run(1.0, 7.0), run(3.0, 7.0), run(2.0, 7.0)]);
        assert_eq!(m, vec![metric("a", "s", 2.0), metric("b", "count", 7.0)]);
    }
}
