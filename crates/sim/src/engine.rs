//! The simulation driver.

use crate::metrics::{SeriesPoint, SimMetrics};
use crate::policy::{CachePolicy, Outcome};
use lhr_obs::series::SeriesAcc;
use lhr_obs::Obs;
use lhr_trace::{Request, Trace};
use std::time::Instant;

/// Simulator configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Number of leading requests excluded from the metrics. The policy
    /// still sees them (they warm the cache and, for learned policies, the
    /// first training window).
    pub warmup_requests: usize,
    /// When `Some(k)`, a [`SeriesPoint`] is recorded every `k` measured
    /// requests (Figures 7 / 13).
    pub series_every: Option<usize>,
}

lhr_util::impl_json!(struct SimConfig { warmup_requests, series_every });

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Policy name, copied for convenience.
    pub policy: String,
    /// Trace name, copied for convenience.
    pub trace: String,
    /// Aggregated counters (measured interval only).
    pub metrics: SimMetrics,
    /// Hit-ratio time series, if requested.
    pub series: Vec<SeriesPoint>,
    /// Wall-clock running time of the simulation in seconds (policy compute
    /// cost — the Figure 9 "running time" metric). This is the only
    /// wall-clock quantity in the engine and never feeds back into policy
    /// decisions.
    pub wall_secs: f64,
    /// Peak metadata overhead reported by the policy (bytes), sampled every
    /// 1 024 requests.
    pub peak_metadata_bytes: u64,
    /// Evictions performed by the policy over the whole trace.
    pub evictions: u64,
}

lhr_util::impl_json!(struct SimResult {
    policy,
    trace,
    metrics,
    series,
    wall_secs,
    peak_metadata_bytes,
    evictions,
});

impl SimResult {
    /// JSON with the wall-clock field zeroed: fixed-seed runs of the same
    /// trace and policy produce byte-identical output regardless of host
    /// speed or thread count (the determinism contract in ARCHITECTURE.md).
    pub fn stable_json(&self) -> String {
        use lhr_util::json::ToJson;
        let mut stable = self.clone();
        stable.wall_secs = 0.0;
        stable.to_json().to_string()
    }
}

/// Drives traces through policies.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
    obs: Option<Obs>,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config, obs: None }
    }

    /// Attaches an observability recorder: the run feeds it a windowed
    /// metric series, run counters, and a `sim.run` profiling span.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs `policy` over `trace`, returning metrics for the measured
    /// (post-warmup) portion.
    ///
    /// This is the one-shard case of [`crate::ShardedSimulator`]: the same
    /// [`SimBook`] step and finish, run inline on the caller's thread and
    /// booking straight into the attached recorder.
    pub fn run<P: CachePolicy + ?Sized>(&self, policy: &mut P, trace: &Trace) -> SimResult {
        let warmup = self.config.warmup_requests;
        let every = self.config.series_every.map(|k| k.max(1) as u64);
        let mut series = Vec::new();
        let mut hits_at_point = 0u64;
        let _run_span = self.obs.as_ref().map(|o| o.span("sim.run"));
        let mut book = SimBook::new(self.obs.clone());

        let wall_start = Instant::now();
        for (i, req) in trace.iter().enumerate() {
            let measured = book.step(policy, warmup, i, req);
            let Some(every) = every else { continue };
            let m = &book.metrics;
            if measured && m.requests.is_multiple_of(every) {
                series.push(SeriesPoint {
                    requests: m.requests,
                    time_secs: req.ts.as_secs_f64(),
                    cumulative_hit_ratio: m.object_hit_ratio(),
                    window_hit_ratio: (m.hits - hits_at_point) as f64 / every as f64,
                });
                hits_at_point = m.hits;
            }
        }
        let wall_secs = wall_start.elapsed().as_secs_f64();

        if let Some(obs) = &self.obs {
            // Metadata before the windows: a streaming sink writes its
            // meta line with the first window record.
            obs.set_meta("policy", policy.name());
            obs.set_meta("trace", trace.name.as_str());
        }
        book.finish(policy);
        SimResult {
            policy: policy.name().to_string(),
            series,
            ..close_run(trace, warmup, [&book], self.obs.as_ref(), wall_secs)
        }
    }
}

/// One shard's book of a simulation run: the measured metrics, the obs
/// window series and its recorder, peak metadata and the warmup eviction
/// count. [`Simulator::run`] keeps one for the whole trace;
/// [`crate::ShardedSimulator`] keeps one per shard.
pub(crate) struct SimBook {
    pub(crate) metrics: SimMetrics,
    /// The recorder this book's windows and counters go to.
    pub(crate) obs: Option<Obs>,
    acc: Option<SeriesAcc>,
    peak_meta: u64,
    /// Requests stepped so far, warmup included.
    seen: u64,
    /// The policy's evictions when its first measured request arrived.
    warmup_evictions: Option<u64>,
    /// The policy's evictions at [`SimBook::finish`].
    evictions: u64,
}

impl SimBook {
    pub(crate) fn new(obs: Option<Obs>) -> Self {
        SimBook {
            metrics: SimMetrics::default(),
            acc: obs.as_ref().map(|o| SeriesAcc::new(o.window())),
            obs,
            peak_meta: 0,
            seen: 0,
            warmup_evictions: None,
            evictions: 0,
        }
    }

    /// Hands request `i` of the trace to `policy` and books it. Returns
    /// whether the request is measured (`i >= warmup`).
    #[inline]
    pub(crate) fn step<P: CachePolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        warmup: usize,
        i: usize,
        req: &Request,
    ) -> bool {
        let measured = i >= warmup;
        if measured {
            if self.warmup_evictions.is_none() {
                self.warmup_evictions = Some(policy.evictions());
            }
            if let Some(acc) = self.acc.as_mut() {
                // Observed before `metrics` and the policy see the
                // request, so each flushed window's delta covers exactly
                // the requests and evictions it contained. The snapshot
                // (and its eviction-counter read through the trait object)
                // only runs at window edges.
                let metrics = &self.metrics;
                acc.observe(req.ts.as_micros(), || metrics.totals(policy.evictions()));
            }
        }
        let outcome = policy.handle(req);
        debug_assert!(
            policy.used_bytes() <= policy.capacity(),
            "policy {} overflowed: used {} > capacity {}",
            policy.name(),
            policy.used_bytes(),
            policy.capacity()
        );
        if self.seen.is_multiple_of(1024) {
            self.peak_meta = self.peak_meta.max(policy.metadata_overhead_bytes());
        }
        self.seen += 1;
        if !measured {
            return false;
        }
        self.metrics.requests += 1;
        self.metrics.bytes_requested += req.size as u128;
        match outcome {
            Outcome::Hit => {
                self.metrics.hits += 1;
                self.metrics.bytes_hit += req.size as u128;
            }
            Outcome::MissAdmitted => self.metrics.misses_admitted += 1,
            Outcome::MissBypassed => self.metrics.misses_bypassed += 1,
        }
        true
    }

    /// Closes the book after the last request: takes the final metadata
    /// sample and, when recording, pushes the window series and the
    /// per-shard `sim.*` counters into the book's recorder.
    pub(crate) fn finish<P: CachePolicy + ?Sized>(&mut self, policy: &P) {
        self.peak_meta = self.peak_meta.max(policy.metadata_overhead_bytes());
        self.evictions = policy.evictions();
        if let (Some(obs), Some(acc)) = (&self.obs, self.acc.take()) {
            obs.push_windows(acc.finish_observed(self.metrics.totals(self.evictions)));
            obs.counter_add("sim.requests", self.metrics.requests);
            obs.counter_add("sim.hits", self.metrics.hits);
            obs.counter_add("sim.evictions", self.evictions);
        }
    }
}

/// Merges finished books in shard order into a run's result (the caller
/// fills in the policy name and series), stamps the measured interval's
/// trace-time duration, and records the run-level counter and gauges into
/// `obs`.
pub(crate) fn close_run<'a>(
    trace: &Trace,
    warmup: usize,
    books: impl IntoIterator<Item = &'a SimBook>,
    obs: Option<&Obs>,
    wall_secs: f64,
) -> SimResult {
    let mut metrics = SimMetrics::default();
    let (mut peak_meta, mut evictions, mut warmup_evictions) = (0u64, 0u64, 0u64);
    for book in books {
        metrics.requests += book.metrics.requests;
        metrics.hits += book.metrics.hits;
        metrics.misses_admitted += book.metrics.misses_admitted;
        metrics.misses_bypassed += book.metrics.misses_bypassed;
        metrics.bytes_requested += book.metrics.bytes_requested;
        metrics.bytes_hit += book.metrics.bytes_hit;
        peak_meta += book.peak_meta;
        evictions += book.evictions;
        // A book that never saw a measured request was all warmup.
        warmup_evictions += book.warmup_evictions.unwrap_or(book.evictions);
    }
    let start_ts = trace
        .requests
        .get(warmup.min(trace.len().saturating_sub(1)))
        .map(|r| r.ts);
    if let (Some(start), Some(last)) = (start_ts, trace.requests.last()) {
        metrics.duration_secs = last.ts.saturating_sub(start).as_secs_f64();
    }

    if let Some(obs) = obs {
        if warmup_evictions > 0 {
            obs.counter_add("sim.warmup_evictions", warmup_evictions);
        }
        obs.gauge_set("sim.peak_metadata_bytes", peak_meta as f64);
        // The one wall-clock quantity; zeroed under the determinism
        // contract so fixed-seed exports stay byte-identical.
        obs.gauge_set(
            "sim.wall_secs",
            if obs.deterministic() { 0.0 } else { wall_secs },
        );
    }

    SimResult {
        policy: String::new(),
        trace: trace.name.clone(),
        metrics,
        series: Vec::new(),
        wall_secs,
        peak_metadata_bytes: peak_meta,
        evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CachePolicy, Outcome};
    use lhr_trace::{ObjectId, Request, Time};
    use std::collections::HashSet;

    /// Admit-all, never-evict test double with unbounded capacity.
    struct Infinite {
        cached: HashSet<ObjectId>,
        used: u64,
    }

    impl Infinite {
        fn new() -> Self {
            Infinite {
                cached: HashSet::new(),
                used: 0,
            }
        }
    }

    impl CachePolicy for Infinite {
        fn name(&self) -> &str {
            "infinite"
        }
        fn capacity(&self) -> u64 {
            u64::MAX
        }
        fn used_bytes(&self) -> u64 {
            self.used
        }
        fn contains(&self, id: ObjectId) -> bool {
            self.cached.contains(&id)
        }
        fn handle(&mut self, req: &Request) -> Outcome {
            if self.cached.contains(&req.id) {
                Outcome::Hit
            } else {
                self.cached.insert(req.id);
                self.used += req.size;
                Outcome::MissAdmitted
            }
        }
        fn metadata_overhead_bytes(&self) -> u64 {
            self.cached.len() as u64 * 8
        }
    }

    fn abab_trace(n: usize) -> Trace {
        let mut t = Trace::new("abab");
        for i in 0..n {
            t.push(Request::new(Time::from_secs(i as u64), (i % 2) as u64, 100));
        }
        t
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut p = Infinite::new();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &abab_trace(10));
        assert_eq!(r.metrics.requests, 10);
        assert_eq!(r.metrics.misses_admitted, 2);
        assert_eq!(r.metrics.hits, 8);
        assert_eq!(r.metrics.bytes_hit, 800);
        assert!((r.metrics.object_hit_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn warmup_excludes_leading_requests() {
        let mut p = Infinite::new();
        let cfg = SimConfig {
            warmup_requests: 2,
            series_every: None,
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        // Both objects enter during warmup; all 8 measured requests hit.
        assert_eq!(r.metrics.requests, 8);
        assert_eq!(r.metrics.hits, 8);
        assert!((r.metrics.object_hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_buckets_are_emitted() {
        let mut p = Infinite::new();
        let cfg = SimConfig {
            warmup_requests: 0,
            series_every: Some(5),
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(20));
        assert_eq!(r.series.len(), 4);
        // Hit ratio climbs to 1 as the two objects get cached.
        assert!(r.series[3].cumulative_hit_ratio > r.series[0].window_hit_ratio - 1e-12);
        assert_eq!(r.series.last().unwrap().requests, 20);
    }

    #[test]
    fn duration_covers_measured_interval() {
        let mut p = Infinite::new();
        let cfg = SimConfig {
            warmup_requests: 4,
            series_every: None,
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        // Measured interval runs from t=4s to t=9s.
        assert!((r.metrics.duration_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn peak_metadata_is_tracked() {
        let mut p = Infinite::new();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &abab_trace(10));
        assert_eq!(r.peak_metadata_bytes, 16);
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut p = Infinite::new();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &Trace::new("e"));
        assert_eq!(r.metrics.requests, 0);
        assert_eq!(r.metrics.object_hit_ratio(), 0.0);
    }

    #[test]
    fn obs_windows_reconcile_with_metrics() {
        use lhr_obs::{Obs, ObsConfig};
        let obs = Obs::new(ObsConfig {
            window: lhr_obs::ObsWindow::Requests(3),
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut p = Infinite::new();
        let cfg = SimConfig {
            warmup_requests: 2,
            series_every: None,
        };
        let r = Simulator::new(cfg)
            .with_obs(obs.clone())
            .run(&mut p, &abab_trace(10));
        let windows = obs.windows();
        assert_eq!(windows.len(), 3); // 8 measured requests / 3 per window
        assert_eq!(
            windows.iter().map(|w| w.requests).sum::<u64>(),
            r.metrics.requests
        );
        assert_eq!(windows.iter().map(|w| w.hits).sum::<u64>(), r.metrics.hits);
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"record\":\"meta\""), "{jsonl}");
        assert!(jsonl.contains("\"policy\":\"infinite\""), "{jsonl}");
        assert!(
            jsonl.contains("\"name\":\"sim.requests\",\"value\":8"),
            "{jsonl}"
        );
    }

    #[test]
    fn warmup_longer_than_trace_measures_nothing() {
        let mut p = Infinite::new();
        let cfg = SimConfig {
            warmup_requests: 100,
            series_every: None,
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        assert_eq!(r.metrics.requests, 0);
    }
}
