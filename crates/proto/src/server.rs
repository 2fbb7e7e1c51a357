//! The simulated CDN server, its resource report, and the serve ledger
//! every serving path books requests through.
//!
//! The serving path layers graceful degradation over the origin fetch (see
//! [`crate::fault`]): retries with exponential backoff and jitter, a
//! per-origin circuit breaker, RFC 5861 stale serving from expired-but-
//! cached copies, and coalescing of concurrent misses into one in-flight
//! fetch. With the default [`ServerConfig`] (no injected faults) the path
//! behaves exactly like the original infallible-origin model.
//!
//! Per-request accounting lives in one place, [`ServeLedger`]:
//! [`CdnServer::replay`] is the one-shard case of the sharded engine's
//! per-shard step, and the fleet books its shards through the same ledger.

use crate::fault::FaultConfig;
use crate::fault::{CircuitBreaker, FaultPlan, OriginOutcome, ResilienceConfig, RetryPolicy};
use crate::latency::{transfer_ms, LatencyModel};
use lhr_obs::series::{ReqSample, SeriesAcc};
use lhr_obs::trace::{TraceBuilder, TraceRecorder};
use lhr_obs::{Event, EventKind, LogHistogram, Obs};
use lhr_sim::shard::shard_seed;
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request, Time, Trace};
use lhr_util::hash::FastMap;
use lhr_util::json::{Json, ToJson};
use std::time::Instant;

/// One trace detail pair (keeps the hook-point call sites short).
#[inline]
pub(crate) fn kv(key: &str, value: impl ToJson) -> (String, Json) {
    (key.to_string(), value.to_json())
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The latency/throughput model.
    pub latency: LatencyModel,
    /// Content freshness lifetime in seconds (ATS §6.1 step 2); `None`
    /// disables freshness checks (the Caffeine in-memory setting).
    pub freshness_secs: Option<f64>,
    /// Probability that a revalidated content is still fresh (no refetch).
    /// Deterministic per (object, epoch) — no RNG on the serving path.
    pub revalidate_fresh_prob: f64,
    /// Leading requests excluded from the report (cache warmup).
    pub warmup_requests: usize,
    /// Record a hit-ratio series point every this many requests (Figures 7
    /// and 13); `None` disables.
    pub series_every: Option<usize>,
    /// The injected origin fault schedule (default: infallible origin).
    pub faults: FaultConfig,
    /// Retry / circuit-breaker / stale-serving / coalescing settings.
    pub resilience: ResilienceConfig,
    /// When true, wall-clock policy compute time is excluded from the
    /// latency and CPU model so two replays with the same fault seed
    /// produce byte-identical reports (see [`ServerReport::stable_json`]).
    pub deterministic: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            latency: LatencyModel::default(),
            freshness_secs: Some(3_600.0),
            revalidate_fresh_prob: 0.9,
            warmup_requests: 0,
            series_every: None,
            faults: FaultConfig::default(),
            resilience: ResilienceConfig::default(),
            deterministic: false,
        }
    }
}

/// Everything the prototype experiments report (Tables 2–4), plus the
/// degraded-mode counters of the fault-injected serving path.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Policy (prototype) name.
    pub name: String,
    /// Trace name.
    pub trace: String,
    /// Content (object) hit ratio, percent. Stale serves count as hits
    /// (they are served from the cache); error responses never do.
    pub content_hit_pct: f64,
    /// "max" experiment throughput in Gbps: total bytes served over the
    /// serving path's busy time.
    pub throughput_gbps: f64,
    /// Peak CPU percent: policy compute time over serving busy time.
    pub peak_cpu_pct: f64,
    /// Peak memory in GB: policy metadata + server bookkeeping.
    pub peak_mem_gb: f64,
    /// P90 user latency, ms ("normal" replay).
    pub p90_latency_ms: f64,
    /// P99 user latency, ms.
    pub p99_latency_ms: f64,
    /// Mean user latency, ms.
    pub mean_latency_ms: f64,
    /// Average WAN traffic in Gbps over the trace duration.
    pub wan_gbps: f64,
    /// Percent of measured requests served successfully (fresh, revalidated,
    /// coalesced, or stale — everything except error responses).
    pub availability_pct: f64,
    /// Measured requests that got an error response (origin unreachable and
    /// no servable stale copy).
    pub errors_served: u64,
    /// Measured requests served from an expired cached copy (stale-if-error
    /// + stale-while-revalidate).
    pub stale_served: u64,
    /// Origin fetch retries over the whole replay (including warmup).
    pub retries: u64,
    /// Measured misses that joined an already in-flight origin fetch
    /// instead of issuing their own.
    pub coalesced_fetches: u64,
    /// Circuit-breaker transitions to open over the whole replay.
    pub breaker_opens: u64,
    /// Circuit-breaker transitions back to closed over the whole replay.
    pub breaker_closes: u64,
    /// P90 latency over degraded requests only (retried, stale-served,
    /// coalesced, or errored), ms; 0 when nothing degraded.
    pub degraded_p90_latency_ms: f64,
    /// P99 latency over degraded requests only, ms.
    pub degraded_p99_latency_ms: f64,
    /// Hit-ratio time series (cumulative), if requested.
    pub series: Vec<(u64, f64)>,
    /// Wall-clock seconds the replay took (simulation cost, not modeled
    /// time).
    pub replay_wall_secs: f64,
}

lhr_util::impl_json!(struct ServerReport {
    name,
    trace,
    content_hit_pct,
    throughput_gbps,
    peak_cpu_pct,
    peak_mem_gb,
    p90_latency_ms,
    p99_latency_ms,
    mean_latency_ms,
    wan_gbps,
    availability_pct,
    errors_served,
    stale_served,
    retries,
    coalesced_fetches,
    breaker_opens,
    breaker_closes,
    degraded_p90_latency_ms,
    degraded_p99_latency_ms,
    series,
    replay_wall_secs,
});

impl ServerReport {
    /// JSON with the wall-clock field zeroed: with
    /// [`ServerConfig::deterministic`] set, two replays of the same trace,
    /// policy, and fault seed produce byte-identical output.
    pub fn stable_json(&self) -> String {
        let mut stable = self.clone();
        stable.replay_wall_secs = 0.0;
        stable.to_json().to_string()
    }
}

/// Result of one hardened origin fetch (the retry chain as a whole).
struct FetchResult {
    /// Whether any attempt ultimately succeeded.
    ok: bool,
    /// Milliseconds burned before the successful transfer started (or
    /// before giving up): error RTTs, timeouts, and retry backoffs.
    delay_ms: f64,
    /// Rate multiplier of the successful attempt (1.0 nominal).
    rate_scale: f64,
    /// False when the circuit breaker failed the fetch fast without
    /// contacting the origin.
    attempted: bool,
}

/// Runs one fetch through the shard's breaker and the retry chain,
/// counting retries in its ledger. When the request is sampled (`tb`),
/// each attempt becomes an `origin_fetch` trace step and a breaker
/// fast-fail a `breaker{state:open}` step; the trace clock advances by the
/// same error-RTT / timeout / backoff components that build `delay_ms`.
fn origin_fetch(
    lat: &LatencyModel,
    retry: &RetryPolicy,
    st: &mut ShardState,
    now: Time,
    mut tb: Option<&mut TraceBuilder>,
) -> FetchResult {
    if !st.breaker.allow(now) {
        if let Some(tb) = tb {
            tb.push("breaker", 0, vec![kv("state", "open")]);
        }
        return FetchResult {
            ok: false,
            delay_ms: 0.0,
            rate_scale: 1.0,
            attempted: false,
        };
    }
    let mut delay_ms = 0.0;
    let mut attempt = 0u32;
    loop {
        // (outcome name, Some(rate_scale) on success, ms this attempt cost)
        let (name, done, step_ms) = match st.plan.outcome(now) {
            OriginOutcome::Success => ("success", Some(1.0), 0.0),
            OriginOutcome::Slow { rate_scale } => ("slow", Some(rate_scale), 0.0),
            OriginOutcome::Error => ("error", None, lat.origin_rtt_ms),
            OriginOutcome::Timeout => ("timeout", None, retry.timeout_ms),
        };
        delay_ms += step_ms;
        let give_up = done.is_none() && attempt >= retry.max_retries;
        let backoff_ms = if done.is_none() && !give_up {
            retry.backoff_ms(attempt, st.plan.jitter())
        } else {
            0.0
        };
        if let Some(tb) = tb.as_deref_mut() {
            tb.advance(step_ms);
            let mut detail = vec![kv("attempt", attempt as u64 + 1), kv("outcome", name)];
            if backoff_ms > 0.0 {
                detail.push(kv("backoff_ms", backoff_ms));
            }
            tb.push("origin_fetch", 0, detail);
            tb.advance(backoff_ms);
        }
        if let Some(rate_scale) = done {
            st.breaker.record_success();
            return FetchResult {
                ok: true,
                delay_ms,
                rate_scale,
                attempted: true,
            };
        }
        if give_up {
            st.breaker.record_failure(now);
            return FetchResult {
                ok: false,
                delay_ms,
                rate_scale: 1.0,
                attempted: true,
            };
        }
        delay_ms += backoff_ms;
        st.ledger.retries += 1;
        attempt += 1;
    }
}

/// Both latency percentiles via selection instead of a full sort —
/// identical values (the k-th order statistic is unique under
/// `total_cmp`), O(n): select p90, then select p99 inside the ≥p90 tail
/// the first selection partitioned off. NaN latencies (a degenerate
/// latency model) still order last and degrade the percentile instead of
/// panicking the whole replay.
fn pct2(values: &mut [f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len();
    let i90 = ((n as f64 * 0.90).ceil() as usize).clamp(1, n) - 1;
    let i99 = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    let (_, &mut p90, tail) = values.select_nth_unstable_by(i90, f64::total_cmp);
    let p99 = if i99 > i90 {
        *tail.select_nth_unstable_by(i99 - i90 - 1, f64::total_cmp).1
    } else {
        p90
    };
    (p90, p99)
}

/// Emits the injected outage schedule up front, so the event stream
/// explains any availability dip that follows.
pub(crate) fn emit_outages(obs: &Obs, faults: &FaultConfig) {
    for &(start, end) in &faults.outages {
        obs.emit(Event::new(start, EventKind::OutageStart).field("until_secs", end));
        obs.emit(Event::new(end, EventKind::OutageEnd));
    }
}

/// Sets the `server.replay_wall_secs` gauge (zero in deterministic
/// exports).
pub(crate) fn set_wall_gauge(obs: &Obs, wall_secs: f64) {
    let secs = if obs.deterministic() { 0.0 } else { wall_secs };
    obs.gauge_set("server.replay_wall_secs", secs);
}

/// `config` with shard `shard`'s origin fault seed: per-shard fault plans
/// are a pure function of (base seed, shard index).
pub(crate) fn shard_config(config: &ServerConfig, shard: usize) -> ServerConfig {
    let mut config = config.clone();
    config.faults.seed = shard_seed(config.faults.seed, shard);
    config
}

/// Latency slots to preallocate per shard: its share of the measured
/// requests plus slack for skew, so steady-state replay never reallocates
/// mid-push.
pub(crate) fn shard_latency_capacity(measured: usize, n_shards: usize) -> usize {
    measured / n_shards + measured / (n_shards * 4) + 16
}

/// Per-request accounting of one serving shard: the report counters, the
/// latency vectors, and — with a recorder attached — the obs window
/// series, the latency histogram, breaker-transition and degraded-serve
/// events, and sampled request traces.
///
/// [`CdnServer::replay`] books into one ledger; the sharded engine and
/// the fleet book into one per shard, then fold them in fixed shard order
/// with [`Self::absorb`], so float sums associate identically at any
/// thread count.
#[derive(Default)]
pub(crate) struct ServeLedger {
    /// Requests booked, warmup included.
    pub(crate) seen: u64,
    /// Measured (post-warmup) requests.
    pub(crate) measured: u64,
    hits: u64,
    pub(crate) errors: u64,
    stale_served: u64,
    coalesced: u64,
    /// Origin fetch retries, warmup included.
    retries: u64,
    /// Timed policy compute, warmup included (zero when deterministic).
    compute_ms: f64,
    busy_ms: f64,
    pub(crate) bytes_served: u128,
    pub(crate) wan_bytes: u128,
    /// Peak policy metadata, sampled on the [`Self::tick`] cadence.
    peak_meta: u64,
    /// Breaker transitions, taken from the breaker at [`Self::flush`].
    breaker_opens: u64,
    breaker_closes: u64,
    latencies: Vec<f64>,
    /// Latencies of degraded requests; `None` on a path that reports no
    /// degraded percentiles (the fleet).
    degraded: Option<Vec<f64>>,
    obs: Option<Obs>,
    tracer: Option<TraceRecorder>,
    acc: Option<SeriesAcc>,
    lat_hist: LogHistogram,
    /// Hand each window to the recorder as it closes (the single server,
    /// whose recorder may stream) instead of all at [`Self::flush`].
    push_on_close: bool,
    last_evictions: u64,
    last_opens: u64,
    last_closes: u64,
}

impl ServeLedger {
    /// An empty ledger booking into `obs` (if any), with room for
    /// `expected` measured requests.
    pub(crate) fn new(obs: Option<Obs>, expected: usize) -> Self {
        ServeLedger {
            latencies: Vec::with_capacity(expected),
            degraded: Some(Vec::new()),
            tracer: obs.as_ref().map(|o| o.trace_recorder()),
            acc: obs.as_ref().map(|o| SeriesAcc::new(o.window())),
            obs,
            ..ServeLedger::default()
        }
    }

    /// Pushes windows to the recorder as they close.
    pub(crate) fn push_on_close(mut self) -> Self {
        self.push_on_close = true;
        self
    }

    /// Keeps no degraded-latency vector.
    pub(crate) fn without_degraded(mut self) -> Self {
        self.degraded = None;
        self
    }

    /// The shard recorder, until [`Self::flush`] hands it back.
    pub(crate) fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Starts the trace of request `i` (global trace index) if it is
    /// measured and sampled. Sampling is a pure function of `(object,
    /// trace time)`, so the sampled set does not depend on how requests
    /// were sharded; warmup requests are never sampled (they have no
    /// metric window to anchor an exemplar to).
    pub(crate) fn begin_trace(
        &self,
        measured: bool,
        i: usize,
        req: &Request,
    ) -> Option<TraceBuilder> {
        match &self.tracer {
            Some(t) if measured => t.begin(i as u64, req.id, req.ts.as_micros(), req.size),
            _ => None,
        }
    }

    /// Counts one request of the shard; true on the first and every
    /// 512th after it — the cadence at which a serving path samples
    /// metadata ([`Self::sample_meta`]) and prunes expired bookkeeping.
    pub(crate) fn tick(&mut self) -> bool {
        self.seen += 1;
        self.seen % 512 == 1
    }

    /// Folds one reading of the policies' metadata bytes into the peak.
    pub(crate) fn sample_meta(&mut self, meta_bytes: u64) {
        self.peak_meta = self.peak_meta.max(meta_bytes);
    }

    /// Books one served request. Breaker transitions are emitted for every
    /// request (the breaker carries warmup state into the measured
    /// interval); the rest only for measured ones. `evictions` reads the
    /// policy's eviction counter and is only called with a recorder
    /// attached; its per-request delta is credited to the open window.
    pub(crate) fn record(
        &mut self,
        req: &Request,
        measured: bool,
        served: &ServeOutcome,
        breaker: &CircuitBreaker,
        evictions: impl FnOnce() -> u64,
        tb: Option<TraceBuilder>,
    ) {
        let evict_delta = if self.acc.is_some() {
            let cur = evictions();
            let delta = cur.saturating_sub(self.last_evictions);
            self.last_evictions = cur;
            delta
        } else {
            0
        };
        let t = req.ts.as_secs_f64();
        if let Some(obs) = &self.obs {
            let opens = breaker.opens();
            if opens > self.last_opens {
                obs.emit(Event::new(t, EventKind::BreakerOpen).field("opens", opens));
                self.last_opens = opens;
            }
            let closes = breaker.closes();
            if closes > self.last_closes {
                obs.emit(Event::new(t, EventKind::BreakerClose).field("closes", closes));
                self.last_closes = closes;
            }
        }
        if !measured {
            return;
        }
        self.measured += 1;
        self.bytes_served += req.size as u128;
        self.wan_bytes += served.wan as u128;
        self.busy_ms += served.service_ms;
        self.hits += served.hit as u64;
        self.errors += served.error as u64;
        self.stale_served += served.stale as u64;
        self.coalesced += served.coalesced as u64;
        self.latencies.push(served.latency_ms);
        if served.degraded {
            if let Some(degraded) = &mut self.degraded {
                degraded.push(served.latency_ms);
            }
        }
        let (Some(acc), Some(obs)) = (self.acc.as_mut(), &self.obs) else {
            return;
        };
        let closed = acc.on_request(ReqSample {
            t_micros: req.ts.as_micros(),
            bytes: req.size,
            hit: served.hit,
            admitted: false,
            bypassed: false,
            error: served.error,
            stale: served.stale,
            coalesced: served.coalesced,
        });
        acc.on_evictions(evict_delta);
        // Before any drain below: a request that closed its window links
        // to that window.
        let window = acc.last_index();
        if served.latency_ms.is_finite() && served.latency_ms >= 0.0 {
            self.lat_hist.record((served.latency_ms * 1e3) as u64);
        }
        if closed && self.push_on_close {
            // Boundary-only, after the eviction credit that may still land
            // on the just-closed window.
            obs.push_windows(acc.take_done());
        }
        if served.stale {
            obs.emit(Event::new(t, EventKind::StaleServe).field("id", req.id));
        }
        if served.error {
            obs.emit(Event::new(t, EventKind::ErrorServe).field("id", req.id));
        }
        if served.coalesced {
            obs.emit(Event::new(t, EventKind::Coalesce).field("id", req.id));
        }
        if let Some(tb) = tb {
            obs.push_trace(tb.finish(served.latency_ms, window));
        }
    }

    /// Closes the shard's books once its requests are exhausted: takes the
    /// final metadata sample and the breaker's transition counts, then
    /// flushes the windows, the `{prefix}.requests` / `.stale_served` /
    /// `.coalesced` / `.retries` counters and the `{prefix}.latency_us`
    /// histogram into the recorder and hands it back (for path-specific
    /// counters and the shard merge).
    pub(crate) fn flush(
        &mut self,
        prefix: &str,
        breaker: &CircuitBreaker,
        meta_bytes: u64,
    ) -> Option<Obs> {
        self.sample_meta(meta_bytes);
        self.breaker_opens = breaker.opens();
        self.breaker_closes = breaker.closes();
        let obs = self.obs.take()?;
        if let Some(acc) = self.acc.take() {
            obs.push_windows(acc.finish());
        }
        obs.counter_add(&format!("{prefix}.requests"), self.measured);
        obs.counter_add(&format!("{prefix}.stale_served"), self.stale_served);
        obs.counter_add(&format!("{prefix}.coalesced"), self.coalesced);
        obs.counter_add(&format!("{prefix}.retries"), self.retries);
        if self.lat_hist.total() > 0 {
            obs.hist_merge(&format!("{prefix}.latency_us"), &self.lat_hist);
        }
        Some(obs)
    }

    /// Folds a flushed shard ledger into this one; call in fixed shard
    /// order. Latencies are concatenated — the percentiles are order
    /// statistics, so the concatenation order is irrelevant to them.
    pub(crate) fn absorb(&mut self, shard: &mut ServeLedger) {
        self.seen += shard.seen;
        self.measured += shard.measured;
        self.hits += shard.hits;
        self.errors += shard.errors;
        self.stale_served += shard.stale_served;
        self.coalesced += shard.coalesced;
        self.retries += shard.retries;
        self.compute_ms += shard.compute_ms;
        self.busy_ms += shard.busy_ms;
        self.bytes_served += shard.bytes_served;
        self.wan_bytes += shard.wan_bytes;
        self.peak_meta += shard.peak_meta;
        self.breaker_opens += shard.breaker_opens;
        self.breaker_closes += shard.breaker_closes;
        self.latencies.append(&mut shard.latencies);
        if let (Some(all), Some(degraded)) = (&mut self.degraded, &mut shard.degraded) {
            all.append(degraded);
        }
    }

    /// The report of a flushed (or merged) ledger over `trace`.
    pub(crate) fn report(
        &mut self,
        name: String,
        trace: &Trace,
        series: Vec<(u64, f64)>,
        replay_wall_secs: f64,
    ) -> ServerReport {
        let (p90_latency_ms, p99_latency_ms) = pct2(&mut self.latencies);
        let (degraded_p90_latency_ms, degraded_p99_latency_ms) =
            pct2(self.degraded.as_deref_mut().unwrap_or_default());
        let mean_latency_ms = if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        };
        let duration = trace.duration().as_secs_f64().max(1e-9);
        let measured = self.measured;
        ServerReport {
            name,
            trace: trace.name.clone(),
            content_hit_pct: if measured == 0 {
                0.0
            } else {
                self.hits as f64 / measured as f64 * 100.0
            },
            throughput_gbps: if self.busy_ms <= 0.0 {
                0.0
            } else {
                self.bytes_served as f64 * 8.0 / (self.busy_ms / 1e3) / 1e9
            },
            peak_cpu_pct: if self.busy_ms <= 0.0 {
                0.0
            } else {
                (self.compute_ms / self.busy_ms * 100.0).min(100.0)
            },
            peak_mem_gb: self.peak_meta as f64 / 1e9,
            p90_latency_ms,
            p99_latency_ms,
            mean_latency_ms,
            wan_gbps: self.wan_bytes as f64 * 8.0 / duration / 1e9,
            availability_pct: if measured == 0 {
                100.0
            } else {
                (measured - self.errors) as f64 / measured as f64 * 100.0
            },
            errors_served: self.errors,
            stale_served: self.stale_served,
            retries: self.retries,
            coalesced_fetches: self.coalesced,
            breaker_opens: self.breaker_opens,
            breaker_closes: self.breaker_closes,
            degraded_p90_latency_ms,
            degraded_p99_latency_ms,
            series,
            replay_wall_secs,
        }
    }
}

/// One shard's serving state besides the cache itself: the origin's fault
/// plan and circuit breaker, the in-flight fetch window concurrent misses
/// coalesce into, and the ledger. [`CdnServer::replay`] runs one; the
/// sharded engine and the fleet's shield run one per shard.
pub(crate) struct ShardState {
    plan: FaultPlan,
    pub(crate) breaker: CircuitBreaker,
    /// Object → (fetch completion time, fetch succeeded). Shard-local by
    /// construction: every request for an object reaches the same shard,
    /// so a miss can only join a fetch its own shard recorded.
    in_flight: FastMap<ObjectId, (Time, bool)>,
    pub(crate) ledger: ServeLedger,
}

impl ShardState {
    /// Fresh origin state for `config`'s fault plan and breaker.
    pub(crate) fn new(config: &ServerConfig, ledger: ServeLedger) -> Self {
        ShardState {
            plan: FaultPlan::new(config.faults.clone()),
            breaker: CircuitBreaker::new(config.resilience.breaker.clone()),
            in_flight: FastMap::default(),
            ledger,
        }
    }

    /// Drops the in-flight windows of fetches that have landed by `now`.
    pub(crate) fn expire_fetches(&mut self, now: Time) {
        self.in_flight.retain(|_, &mut (done_at, _)| now < done_at);
    }
}

/// A CDN server wrapping a cache policy.
pub struct CdnServer<P: CachePolicy> {
    policy: P,
    config: ServerConfig,
    /// Admission time of cached contents (for freshness).
    admitted_at: FastMap<ObjectId, Time>,
    obs: Option<Obs>,
}

/// How one request was ultimately served (bookkeeping for the report).
#[derive(Default)]
pub(crate) struct ServeOutcome {
    pub(crate) latency_ms: f64,
    pub(crate) service_ms: f64,
    pub(crate) wan: u64,
    pub(crate) hit: bool,
    pub(crate) stale: bool,
    pub(crate) error: bool,
    pub(crate) coalesced: bool,
    pub(crate) degraded: bool,
}

impl<P: CachePolicy> CdnServer<P> {
    /// Wraps `policy` in a server with the given configuration.
    pub fn new(policy: P, config: ServerConfig) -> Self {
        CdnServer {
            policy,
            config,
            admitted_at: FastMap::default(),
            obs: None,
        }
    }

    /// Attaches an observability recorder: the replay feeds it a windowed
    /// metric series, a latency histogram (µs), circuit-breaker / outage /
    /// stale-serve / coalescing events, and a `server.replay` span.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Access to the wrapped policy (e.g. to read LHR stats afterwards).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Opportunistic cleanup of freshness entries for evicted contents
    /// (bounded bookkeeping; called every few hundred requests).
    pub(crate) fn prune_admitted(&mut self) {
        if self.admitted_at.len() > 4 * 1024 * 1024 {
            let policy = &self.policy;
            self.admitted_at.retain(|&id, _| policy.contains(id));
        }
    }

    /// Replays `trace` through the serving path, producing the full report.
    pub fn replay(&mut self, trace: &Trace) -> ServerReport {
        let obs = self.obs.clone();
        let _replay_span = obs.as_ref().map(|o| o.span("server.replay"));
        if let Some(obs) = &obs {
            // Run metadata goes on before the first request: a streaming
            // sink ([`Obs::stream_to`]) writes its meta line when the first
            // window closes, and the line must already be final.
            obs.set_meta("policy", self.policy.name());
            obs.set_meta("trace", trace.name.as_str());
            emit_outages(obs, &self.config.faults);
        }
        // Windows go to the recorder as they close, so a streaming sink
        // writes them while the replay runs.
        let ledger = ServeLedger::new(obs, trace.len()).push_on_close();
        let mut st = ShardState::new(&self.config, ledger);
        let warmup = self.config.warmup_requests;
        let mut series = Vec::new();
        let wall = Instant::now();

        for (i, req) in trace.iter().enumerate() {
            self.step(&mut st, warmup, i, req);
            if let Some(every) = self.config.series_every {
                let (measured, hits) = (st.ledger.measured, st.ledger.hits);
                if i >= warmup && measured.is_multiple_of(every as u64) {
                    series.push((measured, hits as f64 / measured as f64));
                }
            }
        }

        let wall_secs = wall.elapsed().as_secs_f64();
        if let Some(obs) = self.finish(&mut st) {
            set_wall_gauge(&obs, wall_secs);
        }
        let name = self.policy.name().to_string();
        st.ledger.report(name, trace, series, wall_secs)
    }

    /// Serves request `i` (global trace index) of a shard's subsequence
    /// and books it in the shard's ledger. [`Self::replay`] is the
    /// one-shard case; the sharded engine runs one step per request on the
    /// shard that owns it.
    pub(crate) fn step(&mut self, st: &mut ShardState, warmup: usize, i: usize, req: &Request) {
        let measured = i >= warmup;
        let mut tb = st.ledger.begin_trace(measured, i, req);
        let served = self.serve(req, st, tb.as_mut());
        if st.ledger.tick() {
            st.ledger.sample_meta(self.policy.metadata_overhead_bytes());
            // Freshness entries of evicted contents and expired in-flight
            // windows.
            self.prune_admitted();
            st.expire_fetches(req.ts);
        }
        let policy = &self.policy;
        st.ledger.record(
            req,
            measured,
            &served,
            &st.breaker,
            || policy.evictions(),
            tb,
        );
    }

    /// Flushes a shard's ledger with the server's counters and hands back
    /// its recorder.
    pub(crate) fn finish(&self, st: &mut ShardState) -> Option<Obs> {
        let meta = self.policy.metadata_overhead_bytes();
        let obs = st.ledger.flush("server", &st.breaker, meta)?;
        obs.counter_add("server.hits", st.ledger.hits);
        obs.counter_add("server.errors", st.ledger.errors);
        Some(obs)
    }

    /// Runs the policy on `req`, timing the call (zeroed in deterministic
    /// mode) and accumulating total compute.
    fn handle_timed(&mut self, req: &Request, compute_total: &mut f64) -> (Outcome, f64) {
        // In deterministic mode the measurement is zeroed anyway, so skip
        // the clock_gettime pair entirely — at engine line rates the vDSO
        // calls alone were ~10% of the serve path.
        let t0 = (!self.config.deterministic).then(Instant::now);
        let outcome = self.policy.handle(req);
        let compute_ms = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e3);
        *compute_total += compute_ms;
        (outcome, compute_ms)
    }

    /// [`CachePolicy::hit_check`] with the same timing contract as
    /// [`Self::handle_timed`]. A `None` (object absent, policy not
    /// consulted) costs one probe and is not timed — matching the old
    /// untimed `contains` pre-check.
    fn hit_check_timed(
        &mut self,
        req: &Request,
        compute_total: &mut f64,
    ) -> Option<(Outcome, f64)> {
        let t0 = (!self.config.deterministic).then(Instant::now);
        let outcome = self.policy.hit_check(req)?;
        let compute_ms = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e3);
        *compute_total += compute_ms;
        Some((outcome, compute_ms))
    }

    /// Serves one request through the hardened path against shard state
    /// `st` (fault plan, breaker, in-flight window; retries and policy
    /// compute are counted in its ledger).
    pub(crate) fn serve(
        &mut self,
        req: &Request,
        st: &mut ShardState,
        mut tb: Option<&mut TraceBuilder>,
    ) -> ServeOutcome {
        let lat = self.config.latency.clone();
        let res = self.config.resilience.clone();
        let now = req.ts;

        // Fused present-check + hit processing: one table probe on the hot
        // path instead of `contains` followed by `handle`.
        if let Some((outcome, compute_ms)) = self.hit_check_timed(req, &mut st.ledger.compute_ms) {
            if outcome.is_hit() {
                if let Some(tb) = tb.as_deref_mut() {
                    tb.push("edge_lookup", req.size, vec![kv("hit", true)]);
                }
                return self.serve_cached(req, compute_ms, &lat, &res, st, tb);
            }
            // Contract violation (the policy reported the object present but
            // then missed): fall through to the miss path; the policy has
            // already decided admission, so only the origin side remains.
            if let Some(tb) = tb.as_deref_mut() {
                tb.push("edge_lookup", req.size, vec![kv("hit", false)]);
            }
            return self.serve_miss_fetch(req, Some(compute_ms), &lat, &res, st, tb);
        }
        if let Some(tb) = tb.as_deref_mut() {
            tb.push("edge_lookup", req.size, vec![kv("hit", false)]);
        }

        // Miss. A fetch for this object may already be in flight.
        if res.coalesce {
            if let Some(&(done_at, ok)) = st.in_flight.get(&req.id) {
                if now < done_at {
                    let remaining_ms = (done_at - now).as_secs_f64() * 1e3;
                    if let Some(tb) = tb.as_deref_mut() {
                        tb.advance(remaining_ms);
                        tb.push(
                            "coalesce",
                            req.size,
                            vec![kv("leader", false), kv("ok", ok)],
                        );
                    }
                    if ok {
                        // Join the leader's fetch: the body arrives when the
                        // fetch completes, then is served over the edge link.
                        // The access still informs the policy's admission
                        // stats, but no second origin fetch happens.
                        let (outcome, compute_ms) =
                            self.handle_timed(req, &mut st.ledger.compute_ms);
                        if matches!(outcome, Outcome::MissAdmitted | Outcome::Hit) {
                            self.admitted_at.insert(req.id, now);
                        }
                        return ServeOutcome {
                            latency_ms: remaining_ms + lat.hit_latency_ms(req.size, compute_ms),
                            service_ms: lat.service_ms(req.size, true, compute_ms),
                            coalesced: true,
                            degraded: true,
                            ..ServeOutcome::default()
                        };
                    }
                    // Sharing a fetch that is going to fail: the follower
                    // learns the failure when the leader does.
                    return ServeOutcome {
                        latency_ms: remaining_ms + lat.error_latency_ms(0.0),
                        error: true,
                        coalesced: true,
                        degraded: true,
                        ..ServeOutcome::default()
                    };
                }
                st.in_flight.remove(&req.id);
            }
        }

        self.serve_miss_fetch(req, None, &lat, &res, st, tb)
    }

    /// The cached-object path: freshness check, revalidation (synchronous
    /// or stale-while-revalidate), stale-if-error fallback.
    fn serve_cached(
        &mut self,
        req: &Request,
        compute_ms: f64,
        lat: &LatencyModel,
        res: &ResilienceConfig,
        st: &mut ShardState,
        mut tb: Option<&mut TraceBuilder>,
    ) -> ServeOutcome {
        let fresh_limit = self.config.freshness_secs;
        let now = req.ts;
        let age_past_fresh = match (fresh_limit, self.admitted_at.get(&req.id)) {
            (Some(limit), Some(&admitted)) => {
                let age = now.saturating_sub(admitted).as_secs_f64();
                if age > limit {
                    Some(age - limit)
                } else {
                    None
                }
            }
            _ => None,
        };

        let ok_hit = |latency_ms: f64, service_ms: f64, wan: u64, stale: bool, degraded: bool| {
            ServeOutcome {
                latency_ms,
                service_ms,
                wan,
                hit: true,
                stale,
                degraded,
                ..ServeOutcome::default()
            }
        };

        let Some(age_past_fresh) = age_past_fresh else {
            // Fresh hit: the fast path.
            return ok_hit(
                lat.hit_latency_ms(req.size, compute_ms),
                lat.service_ms(req.size, true, compute_ms),
                0,
                false,
                false,
            );
        };

        // Stale-while-revalidate: serve the expired copy immediately and
        // revalidate off the critical path.
        if res.stale_while_revalidate_secs > 0.0
            && age_past_fresh <= res.stale_while_revalidate_secs
        {
            if let Some(tb) = tb.as_deref_mut() {
                tb.push(
                    "stale_serve",
                    req.size,
                    vec![kv("reason", "while_revalidate")],
                );
            }
            // The revalidation is off the user path — its origin_fetch steps
            // still land on the trace (they explain WAN traffic), but the
            // trace clock has already credited the user-visible hit latency.
            let fetch = origin_fetch(lat, &res.retry, st, now, tb);
            let mut wan = 0u64;
            if fetch.ok {
                let changed = !self.revalidation_fresh(req.id, now);
                self.admitted_at.insert(req.id, now);
                if changed {
                    wan = req.size;
                }
            }
            // Background failure leaves the copy stale; a later request
            // will retry (or fall back to stale-if-error).
            return ok_hit(
                lat.hit_latency_ms(req.size, compute_ms),
                lat.service_ms(req.size, true, compute_ms),
                wan,
                true,
                true,
            );
        }

        // Synchronous revalidation with the origin.
        let fetch = origin_fetch(lat, &res.retry, st, now, tb.as_deref_mut());
        if fetch.ok {
            let still_fresh = self.revalidation_fresh(req.id, now);
            self.admitted_at.insert(req.id, now);
            let degraded = fetch.delay_ms > 0.0 || fetch.rate_scale < 1.0;
            if still_fresh {
                return ok_hit(
                    lat.revalidate_latency_ms(req.size, compute_ms) + fetch.delay_ms,
                    lat.service_ms(req.size, true, compute_ms),
                    0,
                    false,
                    degraded,
                );
            }
            // Changed at origin: refetch (WAN traffic) and deliver.
            return ok_hit(
                lat.miss_latency_scaled_ms(req.size, compute_ms, fetch.rate_scale) + fetch.delay_ms,
                transfer_ms(req.size, lat.origin_gbps * fetch.rate_scale.max(1e-6)) + compute_ms,
                req.size,
                false,
                degraded,
            );
        }

        // Revalidation failed: stale-if-error if the copy is still within
        // its stale window, otherwise an error response.
        if res.stale_if_error_secs > 0.0 && age_past_fresh <= res.stale_if_error_secs {
            if let Some(tb) = tb {
                tb.push("stale_serve", req.size, vec![kv("reason", "if_error")]);
            }
            return ok_hit(
                lat.hit_latency_ms(req.size, compute_ms) + fetch.delay_ms,
                lat.service_ms(req.size, true, compute_ms),
                0,
                true,
                true,
            );
        }
        ServeOutcome {
            latency_ms: lat.error_latency_ms(compute_ms) + fetch.delay_ms,
            service_ms: compute_ms,
            error: true,
            degraded: true,
            ..ServeOutcome::default()
        }
    }

    /// The miss path: hardened origin fetch, then admission on success.
    /// `handled` carries the policy compute time when the policy already
    /// handled the request (the contains/handle contract-violation
    /// fallback); `None` runs the policy here.
    fn serve_miss_fetch(
        &mut self,
        req: &Request,
        handled: Option<f64>,
        lat: &LatencyModel,
        res: &ResilienceConfig,
        st: &mut ShardState,
        mut tb: Option<&mut TraceBuilder>,
    ) -> ServeOutcome {
        let now = req.ts;
        let pre_compute_ms = handled.unwrap_or(0.0);
        let fetch = origin_fetch(lat, &res.retry, st, now, tb.as_deref_mut());
        if fetch.ok {
            let compute_ms = match handled {
                None => {
                    let (outcome, compute_ms) = self.handle_timed(req, &mut st.ledger.compute_ms);
                    if matches!(outcome, Outcome::MissAdmitted) {
                        self.admitted_at.insert(req.id, now);
                    }
                    compute_ms
                }
                Some(compute_ms) => {
                    self.admitted_at.insert(req.id, now);
                    compute_ms
                }
            };
            if res.coalesce {
                let fetch_ms = fetch.delay_ms + lat.origin_fetch_ms(req.size, fetch.rate_scale);
                let done_at = now + Time::from_secs_f64(fetch_ms / 1e3);
                st.in_flight.insert(req.id, (done_at, true));
                if let Some(tb) = tb {
                    tb.push("coalesce", req.size, vec![kv("leader", true)]);
                }
            }
            return ServeOutcome {
                latency_ms: lat.miss_latency_scaled_ms(req.size, compute_ms, fetch.rate_scale)
                    + fetch.delay_ms,
                service_ms: transfer_ms(req.size, lat.origin_gbps * fetch.rate_scale.max(1e-6))
                    + compute_ms,
                wan: req.size,
                degraded: fetch.delay_ms > 0.0 || fetch.rate_scale < 1.0,
                ..ServeOutcome::default()
            };
        }
        // Fetch failed and there is no cached copy to fall back on.
        if res.coalesce && fetch.attempted && fetch.delay_ms > 0.0 {
            let done_at = now + Time::from_secs_f64(fetch.delay_ms / 1e3);
            st.in_flight.insert(req.id, (done_at, false));
        }
        ServeOutcome {
            latency_ms: lat.error_latency_ms(pre_compute_ms) + fetch.delay_ms,
            service_ms: pre_compute_ms,
            error: true,
            degraded: true,
            ..ServeOutcome::default()
        }
    }

    /// Deterministic per-(object, freshness-epoch) draw of whether a
    /// revalidation found the content unchanged.
    fn revalidation_fresh(&self, id: ObjectId, now: Time) -> bool {
        let epoch =
            (now.as_secs_f64() / self.config.freshness_secs.unwrap_or(f64::INFINITY)) as u64;
        pseudo_uniform(id, epoch) < self.config.revalidate_fresh_prob
    }
}

/// Deterministic pseudo-uniform draw in [0, 1) from (id, epoch).
fn pseudo_uniform(id: ObjectId, epoch: u64) -> f64 {
    let mut x = id ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_policies::Lru;

    fn trace(n: usize, objects: u64, size: u64) -> Trace {
        let mut t = Trace::new("t");
        for i in 0..n {
            t.push(Request::new(
                Time::from_secs(i as u64),
                i as u64 % objects,
                size,
            ));
        }
        t
    }

    #[test]
    fn report_counts_hits_and_wan() {
        let mut server = CdnServer::new(
            Lru::new(10 << 20),
            ServerConfig {
                freshness_secs: None,
                ..ServerConfig::default()
            },
        );
        let report = server.replay(&trace(100, 2, 1 << 20));
        assert!((report.content_hit_pct - 98.0).abs() < 1e-9);
        // WAN carried exactly the two compulsory misses.
        let wan_bytes = report.wan_gbps * 99.0 * 1e9 / 8.0;
        assert!(
            (wan_bytes - 2.0 * (1 << 20) as f64).abs() < 1.0,
            "{wan_bytes}"
        );
        // Infallible origin: fully available, nothing degraded.
        assert!((report.availability_pct - 100.0).abs() < 1e-9);
        assert_eq!(report.errors_served, 0);
        assert_eq!(report.stale_served, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.breaker_opens, 0);
    }

    /// Caches nothing and spends a measurable moment deciding so.
    struct SlowBypass;

    impl CachePolicy for SlowBypass {
        fn name(&self) -> &str {
            "slow-bypass"
        }
        fn capacity(&self) -> u64 {
            1 << 20
        }
        fn used_bytes(&self) -> u64 {
            0
        }
        fn contains(&self, _id: ObjectId) -> bool {
            false
        }
        fn handle(&mut self, _req: &Request) -> Outcome {
            let t0 = Instant::now();
            while t0.elapsed() < std::time::Duration::from_micros(50) {
                std::hint::spin_loop();
            }
            Outcome::MissBypassed
        }
    }

    #[test]
    fn miss_path_policy_compute_counts_toward_cpu() {
        // Every request is a miss, so all policy compute is on the miss
        // path; a timed (non-deterministic) server must book it.
        let mut server = CdnServer::new(
            SlowBypass,
            ServerConfig {
                freshness_secs: None,
                ..ServerConfig::default()
            },
        );
        let report = server.replay(&trace(200, 200, 1 << 10));
        assert_eq!(report.content_hit_pct, 0.0);
        assert!(
            report.peak_cpu_pct > 0.0,
            "miss-path compute missing: {}",
            report.peak_cpu_pct
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut server = CdnServer::new(Lru::new(5 << 20), ServerConfig::default());
        let report = server.replay(&trace(500, 50, 1 << 20));
        // Percentiles are order statistics (the mean may exceed P90 under
        // heavy skew, so only these orderings are guaranteed).
        assert!(report.p90_latency_ms <= report.p99_latency_ms);
        assert!(report.mean_latency_ms <= report.p99_latency_ms);
        assert!(report.mean_latency_ms > 0.0);
    }

    #[test]
    fn nan_latency_degrades_percentile_instead_of_panicking() {
        // A degenerate latency model producing NaN (0/0-style rates) must
        // not panic the replay; NaNs sort last via total_cmp.
        let cfg = ServerConfig {
            latency: LatencyModel {
                edge_rtt_ms: f64::NAN,
                ..LatencyModel::default()
            },
            freshness_secs: None,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&trace(50, 2, 1 << 20));
        assert!(report.p99_latency_ms.is_nan());
    }

    #[test]
    fn stale_contents_revalidate() {
        // Freshness 10 s; object re-requested every 30 s → always stale.
        let mut t = Trace::new("stale");
        for i in 0..20u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        // All hits, but every one pays the revalidation RTT: mean latency
        // exceeds the pure-hit latency by about one origin RTT.
        let pure_hit = LatencyModel::default().hit_latency_ms(1 << 20, 0.0);
        assert!(report.content_hit_pct > 90.0);
        assert!(
            report.mean_latency_ms > pure_hit + 0.9 * LatencyModel::default().origin_rtt_ms,
            "mean {} vs pure hit {}",
            report.mean_latency_ms,
            pure_hit
        );
    }

    #[test]
    fn changed_contents_count_as_wan_traffic() {
        let mut t = Trace::new("stale");
        for i in 0..50u64 {
            t.push(Request::new(Time::from_secs(i * 100), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 0.0, // every revalidation refetches
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        // All 50 requests move a full object across the WAN (1 compulsory
        // miss + 49 refetches).
        let wan_bytes = report.wan_gbps * t.duration().as_secs_f64() * 1e9 / 8.0;
        assert!(
            (wan_bytes - 50.0 * (1 << 20) as f64).abs() < 10.0,
            "{wan_bytes}"
        );
    }

    #[test]
    fn warmup_excluded_from_hit_ratio() {
        let cfg = ServerConfig {
            warmup_requests: 2,
            freshness_secs: None,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&trace(10, 2, 1 << 20));
        assert!((report.content_hit_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn series_is_recorded() {
        let cfg = ServerConfig {
            series_every: Some(10),
            freshness_secs: None,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&trace(100, 2, 1 << 20));
        assert_eq!(report.series.len(), 10);
        assert!(report.series.last().expect("non-empty").1 > 0.9);
    }

    #[test]
    fn stale_while_revalidate_hides_revalidation_latency() {
        // Freshness 10 s, requests every 30 s → always 20 s past freshness,
        // inside a 25 s stale-while-revalidate window.
        let mut t = Trace::new("swr");
        for i in 0..20u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            resilience: ResilienceConfig {
                stale_while_revalidate_secs: 25.0,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        // Stale serves are hits at hit latency — no revalidation RTT on the
        // user path (compare `stale_contents_revalidate` above).
        let pure_hit = LatencyModel::default().hit_latency_ms(1 << 20, 0.0);
        assert_eq!(report.stale_served, 19);
        assert!(report.content_hit_pct > 90.0);
        assert!(
            report.mean_latency_ms < pure_hit + 0.5 * LatencyModel::default().origin_rtt_ms,
            "mean {}",
            report.mean_latency_ms
        );
    }

    #[test]
    fn full_outage_without_stale_serving_errors_every_revalidation() {
        // Origin down for the whole trace; freshness 10 s, requests every
        // 30 s. The first request errors (miss, no copy); every later one
        // has a cached-but-stale copy it may not serve.
        let mut t = Trace::new("outage");
        for i in 0..10u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            faults: FaultConfig {
                outages: vec![(0.0, 1e9)],
                ..FaultConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        assert_eq!(report.errors_served, 10);
        assert!((report.availability_pct - 0.0).abs() < 1e-9);
        assert!(report.breaker_opens >= 1);
    }

    #[test]
    fn obs_records_outage_breaker_and_errors() {
        use lhr_obs::{ObsConfig, ObsWindow};
        let mut t = Trace::new("outage");
        for i in 0..10u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(4),
            deterministic: true,
            ..ObsConfig::default()
        });
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            faults: FaultConfig {
                outages: vec![(0.0, 1e9)],
                ..FaultConfig::default()
            },
            deterministic: true,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg).with_obs(obs.clone());
        let report = server.replay(&t);
        let events = obs.events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(EventKind::OutageStart), 1);
        assert_eq!(count(EventKind::OutageEnd), 1);
        assert_eq!(count(EventKind::ErrorServe), report.errors_served);
        assert_eq!(count(EventKind::BreakerOpen), report.breaker_opens);
        let windows = obs.windows();
        assert_eq!(
            windows.iter().map(|w| w.errors).sum::<u64>(),
            report.errors_served
        );
        assert!(windows.iter().all(|w| w.availability() == 0.0));
        assert!(obs.to_jsonl().contains("\"path\":\"server.replay\""));
    }

    #[test]
    fn obs_records_stale_serves() {
        use lhr_obs::ObsConfig;
        let mut t = Trace::new("swr");
        for i in 0..20u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            resilience: ResilienceConfig {
                stale_while_revalidate_secs: 25.0,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        };
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg).with_obs(obs.clone());
        let report = server.replay(&t);
        let stale_events = obs
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::StaleServe)
            .count() as u64;
        assert_eq!(stale_events, report.stale_served);
        assert_eq!(
            obs.windows().iter().map(|w| w.stale_served).sum::<u64>(),
            report.stale_served
        );
        // Latency histogram captured every measured request.
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"name\":\"server.latency_us\""), "{jsonl}");
    }

    #[test]
    fn pseudo_uniform_is_in_range_and_spread() {
        let mut below = 0;
        for id in 0..10_000u64 {
            let u = pseudo_uniform(id, 3);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below += 1;
            }
        }
        assert!((4_000..6_000).contains(&below), "{below}");
    }
}
