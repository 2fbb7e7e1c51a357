//! The three workloads, their set-up, and the replays they run through the
//! public `ShardedEngine::replay` / `FleetEngine::replay` entry points.

use crate::metrics;
use crate::timed::{Probe, Timed};
use lhr::{LhrCache, LhrConfig};
use lhr_obs::{Obs, ObsConfig};
use lhr_policies::Lru;
use lhr_proto::fleet::NodeFaultConfig;
use lhr_proto::ShardedEngine;
use lhr_proto::{presets, EngineConfig, EngineReport, FleetConfig, FleetEngine, FleetReport};
use lhr_sim::shard::{shard_seed, RouteConfig};
use lhr_trace::synth::{production, ProductionScale};
use lhr_trace::{Trace, TraceStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the policies and fault schedules — the CLI's default `--seed`,
/// so `lhr-cache server`/`fleet` reproduce these replays. Only the trace
/// varies with the benchmark's `--seed`.
pub const CONFIG_SEED: u64 = 42;
/// Shards of the `ShardedEngine` workloads (the engine's default).
pub const ENGINE_SHARDS: usize = 16;
/// Edge nodes of the fleet workload (the fleet's default).
pub const FLEET_NODES: usize = 4;
/// Shards of the fleet workload (the fleet's default).
pub const FLEET_SHARDS: usize = 8;
/// The fleet recorder samples one request path in this many.
pub const TRACE_SAMPLE: u64 = 64;

/// One traffic mix the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LHR through the sharded engine on CDN-A.
    LhrCdnA,
    /// LRU through the sharded engine on CDN-A.
    LruCdnA,
    /// LRU edges of a churning 4-node fleet over a flaky origin, on CDN-C,
    /// with an obs recorder exporting JSONL.
    FleetChurnCdnC,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LhrCdnA,
        Workload::LruCdnA,
        Workload::FleetChurnCdnC,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LhrCdnA => "lhr-cdn-a",
            Workload::LruCdnA => "lru-cdn-a",
            Workload::FleetChurnCdnC => "fleet-churn-cdn-c",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the fault presets are on (only the fleet workload's).
    pub fn faulted(self) -> bool {
        self == Workload::FleetChurnCdnC
    }

    fn generate(self, scale: ProductionScale, seed: u64) -> Trace {
        match self {
            Workload::LhrCdnA | Workload::LruCdnA => production::cdn_a(scale, seed),
            Workload::FleetChurnCdnC => production::cdn_c(scale, seed),
        }
    }
}

/// The trace shape every result records.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Requests in the trace.
    pub requests: u64,
    /// Distinct objects requested.
    pub unique_objects: u64,
    /// Bytes of the distinct objects.
    pub unique_bytes: u128,
    /// Bytes over all requests.
    pub requested_bytes: u128,
    /// Aggregate cache capacity: unique bytes × the trace's paper ratio.
    pub capacity: u64,
    /// Trace-clock duration, seconds.
    pub duration_secs: f64,
}

/// What a workload replays: its engine configuration.
enum Plan {
    Engine { config: EngineConfig, lhr: bool },
    Fleet(FleetConfig),
}

/// A workload ready to replay: the generated trace and the engine
/// configuration built for it.
pub struct Setup {
    /// The generated trace; the program sees nothing else of the seed.
    pub trace: Trace,
    /// Its shape.
    pub shape: Shape,
    /// Seconds `production::cdn_a` / `cdn_c` took.
    pub gen_secs: f64,
    plan: Plan,
    obs_path: PathBuf,
}

impl Setup {
    /// Generates the trace and builds the engine configuration; `obs_dir`
    /// receives the fleet recorder's JSONL export.
    pub fn new(workload: Workload, scale: ProductionScale, seed: u64, obs_dir: &Path) -> Self {
        let start = Instant::now();
        let trace = workload.generate(scale, seed);
        let gen_secs = start.elapsed().as_secs_f64();
        let stats = TraceStats::compute(&trace);
        let ratio = production::cache_to_unique_ratio(&trace.name);
        let shape = Shape {
            requests: trace.len() as u64,
            unique_objects: stats.unique_contents as u64,
            unique_bytes: stats.unique_bytes_requested,
            requested_bytes: stats.total_bytes_requested,
            capacity: ((stats.unique_bytes_requested as f64 * ratio) as u64).max(1),
            duration_secs: trace.duration().as_secs_f64(),
        };
        let plan = match workload {
            Workload::LhrCdnA | Workload::LruCdnA => {
                let config = EngineConfig {
                    n_shards: ENGINE_SHARDS,
                    ..EngineConfig::new(shape.capacity)
                };
                std::hint::black_box(ShardedEngine::new(config.clone()));
                Plan::Engine {
                    config,
                    lhr: workload == Workload::LhrCdnA,
                }
            }
            Workload::FleetChurnCdnC => {
                let mut config = FleetConfig::new(shape.capacity);
                config.n_nodes = FLEET_NODES;
                config.n_shards = FLEET_SHARDS;
                config.server = presets::fault_preset("flaky", CONFIG_SEED, shape.duration_secs)
                    .expect("`flaky` is a built-in origin preset");
                config.node_faults = NodeFaultConfig::preset(
                    "node-churn",
                    CONFIG_SEED,
                    FLEET_NODES,
                    shape.duration_secs,
                )
                .expect("`node-churn` is a built-in node preset");
                std::hint::black_box(FleetEngine::new(config.clone()));
                Plan::Fleet(config)
            }
        };
        Setup {
            trace,
            shape,
            gen_secs,
            plan,
            obs_path: obs_dir.join(format!("{}.obs.jsonl", workload.name())),
        }
    }

    /// Replays the trace once on `threads` worker threads. With `probe`,
    /// every policy is wrapped in the timing adapter and every LHR shard
    /// records its learning-loop spans into a recorder of its own. The fleet
    /// workload attaches its JSONL recorder unless `recorder` is false.
    pub fn replay(
        &self,
        threads: usize,
        probe: Option<&Probe>,
        recorder: bool,
    ) -> Result<Replay, String> {
        let trace = &self.trace;
        let route = RouteConfig {
            threads,
            ..RouteConfig::default()
        };
        match &self.plan {
            Plan::Engine { config, lhr } => {
                let engine = ShardedEngine::new(EngineConfig {
                    route,
                    ..config.clone()
                });
                let (report, wall_secs, cpu_secs) = match (lhr, probe) {
                    (true, None) => measure(|| engine.replay(trace, |s, cap, _| lhr_shard(s, cap))),
                    (true, Some(p)) => measure(|| {
                        engine.replay(trace, |s, cap, _| {
                            let mut cache = lhr_shard(s, cap);
                            cache.set_obs(p.lhr_recorder());
                            Timed::new(cache, p)
                        })
                    }),
                    (false, None) => measure(|| engine.replay(trace, |_, cap, _| Lru::new(cap))),
                    (false, Some(p)) => {
                        measure(|| engine.replay(trace, |_, cap, _| Timed::new(Lru::new(cap), p)))
                    }
                };
                Ok(Replay {
                    report: Report::Engine(report),
                    wall_secs,
                    cpu_secs,
                    export: None,
                })
            }
            Plan::Fleet(config) => {
                let mut engine = FleetEngine::new(FleetConfig {
                    route,
                    ..config.clone()
                });
                let obs = recorder.then(|| {
                    Obs::new(ObsConfig {
                        trace_sample: TRACE_SAMPLE,
                        ..ObsConfig::default()
                    })
                });
                if let Some(obs) = &obs {
                    // Streamed as the CLI's `--obs out.jsonl` does: windows
                    // are written while the replay runs.
                    obs.stream_to(&self.obs_path)
                        .map_err(|e| format!("{}: {e}", self.obs_path.display()))?;
                    engine = engine.with_obs(obs.clone());
                }
                let (report, wall_secs, cpu_secs) = match probe {
                    None => measure(|| engine.replay(trace, |_, _, cap, _| Lru::new(cap))),
                    Some(p) => measure(|| {
                        engine.replay(trace, |_, _, cap, _| Timed::new(Lru::new(cap), p))
                    }),
                };
                let export = match &obs {
                    Some(obs) => Some(ObsExport::finish(obs, &self.obs_path)?),
                    None => None,
                };
                Ok(Replay {
                    report: Report::Fleet(report),
                    wall_secs,
                    cpu_secs,
                    export,
                })
            }
        }
    }

    /// Engine worker threads of this workload's configuration at
    /// `threads`, after the engine's clamp to the shard count.
    pub fn effective_threads(&self, threads: usize) -> usize {
        threads.clamp(1, self.n_shards())
    }

    /// Shards the keyspace is split across.
    pub fn n_shards(&self) -> usize {
        match &self.plan {
            Plan::Engine { config, .. } => config.n_shards,
            Plan::Fleet(config) => config.n_shards,
        }
    }
}

/// LHR for one engine shard: default configuration, per-shard seed derived
/// as the CLI's `--threads` path derives it.
fn lhr_shard(shard: usize, capacity: u64) -> LhrCache {
    LhrCache::new(
        capacity,
        LhrConfig {
            seed: shard_seed(CONFIG_SEED, shard),
            ..LhrConfig::default()
        },
    )
}

/// Runs `f`, returning its result with the wall and process-CPU seconds
/// it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = crate::sys::process_cpu_secs();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, wall, crate::sys::process_cpu_secs() - cpu0)
}

/// What the fleet recorder exported.
#[derive(Debug, Clone, Default)]
pub struct ObsExport {
    /// Bytes of the JSONL file.
    pub bytes: u64,
    /// Seconds `close_stream` took to write the post-window sections.
    pub export_secs: f64,
    /// Events recorded.
    pub events: u64,
    /// Request-path traces recorded.
    pub traces: u64,
    /// Events and traces dropped at the recorder's budget.
    pub dropped: u64,
}

impl ObsExport {
    fn finish(obs: &Obs, path: &Path) -> Result<Self, String> {
        let start = Instant::now();
        obs.close_stream()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let export_secs = start.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let dropped = obs
            .records()
            .iter()
            .filter_map(|r| match r {
                lhr_obs::ObsRecord::Counter { name, value }
                    if name == "obs.events_dropped" || name == "obs.traces_dropped" =>
                {
                    Some(*value)
                }
                _ => None,
            })
            .sum();
        Ok(ObsExport {
            bytes,
            export_secs,
            events: obs.events().len() as u64,
            traces: obs.traces().len() as u64,
            dropped,
        })
    }
}

/// One replay's outcome and cost.
pub struct Replay {
    /// The engine's report.
    pub report: Report,
    /// Wall seconds of the `replay` call.
    pub wall_secs: f64,
    /// Process CPU seconds over the `replay` call.
    pub cpu_secs: f64,
    /// The fleet recorder's export, when one was attached.
    pub export: Option<ObsExport>,
}

/// The report of either engine.
pub enum Report {
    /// `ShardedEngine::replay`.
    Engine(EngineReport),
    /// `FleetEngine::replay`.
    Fleet(FleetReport),
}

impl Report {
    /// The machine-independent report, byte-identical across thread counts.
    pub fn stable_json(&self) -> String {
        match self {
            Report::Engine(r) => r.stable_json(),
            Report::Fleet(r) => r.stable_json(),
        }
    }

    /// Content hit ratio, % (the fleet's edge hit ratio).
    pub fn hit_pct(&self) -> f64 {
        match self {
            Report::Engine(r) => r.report.content_hit_pct,
            Report::Fleet(r) => r.edge_hit_pct,
        }
    }

    /// Share of requested bytes not fetched from the origin, %.
    pub fn origin_offload_pct(&self, shape: &Shape) -> f64 {
        match self {
            Report::Engine(r) => metrics::origin_offload_pct(
                metrics::wan_bytes(r.report.wan_gbps, shape.duration_secs),
                shape.requested_bytes as f64,
            ),
            Report::Fleet(r) => r.origin_offload_pct,
        }
    }

    /// Modeled P90 and P99 user latency, ms.
    pub fn latency_ms(&self) -> (f64, f64) {
        match self {
            Report::Engine(r) => (r.report.p90_latency_ms, r.report.p99_latency_ms),
            Report::Fleet(r) => (r.p90_latency_ms, r.p99_latency_ms),
        }
    }

    /// Measured requests served successfully, %.
    pub fn availability_pct(&self) -> f64 {
        match self {
            Report::Engine(r) => r.report.availability_pct,
            Report::Fleet(r) => r.availability_pct,
        }
    }

    /// Peak policy metadata, MB (10^6 bytes).
    pub fn metadata_mb(&self) -> f64 {
        match self {
            Report::Engine(r) => r.report.peak_mem_gb * 1e3,
            Report::Fleet(r) => r.peak_mem_gb * 1e3,
        }
    }

    /// Requests the engine accounted for.
    pub fn requests(&self) -> u64 {
        match self {
            Report::Engine(r) => r.per_shard_requests.iter().sum(),
            Report::Fleet(r) => r.requests,
        }
    }

    /// The fault-path counters: (retries, breaker opens, coalesced
    /// fetches, stale serves).
    pub fn fault_counters(&self) -> [u64; 4] {
        match self {
            Report::Engine(r) => [
                r.report.retries,
                r.report.breaker_opens,
                r.report.coalesced_fetches,
                r.report.stale_served,
            ],
            Report::Fleet(r) => [
                r.retries,
                r.breaker_opens,
                r.coalesced_fetches,
                r.stale_served,
            ],
        }
    }

    /// The fleet's report, if this is one.
    pub fn fleet(&self) -> Option<&FleetReport> {
        match self {
            Report::Engine(_) => None,
            Report::Fleet(r) => Some(r),
        }
    }

    /// The engine's hottest-shard load over the mean.
    pub fn shard_imbalance(&self) -> Option<f64> {
        match self {
            Report::Engine(r) => Some(r.shard_imbalance),
            Report::Fleet(_) => None,
        }
    }

    /// Everything wrong with this report for `workload` on a trace of
    /// `shape`; empty when the output is plausible.
    pub fn problems(&self, workload: Workload, shape: &Shape) -> Vec<String> {
        let mut problems = Vec::new();
        let mut expect = |ok: bool, what: String| {
            if !ok {
                problems.push(what);
            }
        };
        expect(
            self.requests() == shape.requests,
            format!(
                "report covers {} of {} requests",
                self.requests(),
                shape.requests
            ),
        );
        // Every object's first request is a compulsory miss.
        let max_hit_pct =
            (shape.requests - shape.unique_objects) as f64 / shape.requests as f64 * 100.0;
        let hit = self.hit_pct();
        expect(
            (0.0..=max_hit_pct + 1e-9).contains(&hit),
            format!("hit ratio {hit} % outside [0, {max_hit_pct}] %"),
        );
        let offload = self.origin_offload_pct(shape);
        expect(
            (-1e-9..=100.0 + 1e-9).contains(&offload),
            format!("origin offload {offload} % outside [0, 100] %"),
        );
        let (p90, p99) = self.latency_ms();
        expect(
            p90 > 0.0 && p90 <= p99 && p99.is_finite(),
            format!("latency percentiles p90 {p90} ms, p99 {p99} ms out of order"),
        );
        let availability = self.availability_pct();
        if workload.faulted() {
            expect(
                (0.0..=100.0).contains(&availability),
                format!("availability {availability} % outside [0, 100] %"),
            );
            let failovers = self.fleet().map_or(0, |f| f.failovers);
            expect(
                failovers > 0,
                "node-churn took nodes down but nothing failed over".to_string(),
            );
        } else {
            let [retries, breaker_opens, ..] = self.fault_counters();
            expect(
                availability == 100.0 && retries == 0 && breaker_opens == 0,
                format!(
                    "fault-free replay reports availability {availability} %, \
                     {retries} retries, {breaker_opens} breaker opens"
                ),
            );
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(workload: Workload) -> Setup {
        Setup::new(
            workload,
            ProductionScale::Tiny,
            3,
            Path::new(env!("CARGO_MANIFEST_DIR")),
        )
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn setup_is_a_pure_function_of_the_seed() {
        let a = setup(Workload::LruCdnA);
        let b = setup(Workload::LruCdnA);
        assert_eq!(a.trace.requests, b.trace.requests);
        assert_eq!(a.shape, b.shape);
        assert!(a.shape.capacity > 0 && a.shape.capacity < a.shape.unique_bytes as u64);
    }

    /// The timing adapter must be invisible to the engine: the same
    /// replay with and without it produces byte-identical stable reports,
    /// for LRU and for LHR (whose shards also carry span recorders).
    #[test]
    fn timing_adapter_forwards_every_policy_call() {
        for workload in [Workload::LruCdnA, Workload::LhrCdnA] {
            let s = setup(workload);
            let plain = s.replay(2, None, true).unwrap();
            let probe = Probe::default();
            let traced = s.replay(2, Some(&probe), true).unwrap();
            assert_eq!(plain.report.stable_json(), traced.report.stable_json());
            assert!(plain.report.problems(workload, &s.shape).is_empty());
            let tallies = probe.tallies();
            assert_eq!(tallies.len(), ENGINE_SHARDS);
            let calls: u64 = tallies.iter().map(|t| t.hist.total()).sum();
            assert!(calls >= s.shape.requests, "every request probes the policy");
            assert_eq!(
                tallies.iter().all(|t| t.lhr.is_some()),
                workload == Workload::LhrCdnA
            );
        }
    }

    #[test]
    fn fleet_replay_is_transparent_to_adapter_and_recorder_and_threads() {
        let s = setup(Workload::FleetChurnCdnC);
        let dir = s.obs_path.parent().unwrap().to_path_buf();
        let s = Setup {
            obs_path: dir.join("test-fleet.obs.jsonl"),
            ..s
        };
        let recorded = s.replay(2, None, true).unwrap();
        let bare = s.replay(1, None, false).unwrap();
        let traced = s.replay(2, Some(&Probe::default()), true).unwrap();
        assert_eq!(recorded.report.stable_json(), bare.report.stable_json());
        assert_eq!(recorded.report.stable_json(), traced.report.stable_json());
        assert!(recorded
            .report
            .problems(Workload::FleetChurnCdnC, &s.shape)
            .is_empty());
        let export = recorded.export.unwrap();
        assert!(export.bytes > 0 && export.events > 0);
        assert!(bare.export.is_none());
        assert!(
            !s.obs_path.exists(),
            "the export file is removed after it is measured"
        );
    }

    #[test]
    fn problems_flag_an_impossible_hit_ratio() {
        let s = setup(Workload::LruCdnA);
        let mut replay = s.replay(1, None, true).unwrap();
        if let Report::Engine(r) = &mut replay.report {
            r.report.content_hit_pct = 100.0;
        }
        assert_eq!(replay.report.problems(Workload::LruCdnA, &s.shape).len(), 1);
    }
}
