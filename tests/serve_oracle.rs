//! Same-bytes oracle for the serving path's accounting.
//!
//! Pins the `stable_json()` report and the deterministic obs JSONL export
//! (request-path tracing on, so exemplars and trace records are covered)
//! of fixed-seed replays through all three serving paths:
//! `CdnServer::replay`, `ShardedEngine` at threads 1 and 2, and
//! `FleetEngine` at threads 1 and 2 — with LRU and LHR, with and without
//! origin faults, and (for the fleet) with and without node churn. One
//! extra case streams a `CdnServer` export through `Obs::stream_to`, so
//! the server's push-windows-as-they-close path is pinned byte for byte.
//!
//! A refactor of the per-request bookkeeping (counters, latency vectors,
//! histograms, window series, obs events, trace records, the merge) must
//! leave every digest here unchanged.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{
    presets, CdnServer, EngineConfig, FleetConfig, FleetEngine, NodeFaultConfig, ServerConfig,
    ShardedEngine,
};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::CachePolicy;
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;

#[path = "common/pin.rs"]
mod pin;
use pin::{pin, Pin};

/// Trace, policy and fault seed.
const SEED: u64 = 7;
/// Aggregate cache capacity: well under the trace's unique bytes, so
/// every path evicts.
const CAPACITY: u64 = 256 << 10;
/// Leading requests excluded from the reports.
const WARMUP: usize = 1_000;

/// Skewed popularity, heavy-tailed sizes, one request per second: the
/// trace spans hours, so one-hour freshness expires copies and exercises
/// revalidation and stale serving.
fn trace() -> Trace {
    IrmConfig::new(400, 12_000)
        .zipf_alpha(0.9)
        .requests_per_sec(1.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(SEED)
        .generate()
}

fn obs() -> Obs {
    Obs::new(ObsConfig {
        window: ObsWindow::Requests(500),
        deterministic: true,
        trace_sample: 8,
        ..ObsConfig::default()
    })
}

/// The hardened serving path under origin fault preset `faults`.
fn server_config(trace: &Trace, faults: &str) -> ServerConfig {
    ServerConfig {
        warmup_requests: WARMUP,
        deterministic: true,
        ..presets::fault_preset(faults, SEED, trace.duration().as_secs_f64())
            .expect("known fault preset")
    }
}

/// A policy slice by name; LHR windows are small enough that every
/// slice crosses window edges, trains, and moves its threshold.
fn policy(name: &str, capacity: u64, seed: u64) -> Box<dyn CachePolicy + Send> {
    match name {
        "LRU" => Box::new(Lru::new(capacity)),
        "LHR" => Box::new(LhrCache::new(
            capacity,
            LhrConfig {
                seed,
                window_multiplier: 0.5,
                min_window_requests: 256,
                ..LhrConfig::default()
            },
        )),
        other => panic!("unknown policy {other}"),
    }
}

/// Checks every `(case, got)` against the pins, reporting all mismatches
/// at once in the same form as the pin table.
fn check(pinned: &[(&str, Pin, Pin)], got: &[(String, Pin, Pin)]) {
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(case, report, export)| {
            !pinned
                .iter()
                .any(|(c, r, e)| c == case && r == report && e == export)
        })
        .map(|(case, r, e)| format!("(\"{case}\", ({}, {}), ({}, {})),", r.0, r.1, e.0, e.1))
        .collect();
    assert!(
        mismatches.is_empty(),
        "serving-path output diverged from the pinned run:\n{}",
        mismatches.join("\n")
    );
}

fn server_case(trace: &Trace, name: &str, faults: &str) -> (String, Pin, Pin) {
    let obs = obs();
    let config = ServerConfig {
        series_every: Some(1_000),
        ..server_config(trace, faults)
    };
    let mut server = CdnServer::new(policy(name, CAPACITY, SEED), config).with_obs(obs.clone());
    let report = server.replay(trace);
    (
        format!("server/{name}/{faults}"),
        pin(&report.stable_json()),
        pin(&obs.to_jsonl()),
    )
}

fn engine_case(trace: &Trace, name: &str, faults: &str, threads: usize) -> (String, Pin, Pin) {
    let obs = obs();
    let config = EngineConfig {
        total_capacity: CAPACITY,
        n_shards: 4,
        route: RouteConfig {
            threads,
            ..RouteConfig::default()
        },
        server: server_config(trace, faults),
    };
    let report = ShardedEngine::new(config)
        .with_obs(obs.clone())
        .replay(trace, |shard, capacity, _obs| {
            policy(name, capacity, shard_seed(SEED, shard))
        });
    (
        format!("engine/{name}/{faults}"),
        pin(&report.stable_json()),
        pin(&obs.to_jsonl()),
    )
}

fn fleet_case(trace: &Trace, name: &str, node_faults: &str, threads: usize) -> (String, Pin, Pin) {
    let obs = obs();
    let mut config = FleetConfig::new(CAPACITY);
    config.n_shards = 4;
    config.route.threads = threads;
    config.server = server_config(trace, "flaky");
    config.node_faults = NodeFaultConfig::preset(
        node_faults,
        SEED,
        config.n_nodes,
        trace.duration().as_secs_f64(),
    )
    .expect("known node-fault preset");
    let report = FleetEngine::new(config).with_obs(obs.clone()).replay(
        trace,
        |node, shard, capacity, _obs| {
            policy(name, capacity, shard_seed(shard_seed(SEED, node), shard))
        },
    );
    (
        format!("fleet/{name}/{node_faults}"),
        pin(&report.stable_json()),
        pin(&obs.to_jsonl()),
    )
}

#[test]
fn server_replay_matches_pinned_bytes() {
    let trace = trace();
    let mut got = Vec::new();
    for name in ["LRU", "LHR"] {
        for faults in ["none", "flaky"] {
            got.push(server_case(&trace, name, faults));
        }
    }
    check(
        &[
            (
                "server/LRU/none",
                (16755426920257218647, 729),
                (10272738071461230734, 373167),
            ),
            (
                "server/LRU/flaky",
                (2184660483475165313, 766),
                (8882112854586448969, 378972),
            ),
            (
                "server/LHR/none",
                (14349397420439966234, 725),
                (17005586454969034494, 353106),
            ),
            (
                "server/LHR/flaky",
                (2542472510775393880, 774),
                (11074929605790456078, 360204),
            ),
        ],
        &got,
    );
}

#[test]
fn sharded_engine_matches_pinned_bytes_at_threads_1_and_2() {
    let trace = trace();
    let mut got = Vec::new();
    for name in ["LRU", "LHR"] {
        for faults in ["none", "flaky"] {
            for threads in [1, 2] {
                got.push(engine_case(&trace, name, faults, threads));
            }
        }
    }
    check(
        &[
            (
                "engine/LRU/none",
                (3227840290727966295, 682),
                (11741966451916260310, 368410),
            ),
            (
                "engine/LRU/flaky",
                (2800942602593374937, 729),
                (13276775572367564731, 373243),
            ),
            (
                "engine/LHR/none",
                (9692843774527315002, 670),
                (15283604166045817471, 343949),
            ),
            (
                "engine/LHR/flaky",
                (13060411888892056545, 722),
                (17117405370616161708, 349344),
            ),
        ],
        &got,
    );
}

#[test]
fn fleet_engine_matches_pinned_bytes_at_threads_1_and_2() {
    let trace = trace();
    let mut got = Vec::new();
    for name in ["LRU", "LHR"] {
        for node_faults in ["none", "node-churn"] {
            for threads in [1, 2] {
                got.push(fleet_case(&trace, name, node_faults, threads));
            }
        }
    }
    check(
        &[
            (
                "fleet/LRU/none",
                (13339353322755742828, 832),
                (10680340848511004074, 489463),
            ),
            (
                "fleet/LRU/node-churn",
                (12229087672046480350, 846),
                (9809472437128462409, 514968),
            ),
            (
                "fleet/LHR/none",
                (16818290088981992459, 828),
                (764998895611198486, 452150),
            ),
            (
                "fleet/LHR/node-churn",
                (16687775700209826656, 853),
                (18227744458351441263, 493671),
            ),
        ],
        &got,
    );
}

/// A streamed export is written window by window while the replay runs;
/// the finished file must match its pin and the in-memory export. The
/// `recovery` preset adds an outage, so the up-front outage events are
/// pinned too.
#[test]
fn streamed_server_export_matches_pinned_bytes() {
    let trace = trace();
    let path = std::env::temp_dir().join(format!("lhr-serve-oracle-{}.jsonl", std::process::id()));
    let obs = obs();
    obs.stream_to(&path).expect("open stream");
    let mut server =
        CdnServer::new(Lru::new(CAPACITY), server_config(&trace, "recovery")).with_obs(obs.clone());
    let report = server.replay(&trace);
    obs.close_stream().expect("close stream");
    let streamed = std::fs::read_to_string(&path).expect("read stream");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        streamed,
        obs.to_jsonl(),
        "stream equals the in-memory export"
    );
    check(
        &[(
            "server-stream/LRU/recovery",
            (5753144908253523099, 560),
            (16680495065595912661, 477639),
        )],
        &[(
            "server-stream/LRU/recovery".to_string(),
            pin(&report.stable_json()),
            pin(&streamed),
        )],
    );
}
