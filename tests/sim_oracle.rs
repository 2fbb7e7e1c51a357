//! Same-bytes oracle for the simulator's accounting.
//!
//! Pins the `stable_json()` result and the deterministic obs JSONL export
//! of fixed-seed runs through both simulation drivers: `Simulator::run`
//! with LRU and LHR, with and without a recorder, with warmup and a
//! hit-ratio series; and `ShardedSimulator` over 8 shards at threads 1
//! and 2. One case streams a `Simulator` export through `Obs::stream_to`,
//! which pins the meta line's place before the first window, and one
//! replays a trace shorter than its warmup, so no request is measured and
//! the warmup eviction count falls back to the run's total.
//!
//! A refactor of the per-request step (window snapshots, counters,
//! metadata sampling, warmup evictions, the shard merge, the `sim.*`
//! counters and gauges) must leave every digest here unchanged.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::sim::shard::{shard_seed, RouteConfig, ShardedSimConfig, ShardedSimulator};
use lhr_repro::sim::{CachePolicy, SimConfig, SimResult, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;

#[path = "common/pin.rs"]
mod pin;
use pin::{pin, Pin};

/// Trace and policy seed.
const SEED: u64 = 7;
/// Aggregate cache capacity: well under the trace's unique bytes, so
/// every run evicts.
const CAPACITY: u64 = 256 << 10;
/// Leading requests excluded from the results.
const WARMUP: usize = 1_000;

/// Skewed popularity and heavy-tailed sizes.
fn trace() -> Trace {
    IrmConfig::new(400, 12_000)
        .zipf_alpha(0.9)
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
        ..ObsConfig::default()
    })
}

/// A policy by name, attached to `obs` when one is given; LHR windows are
/// small enough that every run trains and moves its threshold.
fn policy(name: &str, capacity: u64, seed: u64, obs: Option<&Obs>) -> Box<dyn CachePolicy + Send> {
    match name {
        "LRU" => Box::new(Lru::new(capacity)),
        "LHR" => {
            let lhr = LhrCache::new(
                capacity,
                LhrConfig {
                    seed,
                    window_multiplier: 0.5,
                    min_window_requests: 256,
                    ..LhrConfig::default()
                },
            );
            Box::new(match obs {
                Some(obs) => lhr.with_obs(obs.clone()),
                None => lhr,
            })
        }
        other => panic!("unknown policy {other}"),
    }
}

/// Checks every `(case, got)` against the pins, reporting all mismatches
/// at once in the same form as the pin table.
fn check(pinned: &[(&str, Pin, Pin)], got: &[(String, Pin, Pin)]) {
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(case, result, export)| {
            !pinned
                .iter()
                .any(|(c, r, e)| c == case && r == result && e == export)
        })
        .map(|(case, r, e)| format!("(\"{case}\", ({}, {}), ({}, {})),", r.0, r.1, e.0, e.1))
        .collect();
    assert!(
        mismatches.is_empty(),
        "simulator output diverged from the pinned run:\n{}",
        mismatches.join("\n")
    );
}

/// The result's pin and the export's (an empty export without a recorder).
fn pins(result: &SimResult, obs: Option<&Obs>) -> (Pin, Pin) {
    (
        pin(&result.stable_json()),
        pin(&obs.map(Obs::to_jsonl).unwrap_or_default()),
    )
}

fn simulator_case(trace: &Trace, name: &str, recorded: bool) -> (String, Pin, Pin) {
    let obs = recorded.then(obs);
    let mut sim = Simulator::new(SimConfig {
        warmup_requests: WARMUP,
        series_every: Some(700),
    });
    if let Some(obs) = &obs {
        sim = sim.with_obs(obs.clone());
    }
    let result = sim.run(&mut *policy(name, CAPACITY, SEED, obs.as_ref()), trace);
    let (r, e) = pins(&result, obs.as_ref());
    let recorder = if recorded { "obs" } else { "bare" };
    (format!("simulator/{name}/{recorder}"), r, e)
}

fn sharded_case(trace: &Trace, name: &str, threads: usize) -> (String, Pin, Pin) {
    const SHARDS: usize = 8;
    let obs = obs();
    let result = ShardedSimulator::new(ShardedSimConfig {
        warmup_requests: WARMUP,
        n_shards: SHARDS,
        route: RouteConfig {
            threads,
            ..RouteConfig::default()
        },
    })
    .with_obs(obs.clone())
    .run(trace, |shard, shard_obs| {
        policy(
            name,
            CAPACITY / SHARDS as u64,
            shard_seed(SEED, shard),
            shard_obs,
        )
    });
    let (r, e) = pins(&result, Some(&obs));
    (format!("sharded/{name}"), r, e)
}

#[test]
fn simulator_matches_pinned_bytes() {
    let trace = trace();
    let mut got = Vec::new();
    for name in ["LRU", "LHR"] {
        for recorded in [false, true] {
            got.push(simulator_case(&trace, name, recorded));
        }
    }
    check(
        &[
            (
                "simulator/LRU/bare",
                (14567144308276697910, 2053),
                (14695981039346656037, 0),
            ),
            (
                "simulator/LRU/obs",
                (14567144308276697910, 2053),
                (15102764750004039509, 6433),
            ),
            (
                "simulator/LHR/bare",
                (12183916874910544687, 2027),
                (14695981039346656037, 0),
            ),
            (
                "simulator/LHR/obs",
                (12183916874910544687, 2027),
                (11000473490936395296, 19586),
            ),
        ],
        &got,
    );
}

#[test]
fn sharded_simulator_matches_pinned_bytes_at_threads_1_and_2() {
    let trace = trace();
    let mut got = Vec::new();
    for name in ["LRU", "LHR"] {
        for threads in [1, 2] {
            got.push(sharded_case(&trace, name, threads));
        }
    }
    check(
        &[
            (
                "sharded/LRU",
                (2950498199177283576, 292),
                (15209790227635703571, 2094),
            ),
            (
                "sharded/LHR",
                (4212709803876192248, 296),
                (17328687749608765499, 13471),
            ),
        ],
        &got,
    );
}

/// A streamed export is written window by window while the run goes on;
/// the finished file must match its pin and the in-memory export.
#[test]
fn streamed_simulator_export_matches_pinned_bytes() {
    let trace = trace();
    let path = std::env::temp_dir().join(format!("lhr-sim-oracle-{}.jsonl", std::process::id()));
    let obs = obs();
    obs.stream_to(&path).expect("open stream");
    let result = Simulator::new(SimConfig {
        warmup_requests: WARMUP,
        series_every: None,
    })
    .with_obs(obs.clone())
    .run(&mut Lru::new(CAPACITY), &trace);
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
            "simulator-stream/LRU",
            (9592712049081154945, 280),
            (15102764750004039509, 6433),
        )],
        &[(
            "simulator-stream/LRU".to_string(),
            pin(&result.stable_json()),
            pin(&streamed),
        )],
    );
}

/// Every request is warmup: nothing is measured, and the warmup eviction
/// counter falls back to the evictions of the whole run.
#[test]
fn trace_shorter_than_warmup_matches_pinned_bytes() {
    let mut trace = trace();
    trace.requests.truncate(WARMUP / 2);
    let capacity = 64 << 10;
    let single_obs = obs();
    let single = Simulator::new(SimConfig {
        warmup_requests: WARMUP,
        series_every: Some(100),
    })
    .with_obs(single_obs.clone())
    .run(&mut Lru::new(capacity), &trace);
    assert!(single.evictions > 0, "the warmup evicts");
    let (r, e) = pins(&single, Some(&single_obs));
    let mut got = vec![("short/simulator".to_string(), r, e)];
    for threads in [1, 2] {
        let obs = obs();
        let sharded = ShardedSimulator::new(ShardedSimConfig {
            warmup_requests: WARMUP,
            n_shards: 4,
            route: RouteConfig {
                threads,
                ..RouteConfig::default()
            },
        })
        .with_obs(obs.clone())
        .run(&trace, |_, _| Lru::new(capacity / 4));
        let (r, e) = pins(&sharded, Some(&obs));
        got.push(("short/sharded".to_string(), r, e));
    }
    check(
        &[
            (
                "short/simulator",
                (11531502565221149365, 246),
                (3473515743355442228, 516),
            ),
            (
                "short/sharded",
                (5475527794426069056, 257),
                (9475344924765210242, 464),
            ),
        ],
        &got,
    );
}
