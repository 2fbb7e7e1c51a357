//! Per-policy `handle()` throughput benchmark — the number the hot-path
//! memory-layout work (fast hashing, fused `ObjectTable`, alloc-free
//! replay) is judged by:
//!
//! ```text
//! cargo run --release -p lhr-bench --bin policies -- --scale small
//! ```
//!
//! Each policy replays the same fixed-seed IRM trace through a bare
//! `handle()` loop (no server, no simulator) and reports mean ns per
//! request. Set `LHR_BENCH_JSON=<path>` to append machine-readable results
//! plus a `policy_ns_per_op` summary line (the format committed as
//! `BENCH_policies.json`), with `host_cpus` recorded honestly as in the
//! other BENCH files.

use lhr::cache::{LhrCache, LhrConfig};
use lhr_policies::*;
use lhr_sim::CachePolicy;
use lhr_trace::synth::{IrmConfig, ProductionScale, SizeModel};
use lhr_trace::Trace;
use lhr_util::bench::{black_box, Bench};
use lhr_util::json::{Json, ToJson};
use std::io::Write;

/// Replays the trace through a fresh policy; returns a counter so the
/// optimizer can't discard the loop.
fn replay(trace: &Trace, mut policy: Box<dyn CachePolicy>) -> u64 {
    let mut hits = 0u64;
    for req in trace.iter() {
        if black_box(policy.handle(req)) == lhr_sim::Outcome::Hit {
            hits += 1;
        }
    }
    hits
}

fn main() {
    let options = lhr_bench::harness::Options::from_args();
    let requests = match options.scale {
        ProductionScale::Tiny => 20_000,
        ProductionScale::Small => 100_000,
        ProductionScale::Medium => 400_000,
        ProductionScale::Full => 1_000_000,
    };
    let trace = IrmConfig::new(10_000, requests)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 10_000,
            max: 10_000_000,
        })
        .seed(options.seed)
        .generate();
    let capacity = 25_000_000u64;
    let objects = 10_000u64;
    let window = (trace.duration().as_secs_f64() / 4.0).max(60.0);
    let horizon = trace.duration().as_secs_f64() / 8.0;
    let seed = options.seed;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Every policy in the crate plus LHR itself, bare `handle()` loop.
    type Build = Box<dyn Fn() -> Box<dyn CachePolicy>>;
    let policies: Vec<(&str, Build)> = vec![
        ("LRU", Box::new(move || Box::new(Lru::new(capacity)))),
        ("FIFO", Box::new(move || Box::new(Fifo::new(capacity)))),
        (
            "Random",
            Box::new(move || Box::new(RandomEviction::new(capacity, seed))),
        ),
        ("SLRU", Box::new(move || Box::new(slru(capacity)))),
        ("S4LRU", Box::new(move || Box::new(s4lru(capacity)))),
        (
            "B-LRU",
            Box::new(move || Box::new(BLru::new(capacity, objects))),
        ),
        ("LRU-4", Box::new(move || Box::new(LruK::new(capacity, 4)))),
        ("LFU-DA", Box::new(move || Box::new(LfuDa::new(capacity)))),
        ("GDSF", Box::new(move || Box::new(Gdsf::new(capacity)))),
        ("ARC", Box::new(move || Box::new(Arc::new(capacity)))),
        (
            "AdaptSize",
            Box::new(move || Box::new(AdaptSize::new(capacity, seed))),
        ),
        (
            "TinyLFU",
            Box::new(move || Box::new(TinyLfu::new(capacity, objects))),
        ),
        (
            "W-TinyLFU",
            Box::new(move || Box::new(WTinyLfu::new(capacity, objects))),
        ),
        (
            "Hyperbolic",
            Box::new(move || Box::new(Hyperbolic::new(capacity, seed))),
        ),
        ("LHD", Box::new(move || Box::new(Lhd::new(capacity, seed)))),
        ("LFO", Box::new(move || Box::new(Lfo::new(capacity, 8_192)))),
        (
            "PopCache",
            Box::new(move || Box::new(PopCache::new(capacity, horizon, seed))),
        ),
        (
            "RLCache",
            Box::new(move || Box::new(RlCache::new(capacity, horizon, seed))),
        ),
        (
            "LRB",
            Box::new(move || Box::new(Lrb::new(capacity, window, seed))),
        ),
        (
            "Hawkeye",
            Box::new(move || Box::new(Hawkeye::new(capacity))),
        ),
        (
            "LHR",
            Box::new(move || {
                Box::new(LhrCache::new(
                    capacity,
                    LhrConfig {
                        seed,
                        background_retrain: false,
                        ..LhrConfig::default()
                    },
                ))
            }),
        ),
    ];

    let mut group = Bench::new("policy_handle");
    group.throughput_elems(requests as u64);
    for (name, build) in &policies {
        group.bench(name.to_string(), || replay(black_box(&trace), build()));
    }
    let results = group.finish();

    println!("per-request handle() cost over {requests} requests ({host_cpus} host cpu(s)):");
    let mut summary: Vec<(String, f64)> = Vec::new();
    for r in &results {
        let ns_per_op = r.mean_ns / requests as f64;
        println!("  {:<12} {:>8.1} ns/op", r.name, ns_per_op);
        summary.push((r.name.clone(), ns_per_op));
    }

    if let Ok(path) = std::env::var("LHR_BENCH_JSON") {
        let mut fields = vec![
            ("group".to_string(), "policy_ns_per_op".to_json()),
            ("requests".to_string(), (requests as u64).to_json()),
            ("host_cpus".to_string(), (host_cpus as u64).to_json()),
        ];
        for (name, ns) in &summary {
            fields.push((name.clone(), ns.to_json()));
        }
        let record = Json::Object(fields);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    lhr_bench::harness::write_obs(&options);
}
