//! Observability overhead microbenchmark — replays the same trace through
//! the simulator bare, with an attached [`lhr_obs::Obs`] recorder, and with
//! the recorder plus 1/64 request-path trace sampling, and reports the
//! relative overheads, which the obs layer budgets at < 5 %:
//!
//! ```text
//! cargo run --release -p lhr-bench --bin obs -- --scale small
//! ```
//!
//! The variants are *interleaved* round-robin — each measurement round
//! times one replay of every variant back to back — so thermal and
//! frequency drift lands on all of them equally instead of biasing
//! whichever ran last, and the overhead is computed from per-variant
//! minimums (the least-noisy estimator for a deterministic workload).
//! Set `LHR_BENCH_JSON=<path>` to append machine-readable results plus
//! `obs_overhead` summary lines (the format committed as `BENCH_obs.json`).

use lhr_obs::{Obs, ObsConfig, ObsWindow};
use lhr_policies::Lru;
use lhr_sim::{SimConfig, Simulator};
use lhr_trace::synth::{IrmConfig, ProductionScale, SizeModel};
use lhr_trace::Trace;
use lhr_util::bench::{black_box, BenchResult};
use lhr_util::json::{Json, ToJson};
use std::io::Write;
use std::time::{Duration, Instant};

/// One replay of `trace` through an LRU simulator, optionally observed.
fn replay(trace: &Trace, capacity: u64, obs: Option<ObsConfig>) -> u64 {
    let mut policy = Lru::new(capacity);
    let mut sim = Simulator::new(SimConfig::default());
    match obs {
        None => sim.run(&mut policy, black_box(trace)).metrics.hits,
        Some(config) => {
            let obs = Obs::new(config);
            sim = sim.with_obs(obs.clone());
            sim.run(&mut policy, black_box(trace));
            obs.to_jsonl().len() as u64
        }
    }
}

fn env_ms(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let options = lhr_bench::harness::Options::from_args();
    let requests = match options.scale {
        ProductionScale::Tiny => 50_000,
        ProductionScale::Small => 200_000,
        ProductionScale::Medium => 800_000,
        ProductionScale::Full => 3_000_000,
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
    // Small enough relative to the working set that the eviction path (the
    // part the obs watermark samples) stays hot.
    let capacity = 25_000_000;

    let obs_config = || ObsConfig {
        window: ObsWindow::Requests(10_000),
        deterministic: true,
        ..ObsConfig::default()
    };
    let traced_config = || ObsConfig {
        trace_sample: 64,
        ..obs_config()
    };
    type Run<'a> = Box<dyn Fn() -> u64 + 'a>;
    let variants: Vec<(&str, Run)> = vec![
        ("plain", Box::new(|| replay(&trace, capacity, None))),
        (
            "obs",
            Box::new(|| replay(&trace, capacity, Some(obs_config()))),
        ),
        (
            "trace_sampled",
            Box::new(|| replay(&trace, capacity, Some(traced_config()))),
        ),
    ];

    // Warmup: one full round-robin pass per budget slice, then measured
    // rounds timing each variant once, back to back, until the budget
    // (scaled by variant count so each gets its usual share) runs out.
    let warmup = Duration::from_millis(env_ms("LHR_BENCH_WARMUP_MS", 300));
    let measure =
        Duration::from_millis(env_ms("LHR_BENCH_MEASURE_MS", 1_000) * variants.len() as u64);
    let start = Instant::now();
    while start.elapsed() < warmup {
        for (_, f) in &variants {
            black_box(f());
        }
    }

    let mut iters = 0u64;
    let mut min_ns = vec![f64::INFINITY; variants.len()];
    let mut max_ns = vec![0.0f64; variants.len()];
    let mut total_ns = vec![0.0f64; variants.len()];
    let measure_start = Instant::now();
    while measure_start.elapsed() < measure || iters < 2 {
        for (k, (_, f)) in variants.iter().enumerate() {
            let t = Instant::now();
            black_box(f());
            let ns = t.elapsed().as_nanos() as f64;
            min_ns[k] = min_ns[k].min(ns);
            max_ns[k] = max_ns[k].max(ns);
            total_ns[k] += ns;
        }
        iters += 1;
    }

    let results: Vec<BenchResult> = variants
        .iter()
        .enumerate()
        .map(|(k, (name, _))| BenchResult {
            name: format!("{requests}_{name}"),
            iters,
            min_ns: min_ns[k],
            mean_ns: total_ns[k] / iters as f64,
            max_ns: max_ns[k],
            elems_per_iter: Some(requests as u64),
        })
        .collect();
    for r in &results {
        println!(
            "sim_lru_replay/{:<24} {:>14.1} ns/iter  (min {:.1}, max {:.1}, {} iters)",
            r.name, r.mean_ns, r.min_ns, r.max_ns, r.iters
        );
    }

    let mut overhead_lines = Vec::new();
    for (k, (name, _)) in variants.iter().enumerate().skip(1) {
        let overhead_pct = (min_ns[k] / min_ns[0] - 1.0) * 100.0;
        println!(
            "{name} overhead: {overhead_pct:+.2}%  (plain {:.2} ms/replay, {name} {:.2} ms/replay, min-of-{iters})",
            min_ns[0] / 1e6,
            min_ns[k] / 1e6,
        );
        overhead_lines.push(Json::Object(vec![
            ("group".to_string(), "obs_overhead".to_json()),
            ("variant".to_string(), (*name).to_json()),
            ("requests".to_string(), (requests as u64).to_json()),
            ("plain_min_ns".to_string(), min_ns[0].to_json()),
            ("variant_min_ns".to_string(), min_ns[k].to_json()),
            ("overhead_pct".to_string(), overhead_pct.to_json()),
        ]));
    }

    if let Ok(path) = std::env::var("LHR_BENCH_JSON") {
        let group = Json::Object(vec![
            ("group".to_string(), "sim_lru_replay".to_json()),
            ("results".to_string(), results.to_json()),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                writeln!(f, "{group}")?;
                for line in &overhead_lines {
                    writeln!(f, "{line}")?;
                }
                Ok(())
            });
        if let Err(e) = appended {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    lhr_bench::harness::write_obs(&options);
}
