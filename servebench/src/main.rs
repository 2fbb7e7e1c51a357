//! The serving-path benchmark: LHR vs LRU through the sharded engine and a
//! faulted edge fleet, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload lhr-cdn-a --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the timing adapter and span recorders attached and prints
//! the per-layer metrics. Both check the outputs and print, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `METHOD.md` explains the workloads and metrics.

mod layers;
mod metrics;
mod sys;
mod timed;
mod workload;

use layers::RouteFloor;
use lhr_proto::engine::shard_skew;
use lhr_sim::shard::{route, shard_of, shard_seed, RouteConfig};
use lhr_trace::synth::ProductionScale;
use lhr_util::json::{Json, ToJson};
use metrics::{metric, Metric};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::time::Instant;
use timed::Probe;
use workload::{Replay, Setup, Workload};

/// The seed results are quoted at.
const DEFAULT_SEED: u64 = 42;
/// A seed used for nothing while the benchmark was written: later gains
/// are re-checked on it.
const HELD_OUT_SEED: u64 = 2_027;
/// Traces one run replays, each generated from `--seed`. LHR's cost
/// depends on how often its drift detector retrains on a given trace (16 to
/// 19 fits on CDN-A), so a run averages over several traces: a *round*
/// replays each of them once.
const TRACES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Fewest measured rounds.
const MIN_ROUNDS: usize = 3;
/// Runs of the route floor; the fastest is kept.
const ROUTE_FLOOR_RUNS: usize = 5;

const USAGE: &str = "usage: servebench --workload lhr-cdn-a|lru-cdn-a|fleet-churn-cdn-c \
[--seed N] [--seconds N] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Outcome of the checks made along a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Counts one replay, failing it with every problem found.
    fn replay(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Counts one replay whose stable report must equal `reference`.
    fn same_report(&mut self, what: &str, reference: &str, replay: &Replay) {
        let problems = if replay.report.stable_json() == reference {
            Vec::new()
        } else {
            vec!["stable_json() differs from the reference replay".to_string()]
        };
        self.replay(what, problems);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\ndefault seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}");
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload; `Ok(correct)` once the result line is printed.
fn run(args: &Args) -> Result<bool, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut checks = Checks::default();

    // Set up several times: `setup_s` is a median, and every set-up must
    // generate the same traces. Only one set of traces is alive at a time,
    // so the repeats do not raise the memory high-water mark.
    let (mut setup_times, mut gen_times) = (Vec::new(), Vec::new());
    let mut setups: Vec<Setup> = Vec::new();
    let mut fingerprints: Option<Vec<u64>> = None;
    for _ in 0..SETUP_RUNS {
        setups.clear();
        let start = Instant::now();
        setups = (0..TRACES)
            .map(|k| {
                let seed = shard_seed(args.seed, k);
                Setup::new(args.workload, ProductionScale::Full, seed, &out_dir)
            })
            .collect();
        setup_times.push(start.elapsed().as_secs_f64());
        gen_times.push(setups.iter().map(|s| s.gen_secs).sum::<f64>());
        let current: Vec<u64> = setups.iter().map(|s| fingerprint(&s.trace)).collect();
        if fingerprints
            .replace(current.clone())
            .is_some_and(|prev| prev != current)
        {
            checks
                .problems
                .push("trace generation is not a pure function of the seed".to_string());
        }
    }
    let setup_s = metrics::median(&setup_times);
    let gen_s = metrics::median(&gen_times);

    let host_cpus = sys::host_cpus();
    let threads = setups[0].effective_threads(host_cpus);
    for (k, setup) in setups.iter().enumerate() {
        let shape = &setup.shape;
        let context = Json::Object(vec![
            ("workload".to_string(), args.workload.name().to_json()),
            ("trace".to_string(), setup.trace.name.to_json()),
            (
                "rev".to_string(),
                sys::git_revision(Path::new(".")).to_json(),
            ),
            ("host_cpus".to_string(), host_cpus.to_json()),
            ("threads".to_string(), threads.to_json()),
            ("shards".to_string(), setup.n_shards().to_json()),
            ("rustc".to_string(), sys::rustc_version().to_json()),
            ("seed".to_string(), args.seed.to_json()),
            ("trace_seed".to_string(), shard_seed(args.seed, k).to_json()),
            ("requests".to_string(), shape.requests.to_json()),
            ("unique_objects".to_string(), shape.unique_objects.to_json()),
            ("unique_bytes".to_string(), shape.unique_bytes.to_json()),
            ("capacity".to_string(), shape.capacity.to_json()),
        ]);
        println!("context {context}");
    }

    // The first round warms caches and the allocator. Its reports are
    // checked and become the references every later replay must
    // reproduce; it is not timed.
    let mut first = Vec::with_capacity(TRACES);
    let mut peak_rss_mb = 0.0;
    for setup in &setups {
        let replay = setup.replay(threads, None, true)?;
        checks.replay(
            "replay",
            replay.report.problems(args.workload, &setup.shape),
        );
        first.push(replay);
        if first.len() == 1 {
            // The high-water mark of the set-up and one replay: later
            // replays on fresh worker threads only add allocator-arena
            // retention.
            peak_rss_mb = sys::peak_rss_mb();
        }
    }
    let references: Vec<String> = first.iter().map(|r| r.report.stable_json()).collect();

    let metrics = if args.trace {
        traced(
            args,
            &setups,
            &first,
            &references,
            threads,
            gen_s,
            &mut checks,
        )?
    } else {
        let mut metrics = untraced(args, &setups, &first, &references, threads, &mut checks)?;
        metrics.push(metric("setup_s", "s", setup_s));
        metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb));
        let mean = |f: &dyn Fn(&Replay) -> f64| first.iter().map(f).sum::<f64>() / TRACES as f64;
        metrics.push(metric(
            "metadata_mb",
            "MB",
            mean(&|r| r.report.metadata_mb()),
        ));
        metrics
    };

    // The determinism gate: the same replay on one thread reports the
    // same bytes, whatever the host's parallelism did above.
    checks.same_report(
        "threads=1 replay",
        &references[0],
        &setups[0].replay(1, None, true)?,
    );

    for m in &metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            checks
                .problems
                .push(format!("{} is not a finite number", m.name));
        }
    }
    if args.trace {
        if let Some(gap) = metrics.iter().find(|m| m.name == "reconcile_gap_pct") {
            if gap.value > layers::RECONCILE_TOLERANCE_PCT {
                println!(
                    "FLAG reconcile_gap_pct {:.2} % exceeds the {} % tolerance: the measured \
                     layers add up to more CPU than the replay used",
                    gap.value,
                    layers::RECONCILE_TOLERANCE_PCT
                );
            }
        }
    }
    for p in &checks.problems {
        println!("FAIL {p}");
    }
    let correct = checks.problems.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, checks.attempted, checks.failed, &metrics)
    );
    Ok(correct)
}

/// A hash of every request, to compare traces without keeping two alive.
fn fingerprint(trace: &lhr_trace::Trace) -> u64 {
    let mut h = DefaultHasher::new();
    for req in trace.iter() {
        (req.ts.as_micros(), req.id, req.size).hash(&mut h);
    }
    h.finish()
}

/// The end-to-end metrics but the set-up ones: rounds with nothing attached
/// beyond the workload's own recorder, for `--seconds` seconds. Report
/// metrics are means over the traces of a round.
fn untraced(
    args: &Args,
    setups: &[Setup],
    first: &[Replay],
    references: &[String],
    threads: usize,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let requests: f64 = setups.iter().map(|s| s.shape.requests as f64).sum();
    let start = Instant::now();
    let (mut rps, mut cpu_us) = (Vec::new(), Vec::new());
    while rps.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for (setup, reference) in setups.iter().zip(references) {
            let r = setup.replay(threads, None, true)?;
            checks.same_report("repeat replay", reference, &r);
            wall += r.wall_secs;
            cpu += r.cpu_secs;
        }
        rps.push(requests / wall);
        cpu_us.push(cpu / requests * 1e6);
    }
    let throughput = metrics::median(&rps);
    println!(
        "rounds {} of {} traces on {threads} threads; req/s min {:.0} median {:.0} max {:.0}",
        rps.len(),
        setups.len(),
        metrics::min(&rps),
        throughput,
        rps.iter().copied().fold(0.0, f64::max),
    );
    let mean = |f: &dyn Fn(&Replay) -> f64| first.iter().map(f).sum::<f64>() / first.len() as f64;
    let hit_pct = mean(&|r| r.report.hit_pct());
    let offload = first
        .iter()
        .zip(setups)
        .map(|(r, s)| r.report.origin_offload_pct(&s.shape))
        .sum::<f64>()
        / first.len() as f64;
    Ok(vec![
        metric("throughput_rps", "req/s", throughput),
        metric(
            "hits_per_s",
            "hit/s",
            metrics::hits_per_s(throughput, hit_pct),
        ),
        metric("hit_pct", "%", hit_pct),
        metric("origin_offload_pct", "%", offload),
        metric("p90_latency_ms", "ms", mean(&|r| r.report.latency_ms().0)),
        metric("p99_latency_ms", "ms", mean(&|r| r.report.latency_ms().1)),
        metric(
            "availability_pct",
            "%",
            mean(&|r| r.report.availability_pct()),
        ),
        metric("cpu_us_per_req", "us/req", metrics::median(&cpu_us)),
    ])
}

/// The per-layer metrics: rounds of an untraced replay, a traced replay
/// and — for the fleet — a replay without its recorder on every trace,
/// interleaved so the overheads compare like with like (min of N rounds).
/// Layer metrics are medians over all traced replays.
fn traced(
    args: &Args,
    setups: &[Setup],
    first: &[Replay],
    references: &[String],
    threads: usize,
    gen_s: f64,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let floor = route_floor(&setups[0], threads, checks);
    let fleet = args.workload == Workload::FleetChurnCdnC;
    let start = Instant::now();
    let (mut plain_s, mut traced_s, mut bare_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = Vec::new();
    while plain_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let (mut plain_round, mut traced_round, mut bare_round) = (0.0, 0.0, 0.0);
        for (setup, reference) in setups.iter().zip(references) {
            let plain = setup.replay(threads, None, true)?;
            checks.same_report("repeat replay", reference, &plain);
            plain_round += plain.wall_secs;
            let probe = Probe::default();
            let traced = setup.replay(threads, Some(&probe), true)?;
            checks.same_report("traced replay", reference, &traced);
            traced_round += traced.wall_secs;
            samples.push(layers::attribute(&traced, &probe, threads, floor));
            if fleet {
                let bare = setup.replay(threads, None, false)?;
                checks.same_report("replay without recorder", reference, &bare);
                bare_round += bare.wall_secs;
            }
        }
        plain_s.push(plain_round);
        traced_s.push(traced_round);
        bare_s.push(bare_round);
    }
    println!(
        "rounds {} of {} traces on {threads} threads",
        plain_s.len(),
        setups.len()
    );

    // The engine's shard split, recomputed from each trace; the engine
    // reports must agree.
    let mut imbalances = Vec::with_capacity(setups.len());
    for (setup, replay) in setups.iter().zip(first) {
        let mut per_shard = vec![0u64; setup.n_shards()];
        let n_shards = per_shard.len();
        for req in setup.trace.iter() {
            per_shard[shard_of(req.id, n_shards)] += 1;
        }
        let (imbalance, _) = shard_skew(&per_shard);
        let mismatch = replay
            .report
            .shard_imbalance()
            .is_some_and(|reported| reported != imbalance);
        checks.replay(
            "shard split",
            if mismatch {
                vec!["engine shard imbalance disagrees with the trace's shard split".to_string()]
            } else {
                Vec::new()
            },
        );
        imbalances.push(imbalance);
    }

    let replay_s = metrics::median(&plain_s) / setups.len() as f64;
    let mut out = vec![metric("trace.gen_s", "s", gen_s)];
    out.push(metric("sim.route_floor_s", "s", floor.wall_secs));
    out.push(metric("sim.route_floor_cpu_s", "s", floor.cpu_secs));
    out.push(metric(
        "sim.route_share_pct",
        "%",
        floor.wall_secs / replay_s * 100.0,
    ));
    out.extend(layers::median_by_name(&samples));
    out.push(metric(
        "proto.shard_imbalance",
        "ratio",
        metrics::median(&imbalances),
    ));
    out.push(metric(
        "obs.overhead_pct",
        "%",
        if fleet {
            metrics::overhead_pct(metrics::min(&bare_s), metrics::min(&plain_s))
        } else {
            0.0
        },
    ));
    out.push(metric(
        "trace_overhead_pct",
        "%",
        metrics::overhead_pct(metrics::min(&plain_s), metrics::min(&traced_s)),
    ));
    Ok(out)
}

/// The `sim` layer alone: `lhr_sim::shard::route` over the trace with the
/// workload's shard and thread counts and workers that only count.
fn route_floor(setup: &Setup, threads: usize, checks: &mut Checks) -> RouteFloor {
    let config = RouteConfig {
        threads,
        ..RouteConfig::default()
    };
    let mut best = RouteFloor {
        wall_secs: f64::INFINITY,
        cpu_secs: 0.0,
    };
    for _ in 0..ROUTE_FLOOR_RUNS {
        let (counts, wall_secs, cpu_secs) = workload::measure(|| {
            route(
                &setup.trace,
                vec![0u64; setup.n_shards()],
                &config,
                |count, _shard, _i, req| {
                    std::hint::black_box(req);
                    *count += 1;
                },
            )
        });
        let routed: u64 = counts.iter().sum();
        checks.replay(
            "route floor",
            if routed == setup.shape.requests {
                Vec::new()
            } else {
                vec![format!(
                    "routed {routed} of {} requests",
                    setup.shape.requests
                )]
            },
        );
        if wall_secs < best.wall_secs {
            best = RouteFloor {
                wall_secs,
                cpu_secs,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "lru-cdn-a",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::LruCdnA,
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        let d = parse(&["--workload", "fleet-churn-cdn-c"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "lru-cdn-a", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "lru-cdn-a", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "lru-cdn-a", "--seed"]).is_err());
        assert!(parse(&["--workload", "lru-cdn-a", "--bogus", "1"]).is_err());
    }
}
