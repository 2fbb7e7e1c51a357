//! Same-bytes oracle for LHR through the sharded engine.
//!
//! Pins the stable report and every shard's learning-loop counters of
//! fixed-seed LHR replays, so a change to LHR's serve path that is meant to
//! be a pure speed-up cannot alter a single decision unseen. The pinned
//! values were recorded from the implementation that recomputed every
//! log-gap feature per request, probed the object map once per sample in
//! the eviction sampler, and fitted inline models on all cores.
//!
//! Metadata accounting is an estimate, not a decision: `peak_mem_gb` is
//! masked out of the pinned report and may only fall below its pinned
//! value.

use lhr_repro::core::cache::{LhrCache, LhrConfig, LhrStats};
use lhr_repro::proto::{EngineConfig, EngineReport, ShardedEngine};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::{CachePolicy, Outcome};
use lhr_repro::trace::synth::{production, ProductionScale};
use lhr_repro::trace::{ObjectId, Request, Trace, TraceStats};
use std::sync::{Arc, Mutex};

#[path = "common/pin.rs"]
mod pin;
use pin::pin;

/// Policy and trace seed (the CLI's default `--seed`).
const SEED: u64 = 42;

/// Per shard: (windows, trainings, threshold_updates, final_threshold bits).
type ShardStats = (u64, u64, u64, u64);

/// One pinned replay.
struct Pinned {
    shards: usize,
    config: LhrConfig,
    /// FNV-1a digest and byte length of the masked `stable_json()`.
    digest: u64,
    len: usize,
    /// The recorded `peak_mem_gb`; metadata accounting may only shrink.
    peak_mem_gb_ceiling: f64,
    stats: &'static [ShardStats],
}

/// Forwards every policy call (the fused `hit_check` included) and hands
/// the wrapped cache's [`LhrStats`] to `sink` when the engine drops it.
struct StatsOnDrop {
    shard: usize,
    inner: LhrCache,
    sink: Arc<Mutex<Vec<(usize, LhrStats)>>>,
}

impl CachePolicy for StatsOnDrop {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }
    fn handle(&mut self, req: &Request) -> Outcome {
        self.inner.handle(req)
    }
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        self.inner.hit_check(req)
    }
    fn evictions(&self) -> u64 {
        self.inner.evictions()
    }
    fn metadata_overhead_bytes(&self) -> u64 {
        self.inner.metadata_overhead_bytes()
    }
}

impl Drop for StatsOnDrop {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.push((self.shard, self.inner.stats()));
        }
    }
}

/// Small-scale CDN-A and its paper cache capacity.
fn cdn_a_small() -> (Trace, u64) {
    let trace = production::cdn_a(ProductionScale::Small, SEED);
    let stats = TraceStats::compute(&trace);
    let ratio = production::cache_to_unique_ratio(&trace.name);
    let capacity = ((stats.unique_bytes_requested as f64 * ratio) as u64).max(1);
    (trace, capacity)
}

fn replay(
    trace: &Trace,
    capacity: u64,
    pinned: &Pinned,
    threads: usize,
) -> (EngineReport, Vec<ShardStats>) {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let config = EngineConfig {
        n_shards: pinned.shards,
        route: RouteConfig {
            threads,
            ..RouteConfig::default()
        },
        ..EngineConfig::new(capacity)
    };
    let report = ShardedEngine::new(config).replay(trace, |shard, capacity, _obs| StatsOnDrop {
        shard,
        inner: LhrCache::new(
            capacity,
            LhrConfig {
                seed: shard_seed(SEED, shard),
                ..pinned.config.clone()
            },
        ),
        sink: Arc::clone(&sink),
    });
    let mut per_shard = std::mem::take(&mut *sink.lock().expect("sink"));
    per_shard.sort_by_key(|&(shard, _)| shard);
    assert_eq!(per_shard.len(), pinned.shards, "every shard reports");
    let stats = per_shard
        .into_iter()
        .map(|(_, s)| {
            (
                s.windows,
                s.trainings,
                s.threshold_updates,
                s.final_threshold.to_bits(),
            )
        })
        .collect();
    (report, stats)
}

/// The stable report with the metadata estimate masked out.
fn masked_json(report: &EngineReport) -> String {
    let mut masked = report.clone();
    masked.report.peak_mem_gb = 0.0;
    masked.stable_json()
}

/// Replays `pinned` at threads 1 and 2 and checks both against the pins.
fn check(pinned: &Pinned) {
    let (trace, capacity) = cdn_a_small();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2] {
        let (report, stats) = replay(&trace, capacity, pinned, threads);
        let json = masked_json(&report);
        assert_eq!(
            stats, pinned.stats,
            "threads {threads}: per-shard LHR stats diverged from the pinned run"
        );
        assert_eq!(
            pin(&json),
            (pinned.digest, pinned.len),
            "threads {threads}: stable report diverged from the pinned run:\n{json}"
        );
        assert!(
            report.report.peak_mem_gb <= pinned.peak_mem_gb_ceiling,
            "threads {threads}: metadata grew to {} GB (pinned {})",
            report.report.peak_mem_gb,
            pinned.peak_mem_gb_ceiling
        );
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(r, &json, "threads {threads} differs from threads 1"),
        }
    }
}

/// The paper's default LHR over 16 shards: each shard bootstraps one
/// model and serves the rest of the trace with it.
#[test]
fn default_lhr_16_shards_matches_pinned_bytes() {
    check(&Pinned {
        shards: 16,
        config: LhrConfig::default(),
        digest: 13329106819812022468,
        len: 726,
        peak_mem_gb_ceiling: 0.0070598,
        stats: &[
            (1, 1, 0, 4602678819172646912),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 1, 4603579539098121011),
            (1, 1, 1, 4600877379321698714),
            (1, 1, 1, 4600877379321698714),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 1, 4600877379321698714),
            (1, 1, 1, 4600877379321698714),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 0, 4602678819172646912),
            (1, 1, 1, 4600877379321698714),
            (1, 1, 0, 4602678819172646912),
        ],
    });
}

/// Small windows over 4 shards: many window edges per shard, so
/// detection, background retraining, model swaps and threshold updates
/// all shape the pinned decisions.
#[test]
fn small_window_lhr_4_shards_matches_pinned_bytes() {
    check(&Pinned {
        shards: 4,
        config: LhrConfig {
            min_window_requests: 1_024,
            ..LhrConfig::default()
        },
        digest: 17803614491795236322,
        len: 671,
        peak_mem_gb_ceiling: 0.003231984,
        stats: &[
            (9, 3, 1, 4603579539098121011),
            (8, 3, 0, 4602678819172646912),
            (8, 5, 3, 4603579539098121011),
            (8, 2, 0, 4602678819172646912),
        ],
    });
}

/// Inline (synchronous) retraining over 4 shards: every retrain is a
/// serving-thread fit followed by a serving-thread threshold evaluation.
#[test]
fn inline_retrain_lhr_4_shards_matches_pinned_bytes() {
    check(&Pinned {
        shards: 4,
        config: LhrConfig {
            min_window_requests: 1_024,
            background_retrain: false,
            detection: false,
            ..LhrConfig::default()
        },
        digest: 4847979748375736263,
        len: 672,
        peak_mem_gb_ceiling: 0.003245148,
        stats: &[
            (9, 9, 2, 4602678819172646912),
            (8, 8, 2, 4599075939470750516),
            (8, 8, 4, 4603579539098121011),
            (8, 8, 3, 4605380978949069209),
        ],
    });
}
