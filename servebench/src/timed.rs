//! The `policies`-layer probe: a forwarding [`CachePolicy`] adapter that
//! times every call into the policy it wraps.
//!
//! The adapter lives in the benchmark, outside the program: the engine
//! sees an ordinary policy. Each wrapped shard keeps its tally locally (no
//! shared state on the request path) and hands it to a shared [`Probe`]
//! when the engine drops the policy — at the end of the replay, or
//! mid-replay when a fleet node's cold restart rebuilds its slice.

use lhr::cache::LhrStats;
use lhr::LhrCache;
use lhr_obs::{Obs, ObsConfig};
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Sub-buckets per power of two in [`CallHist`]: quantiles carry at most
/// 1/16 (6.25 %) relative error.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;

/// A log-linear histogram of call durations in nanoseconds: fixed size, so
/// recording never allocates on the request path.
#[derive(Clone)]
pub struct CallHist {
    counts: Vec<u64>,
    max_ns: u64,
}

impl Default for CallHist {
    fn default() -> Self {
        CallHist {
            counts: vec![0; 64 * SUBS],
            max_ns: 0,
        }
    }
}

impl CallHist {
    fn bucket(ns: u64) -> usize {
        if ns < SUBS as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) as usize & (SUBS - 1);
        (exp - SUB_BITS + 1) as usize * SUBS + sub
    }

    /// The smallest duration that lands in bucket `b`.
    fn lower_bound(b: usize) -> u64 {
        if b < SUBS {
            return b as u64;
        }
        let exp = (b / SUBS) as u32 + SUB_BITS - 1;
        (1u64 << exp) | ((b % SUBS) as u64) << (exp - SUB_BITS)
    }

    /// Records one call of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &CallHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Recorded calls.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (0 < q ≤ 1) as its bucket's lower bound, in ns;
    /// 0 when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(b).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The longest recorded call, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }
}

/// What one wrapped policy instance did over its lifetime.
#[derive(Clone, Default)]
pub struct Tally {
    /// The worker thread that made the calls (one shard is served by
    /// exactly one worker).
    pub thread: Option<ThreadId>,
    /// Wall nanoseconds spent inside policy calls.
    pub busy_ns: u64,
    /// Per-call durations.
    pub hist: CallHist,
    /// `handle` calls that admitted the missed object.
    pub admitted: u64,
    /// `handle` calls that bypassed it.
    pub bypassed: u64,
    /// Evictions the policy reports at the end of its life.
    pub evictions: u64,
    /// `LhrCache::stats()` at the end of its life; `None` for other
    /// policies.
    pub lhr: Option<LhrStats>,
}

/// Collects what the layers below the engine reported during one replay:
/// the tally of every wrapped policy, and the span recorders handed to
/// LHR shards.
#[derive(Clone, Default)]
pub struct Probe {
    tallies: Arc<Mutex<Vec<Tally>>>,
    recorders: Arc<Mutex<Vec<Obs>>>,
}

impl Probe {
    /// Tallies handed in so far, in drop order.
    pub fn tallies(&self) -> Vec<Tally> {
        self.tallies
            .lock()
            .expect("a wrapped policy panicked while handing in its tally")
            .clone()
    }

    /// A fresh wall-clock recorder for one LHR shard's learning-loop spans
    /// (`lhr.*`, `gbm.*`) and counters.
    pub fn lhr_recorder(&self) -> Obs {
        let obs = Obs::new(ObsConfig::default());
        self.recorders
            .lock()
            .expect("a shard build closure panicked while registering its recorder")
            .push(obs.clone());
        obs
    }

    /// The recorders handed out so far.
    pub fn recorders(&self) -> Vec<Obs> {
        self.recorders
            .lock()
            .expect("a shard build closure panicked while registering its recorder")
            .clone()
    }
}

/// Reads the learning layer's counters off a policy being retired.
pub trait LayerStats {
    /// `Some` for LHR, `None` for policies without a learning loop.
    fn lhr_stats(&self) -> Option<LhrStats>;
}

impl LayerStats for LhrCache {
    fn lhr_stats(&self) -> Option<LhrStats> {
        Some(self.stats())
    }
}

impl LayerStats for lhr_policies::Lru {
    fn lhr_stats(&self) -> Option<LhrStats> {
        None
    }
}

/// The forwarding adapter. Every [`CachePolicy`] method except `name` —
/// which hands back a borrowed string and does no work — is timed.
pub struct Timed<P: CachePolicy + LayerStats> {
    inner: P,
    // `&self` methods (`contains`, `evictions`, ...) are timed too, so the
    // tally needs interior mutability; one shard is one thread's, so a
    // `RefCell` never contends.
    tally: RefCell<Tally>,
    probe: Probe,
}

/// Runs `call`, crediting its wall time to `tally`.
#[inline]
fn timed<R>(tally: &RefCell<Tally>, call: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = call();
    let ns = start.elapsed().as_nanos() as u64;
    let mut tally = tally.borrow_mut();
    tally.busy_ns += ns;
    tally.hist.record(ns);
    out
}

impl<P: CachePolicy + LayerStats> Timed<P> {
    /// Wraps `inner`; its tally reaches `probe` when the adapter drops.
    pub fn new(inner: P, probe: &Probe) -> Self {
        Timed {
            inner,
            tally: RefCell::new(Tally::default()),
            probe: probe.clone(),
        }
    }

    /// Notes the serving thread and what a `handle` decided.
    fn count(&mut self, outcome: Option<Outcome>) {
        let tally = self.tally.get_mut();
        tally
            .thread
            .get_or_insert_with(|| std::thread::current().id());
        match outcome {
            Some(Outcome::MissAdmitted) => tally.admitted += 1,
            Some(Outcome::MissBypassed) => tally.bypassed += 1,
            Some(Outcome::Hit) | None => {}
        }
    }
}

impl<P: CachePolicy + LayerStats> Drop for Timed<P> {
    fn drop(&mut self) {
        let mut tally = std::mem::take(self.tally.get_mut());
        tally.evictions = self.inner.evictions();
        tally.lhr = self.inner.lhr_stats();
        // A poisoned lock means another shard already panicked; that panic
        // is the one to report, so this tally is dropped quietly.
        if let Ok(mut tallies) = self.probe.tallies.lock() {
            tallies.push(tally);
        }
    }
}

impl<P: CachePolicy + LayerStats> CachePolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capacity(&self) -> u64 {
        timed(&self.tally, || self.inner.capacity())
    }

    fn used_bytes(&self) -> u64 {
        timed(&self.tally, || self.inner.used_bytes())
    }

    fn contains(&self, id: ObjectId) -> bool {
        timed(&self.tally, || self.inner.contains(id))
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        let outcome = timed(&self.tally, || self.inner.handle(req));
        self.count(Some(outcome));
        outcome
    }

    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        let outcome = timed(&self.tally, || self.inner.hit_check(req));
        self.count(outcome);
        outcome
    }

    fn evictions(&self) -> u64 {
        timed(&self.tally, || self.inner.evictions())
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        timed(&self.tally, || self.inner.metadata_overhead_bytes())
    }
}
