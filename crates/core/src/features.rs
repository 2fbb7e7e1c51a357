//! Content feature extraction (§5.2.1): up to 20 inter-request times plus
//! static features.
//!
//! The feature vector layout is:
//!
//! | index | feature |
//! |-------|---------|
//! | 0     | ln(size in bytes) |
//! | 1     | ln(1 + requests seen so far) |
//! | 2     | ln(age since first request, seconds) |
//! | 3..3+K | ln(IRT₁..IRT_K in seconds); `NaN` where history is shorter |
//!
//! IRT₁ is the time since the last request, IRT₂ the gap between the two
//! previous requests, and so on — exactly the paper's definition. Missing
//! IRTs are `NaN`, which the GBM routes through learned default directions.

use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;
use std::collections::hash_map::Entry;

/// Number of static features preceding the IRTs.
pub const N_STATIC: usize = 3;

/// Per-object request history sufficient to produce features.
///
/// Past inter-request gaps never change once recorded, so each is stored
/// as its feature value (`ln` seconds) the moment it completes; rendering
/// a row then costs three logarithms (count, age, IRT₁) and a copy.
#[derive(Debug, Clone)]
pub struct ObjectHistory {
    /// Object size in bytes.
    pub size: u64,
    /// Time of the object's first observed request.
    pub first_seen: Time,
    /// Total requests observed.
    pub count: u64,
    /// Time of the most recent request (IRT₁ is measured from here).
    pub last: Time,
    /// `ln(size)`, the row's first feature, computed once.
    ln_size: f32,
    /// `ln_secs` of IRT₂, IRT₃, … — the gaps between past requests, newest
    /// first; at most `n_irts − 1` retained.
    gaps: Vec<f32>,
    /// Window index of the most recent request (for pruning).
    pub last_window: u64,
}

impl ObjectHistory {
    fn empty(gap_capacity: usize) -> Self {
        ObjectHistory {
            size: 0,
            first_seen: Time::ZERO,
            count: 0,
            last: Time::ZERO,
            ln_size: 0.0,
            gaps: Vec::with_capacity(gap_capacity),
            last_window: 0,
        }
    }
}

/// Tracks histories for all recently active objects and renders feature
/// rows.
#[derive(Debug)]
pub struct FeatureStore {
    /// Number of IRT features (the paper settles on 20; Figure 6 sweeps
    /// 10/20/30).
    pub n_irts: usize,
    objects: FastMap<ObjectId, ObjectHistory>,
    /// History shells reclaimed by [`Self::prune_before`] and reused for
    /// first sightings, so re-sighting a pruned object in steady state
    /// does not allocate a fresh `gaps` vector.
    spare: Vec<ObjectHistory>,
}

impl FeatureStore {
    /// A store producing `n_irts` IRT features.
    pub fn new(n_irts: usize) -> Self {
        assert!(n_irts >= 1);
        FeatureStore {
            n_irts,
            objects: FastMap::default(),
            spare: Vec::new(),
        }
    }

    /// Width of feature rows produced by [`FeatureStore::features`].
    pub fn n_features(&self) -> usize {
        N_STATIC + self.n_irts
    }

    /// Renders `id`'s feature row as of `ts` into `out` (`n_features()`
    /// wide), then records the request — one map probe for both. A first
    /// sighting renders the cold row: its size, zero count and age, and
    /// `NaN` IRTs.
    pub fn row_and_record(
        &mut self,
        id: ObjectId,
        size: u64,
        ts: Time,
        window: u64,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), self.n_features());
        let max_gaps = self.n_irts - 1;
        match self.objects.entry(id) {
            Entry::Occupied(slot) => {
                let h = slot.into_mut();
                render(h, ts, out);
                if max_gaps > 0 {
                    // Pop before inserting: the vector never outgrows its
                    // `with_capacity(n_irts − 1)` allocation, so a warm
                    // object's history never reallocates.
                    if h.gaps.len() == max_gaps {
                        h.gaps.pop();
                    }
                    h.gaps.insert(0, ln_secs(ts.saturating_sub(h.last)));
                }
                h.count += 1;
                h.last = ts;
                h.last_window = window;
            }
            Entry::Vacant(slot) => {
                let ln_size = (size.max(1) as f32).ln();
                out.fill(f32::NAN);
                out[0] = ln_size;
                out[1] = 0.0; // ln(1 + 0 prior requests)
                out[2] = ln_secs(Time::ZERO); // zero age
                                              // Prefer a shell reclaimed by pruning — its `gaps`
                                              // allocation is already the right capacity.
                let mut h = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| ObjectHistory::empty(max_gaps));
                h.size = size;
                h.ln_size = ln_size;
                h.first_seen = ts;
                h.count = 1;
                h.last = ts;
                h.gaps.clear();
                h.last_window = window;
                slot.insert(h);
            }
        }
    }

    /// Renders the feature row for `id` *as of time `now`*, or `None` if the
    /// object has never been recorded.
    pub fn features(&self, id: ObjectId, now: Time) -> Option<Vec<f32>> {
        let mut row = vec![f32::NAN; self.n_features()];
        self.row_into(id, now, &mut row).then_some(row)
    }

    /// In-place form of [`FeatureStore::features`]: fills `out` (which must
    /// be `n_features()` wide) and returns `true`, or returns `false`
    /// untouched for a never-recorded object.
    pub fn row_into(&self, id: ObjectId, now: Time, out: &mut [f32]) -> bool {
        debug_assert_eq!(out.len(), self.n_features());
        let Some(h) = self.objects.get(&id) else {
            return false;
        };
        render(h, now, out);
        true
    }

    /// Per-object history, if tracked.
    pub fn history(&self, id: ObjectId) -> Option<&ObjectHistory> {
        self.objects.get(&id)
    }

    /// Drops objects last requested before `horizon_window` (keeps the
    /// store bounded to a few windows of state, mirroring §5.1's "only use
    /// data within the window").
    pub fn prune_before(&mut self, horizon_window: u64) {
        let spare = &mut self.spare;
        self.objects.retain(|_, h| {
            let keep = h.last_window >= horizon_window;
            if !keep {
                // Reclaim the shell (with its `gaps` allocation) for the
                // next first sighting instead of dropping it.
                spare.push(std::mem::replace(h, ObjectHistory::empty(0)));
            }
            keep
        });
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Approximate metadata footprint in bytes.
    pub fn overhead_bytes(&self) -> u64 {
        ((self.objects.len() + self.spare.len()) * (48 + (self.n_irts + 1) * 8)) as u64
    }
}

/// Writes `h`'s feature row as of `now` into `out`.
fn render(h: &ObjectHistory, now: Time, out: &mut [f32]) {
    out[0] = h.ln_size;
    out[1] = (h.count as f32).ln_1p();
    out[2] = ln_secs(now.saturating_sub(h.first_seen));
    // IRT₁ = now − most recent request; IRT_{j>1} are the cached gaps.
    out[N_STATIC] = ln_secs(now.saturating_sub(h.last));
    let irts = &mut out[N_STATIC + 1..];
    irts[..h.gaps.len()].copy_from_slice(&h.gaps);
    irts[h.gaps.len()..].fill(f32::NAN);
}

fn ln_secs(t: Time) -> f32 {
    (t.as_secs_f64().max(1e-6) as f32).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FeatureStore {
        /// Records a request, discarding its rendered row.
        fn record(&mut self, id: ObjectId, size: u64, ts: Time, window: u64) {
            let mut row = vec![0f32; self.n_features()];
            self.row_and_record(id, size, ts, window, &mut row);
        }
    }

    #[test]
    fn features_have_expected_width_and_statics() {
        let mut fs = FeatureStore::new(20);
        fs.record(7, 1 << 20, Time::from_secs(10), 0);
        let row = fs.features(7, Time::from_secs(15)).expect("recorded");
        assert_eq!(row.len(), 23);
        assert!((row[0] - (1024.0f32 * 1024.0).ln()).abs() < 1e-4);
        assert!((row[1] - 1.0f32.ln_1p()).abs() < 1e-6);
        assert!((row[2] - 5.0f32.ln()).abs() < 1e-4); // age = 5 s
    }

    #[test]
    fn irt1_is_time_since_last_request() {
        let mut fs = FeatureStore::new(5);
        fs.record(1, 100, Time::from_secs(0), 0);
        fs.record(1, 100, Time::from_secs(4), 0);
        let row = fs.features(1, Time::from_secs(10)).expect("recorded");
        assert!((row[N_STATIC] - 6.0f32.ln()).abs() < 1e-4);
        // IRT₂ = 4 − 0.
        assert!((row[N_STATIC + 1] - 4.0f32.ln()).abs() < 1e-4);
        // IRT₃ missing.
        assert!(row[N_STATIC + 2].is_nan());
    }

    #[test]
    fn history_keeps_at_most_n_irts_minus_one_gaps() {
        let mut fs = FeatureStore::new(3);
        for t in 0..50 {
            fs.record(1, 100, Time::from_secs(t), 0);
        }
        assert_eq!(fs.history(1).expect("tracked").gaps.len(), 2);
        let row = fs.features(1, Time::from_secs(50)).expect("tracked");
        // All three IRTs present, each equal to 1 s.
        for j in 0..3 {
            assert!((row[N_STATIC + j] - 1.0f32.ln()).abs() < 1e-4, "irt {j}");
        }
    }

    #[test]
    fn single_irt_store_keeps_no_gaps() {
        let mut fs = FeatureStore::new(1);
        for t in 0..5 {
            fs.record(1, 100, Time::from_secs(t), 0);
        }
        let h = fs.history(1).expect("tracked");
        assert!(h.gaps.is_empty());
        assert_eq!(h.gaps.capacity(), 0, "n_irts = 1 allocates no gap storage");
        let row = fs.features(1, Time::from_secs(7)).expect("tracked");
        assert_eq!(row.len(), N_STATIC + 1);
        assert!((row[N_STATIC] - 3.0f32.ln()).abs() < 1e-4);
    }

    #[test]
    fn unknown_object_yields_none() {
        let fs = FeatureStore::new(4);
        assert!(fs.features(99, Time::ZERO).is_none());
    }

    #[test]
    fn pruning_drops_stale_objects() {
        let mut fs = FeatureStore::new(4);
        fs.record(1, 100, Time::from_secs(0), 0);
        fs.record(2, 100, Time::from_secs(1), 5);
        fs.prune_before(3);
        assert!(fs.features(1, Time::from_secs(2)).is_none());
        assert!(fs.features(2, Time::from_secs(2)).is_some());
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn count_accumulates_across_windows() {
        let mut fs = FeatureStore::new(2);
        for w in 0..5u64 {
            fs.record(1, 100, Time::from_secs(w), w);
        }
        assert_eq!(fs.history(1).expect("tracked").count, 5);
    }

    /// The timestamp-based history the cached-gap store replaced: keeps
    /// the last `n_irts + 1` request times and recomputes every
    /// `ln_secs` gap on each render.
    struct ReferenceStore {
        n_irts: usize,
        objects: std::collections::HashMap<ObjectId, (u64, Time, u64, Vec<Time>, u64)>,
    }

    impl ReferenceStore {
        fn record(&mut self, id: ObjectId, size: u64, ts: Time, window: u64) {
            let keep = self.n_irts + 1;
            let h = self
                .objects
                .entry(id)
                .or_insert_with(|| (size, ts, 0, Vec::new(), window));
            h.2 += 1;
            h.4 = window;
            if h.3.len() >= keep {
                h.3.remove(0);
            }
            h.3.push(ts);
        }

        /// The row as of `now`; a never-seen object gets the cold row the
        /// serve path renders for a first sighting.
        fn row(&self, id: ObjectId, size: u64, now: Time) -> Vec<f32> {
            let mut out = vec![f32::NAN; N_STATIC + self.n_irts];
            let Some(&(seen_size, first_seen, count, ref times, _)) = self.objects.get(&id) else {
                out[0] = (size.max(1) as f32).ln();
                out[1] = 0.0;
                out[2] = (1e-6f32).ln();
                return out;
            };
            out[0] = (seen_size.max(1) as f32).ln();
            out[1] = (count as f32).ln_1p();
            out[2] = ln_secs(now.saturating_sub(first_seen));
            if let Some(&last) = times.last() {
                out[N_STATIC] = ln_secs(now.saturating_sub(last));
            }
            for j in 1..self.n_irts {
                if times.len() > j {
                    let a = times[times.len() - j - 1];
                    let b = times[times.len() - j];
                    out[N_STATIC + j] = ln_secs(b.saturating_sub(a));
                } else {
                    break;
                }
            }
            out
        }

        fn prune_before(&mut self, horizon: u64) {
            self.objects.retain(|_, h| h.4 >= horizon);
        }
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Cached-gap rows are bit-identical to timestamp-based rows over
    /// random histories — repeated and backward timestamps, pruning and
    /// shell reuse included — for 1, 2 and 20 IRT features.
    #[test]
    fn cached_gap_rows_match_timestamp_reference_bitwise() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::rng::rngs::SmallRng;
        use lhr_util::rng::{Rng, SeedableRng};
        use lhr_util::{prop_assert_eq, prop_check};
        prop_check!(cases: 48, (seed in any_u64(), n_ops in range(1usize..1_500), pick in range(0usize..3)) => {
            let n_irts = [1, 2, 20][pick];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut store = FeatureStore::new(n_irts);
            let mut reference = ReferenceStore { n_irts, objects: Default::default() };
            let mut row = vec![0f32; store.n_features()];
            let (mut now, mut window) = (Time::from_secs(1), 0u64);
            for _ in 0..n_ops {
                // Mostly forward time, with repeats and occasional jumps back.
                now = match rng.gen_range(0..10u32) {
                    0 => now,
                    1 => now.saturating_sub(Time::from_micros(rng.gen_range(0..5_000_000))),
                    _ => now + Time::from_micros(rng.gen_range(1..50_000_000)),
                };
                let id = rng.gen_range(0..40u64);
                let size = rng.gen_range(0..3_000_000u64);
                match rng.gen_range(0..20u32) {
                    0 => {
                        window += 1;
                        let horizon = window.saturating_sub(rng.gen_range(0..3));
                        store.prune_before(horizon);
                        reference.prune_before(horizon);
                        prop_assert_eq!(store.len(), reference.objects.len());
                    }
                    1..=3 => {
                        let rendered = store.row_into(id, now, &mut row);
                        prop_assert_eq!(rendered, reference.objects.contains_key(&id));
                        if rendered {
                            prop_assert_eq!(bits(&row), bits(&reference.row(id, size, now)));
                        }
                    }
                    _ => {
                        let want = reference.row(id, size, now);
                        row.fill(0.0);
                        store.row_and_record(id, size, now, window, &mut row);
                        reference.record(id, size, now, window);
                        prop_assert_eq!(bits(&row), bits(&want), "n_irts {}", n_irts);
                    }
                }
            }
        });
    }
}
