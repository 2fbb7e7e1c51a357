//! Counting-allocator proof of the alloc-free steady state (PR 8
//! acceptance): after a warm first pass, LRU replay performs **zero**
//! heap allocations per request — including eviction churn, which
//! exercises `ObjectTable`'s in-place tombstone rehash — and LHR
//! allocates only at retrain/window boundaries, never on the per-request
//! serve path.
//!
//! This file is its own test binary because `#[global_allocator]` is
//! process-wide; keeping it out of the other integration suites means
//! their allocation patterns can't pollute the counters. The tests here
//! still share the process, and the harness runs them concurrently, so
//! each holds [`QUIET`] for its whole body: the counter is read as a delta
//! around the measured loop while no other test allocates.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::policies::Lru;
use lhr_repro::sim::CachePolicy;
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocator entry point; frees are not counted (a free in
/// steady state is fine, a fresh allocation is the regression).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Serializes the tests of this binary: the allocation counter is
/// process-wide, so one test's allocations would land in the other's
/// measured delta.
static QUIET: Mutex<()> = Mutex::new(());

/// Takes [`QUIET`]; a test that panicked while holding it leaves nothing
/// behind that matters, so poisoning is ignored.
fn quiet() -> MutexGuard<'static, ()> {
    QUIET
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fixed-population Zipf trace: every measured request re-references an
/// object seen during the warm pass, so steady state adds no new keys.
fn fixed_population_trace(seed: u64, n_objects: usize, n_requests: usize) -> Trace {
    IrmConfig::new(n_objects, n_requests)
        .zipf_alpha(0.8)
        .size_model(SizeModel::Fixed { bytes: 4_000 })
        .seed(seed)
        .generate()
}

#[test]
fn lru_steady_state_replay_is_allocation_free() {
    let _quiet = quiet();
    let trace = fixed_population_trace(7, 4_000, 200_000);
    // Capacity holds 1/4 of the population: plenty of hits *and* constant
    // miss→evict churn, so the zero-alloc claim covers the whole handle
    // surface (probe, splice, evict, tombstone reuse, in-place rehash).
    let mut lru = Lru::new(1_000 * 4_000);
    for req in trace.iter() {
        lru.handle(req);
    }
    let hits_before = lru.evictions();

    let before = allocs();
    let mut hits = 0u64;
    for req in trace.iter() {
        if lru.handle(req) == lhr_repro::sim::Outcome::Hit {
            hits += 1;
        }
    }
    let delta = allocs() - before;

    assert!(hits > 0, "sanity: the measured pass must hit");
    assert!(
        lru.evictions() > hits_before,
        "sanity: the measured pass must churn evictions"
    );
    assert_eq!(
        delta,
        0,
        "LRU steady-state replay allocated {delta} times over {} requests",
        trace.len()
    );
}

#[test]
fn lhr_steady_state_allocates_only_at_window_boundaries() {
    let _quiet = quiet();
    let trace = fixed_population_trace(11, 3_000, 60_000);
    // Capacity 400 objects against a 3_000-object population: the 4×
    // unique-bytes window target (6.4 MB) is crossed several times per
    // pass, so the measured pass sees real window edges and retrains.
    let mut lhr = LhrCache::new(
        400 * 4_000,
        LhrConfig {
            seed: 11,
            // Inline retrain pins all training allocations to the window
            // edge itself instead of smearing them over a worker thread.
            background_retrain: false,
            min_window_requests: 2_048,
            ..LhrConfig::default()
        },
    );
    // Warm pass: populate the object metadata, size the recycled window
    // buffers, train the first models.
    for req in trace.iter() {
        lhr.handle(req);
    }

    // Measured pass: per-request allocation deltas. The serve path itself
    // (feature row, prediction, admission, eviction) must be alloc-free;
    // only a window-edge request may allocate (labeling, training,
    // threshold refresh).
    let mut allocating_requests = 0u64;
    let mut clean_requests = 0u64;
    for req in trace.iter() {
        let before = allocs();
        lhr.handle(req);
        if allocs() > before {
            allocating_requests += 1;
        } else {
            clean_requests += 1;
        }
    }

    // Windows close every >= min_window_requests, so the measured pass
    // crosses at most len / min_window_requests edges (plus slack for the
    // first window after the warm pass and a mid-window buffer growth).
    let max_edges = (trace.len() / 2_048 + 4) as u64;
    assert!(
        allocating_requests <= max_edges,
        "{allocating_requests} requests allocated; only ~{max_edges} window edges expected"
    );
    assert!(
        clean_requests >= (trace.len() as u64 / 100) * 99,
        "steady-state serve path must be ≥99% allocation-free \
         ({clean_requests} clean of {})",
        trace.len()
    );
}
