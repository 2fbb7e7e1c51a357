//! Helpers shared by the integration tests.

use lhr_repro::sim::{CachePolicy, Outcome};
use lhr_repro::trace::{ObjectId, Request};

/// Forwards every policy call to `inner` and, after each `handle` and
/// `hit_check`, asserts the policy's invariants: it never holds more bytes
/// than its capacity, and never holds an object larger than that capacity.
/// Wrap the policy slices a serving path builds to check every slice on
/// every request, wherever the slice lives (an engine shard, a fleet node).
pub struct CapacityChecked<P> {
    inner: P,
}

impl<P: CachePolicy> CapacityChecked<P> {
    pub fn new(inner: P) -> Self {
        CapacityChecked { inner }
    }

    fn check(&self, req: &Request) {
        let (used, capacity) = (self.inner.used_bytes(), self.inner.capacity());
        assert!(
            used <= capacity,
            "{}: {used} bytes cached in a {capacity}-byte slice",
            self.inner.name()
        );
        assert!(
            req.size <= capacity || !self.inner.contains(req.id),
            "{}: admitted object {} of {} bytes into a {capacity}-byte slice",
            self.inner.name(),
            req.id,
            req.size
        );
    }
}

impl<P: CachePolicy> CachePolicy for CapacityChecked<P> {
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
        let outcome = self.inner.handle(req);
        self.check(req);
        outcome
    }
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        let outcome = self.inner.hit_check(req);
        self.check(req);
        outcome
    }
    fn evictions(&self) -> u64 {
        self.inner.evictions()
    }
    fn metadata_overhead_bytes(&self) -> u64 {
        self.inner.metadata_overhead_bytes()
    }
}
