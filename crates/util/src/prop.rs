//! Minimal property-based testing: random generators with shrinking and
//! the [`prop_check!`] macro. Replaces `proptest` for this workspace.
//!
//! A property is an ordinary block of assertions over one or more named
//! inputs, each drawn from a [`Gen`]. On failure the framework **shrinks**:
//! it greedily walks each input toward its simplest form (integers toward
//! the range start, vectors toward shorter ones) as long as the property
//! keeps failing, then panics with the minimized counterexample, the case
//! number, and the seed.
//!
//! Runs are fully deterministic: the master seed is a fixed constant,
//! overridable with the `LHR_PROP_SEED` env var; the case count is
//! overridable with `LHR_PROP_CASES`.
//!
//! # Example
//!
//! ```
//! use lhr_util::{prop_check, prop_assert, prop_assert_eq, prop};
//!
//! // Reversing twice is the identity; addition commutes.
//! prop_check!(cases: 64, (xs in prop::vec(prop::range(0u64..100), 0..20),
//!                          a in prop::range(0u64..1000),
//!                          b in prop::range(0u64..1000)) => {
//!     let mut twice = xs.clone();
//!     twice.reverse();
//!     twice.reverse();
//!     prop_assert_eq!(&twice, &xs);
//!     prop_assert!(a + b == b + a, "addition must commute: {} {}", a, b);
//! });
//! ```

use crate::rng::{Rng, SeedableRng, UniformRange, Xoshiro256pp};
use std::ops::Range;
use std::rc::Rc;

/// Default number of cases when `prop_check!` is invoked without `cases:`.
pub const DEFAULT_CASES: usize = 256;

/// Master seed used when `LHR_PROP_SEED` is not set. Fixed so CI failures
/// reproduce locally with no extra flags.
pub const DEFAULT_SEED: u64 = 0xC0FF_EE00_D15E_A5E5;

/// A reusable value generator: a sampling function plus a shrinker that
/// proposes strictly "simpler" candidates for a failing value.
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut Xoshiro256pp) -> T>,
    shrink: Shrinker<T>,
}

/// Proposes simpler candidates for a failing value.
type Shrinker<T> = Rc<dyn Fn(&T) -> Vec<T>>;

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            sample: Rc::clone(&self.sample),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T> Gen<T> {
    /// Builds a generator from a sampler and a shrinker. The shrinker must
    /// eventually return no (new) candidates so shrinking terminates; the
    /// driver additionally caps shrink rounds.
    pub fn new(
        sample: impl Fn(&mut Xoshiro256pp) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Gen {
            sample: Rc::new(sample),
            shrink: Rc::new(shrink),
        }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> T {
        (self.sample)(rng)
    }

    /// Simpler candidates for `value` (possibly empty).
    pub fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }
}

/// Types usable with [`range`]: uniform sampling over `lo..hi` plus
/// shrinking toward `lo`.
pub trait Arbitrary: UniformRange + Copy + PartialEq + 'static {
    /// Candidates strictly between `lo` (inclusive) and `value`
    /// (exclusive), simplest first.
    fn shrink_toward(lo: Self, value: Self) -> Vec<Self>;
}

macro_rules! arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn shrink_toward(lo: Self, value: Self) -> Vec<Self> {
                let mut out = Vec::new();
                if value > lo {
                    out.push(lo);
                    let half = lo + (value - lo) / 2;
                    if half != lo && half != value {
                        out.push(half);
                    }
                    if value - 1 != half && value - 1 != lo {
                        out.push(value - 1);
                    }
                }
                out
            }
        }
    )+};
}

arbitrary_int!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! arbitrary_float {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn shrink_toward(lo: Self, value: Self) -> Vec<Self> {
                let mut out = Vec::new();
                let span = value - lo;
                // Stop proposing once the value is within a relative hair of
                // `lo`, so greedy shrinking terminates.
                if span > <$t>::EPSILON * (1.0 + lo.abs()) * 4.0 {
                    out.push(lo);
                    out.push(lo + span / 2.0);
                }
                out
            }
        }
    )+};
}

arbitrary_float!(f32, f64);

/// Uniform generator over the half-open range `lo..hi`, shrinking toward
/// `lo`.
pub fn range<T: Arbitrary>(r: Range<T>) -> Gen<T> {
    let lo = r.start;
    Gen::new(
        move |rng| rng.gen_range(r.clone()),
        move |v| T::shrink_toward(lo, *v),
    )
}

/// Full-range `u64` (ids, seeds), shrinking toward 0 by halving.
pub fn any_u64() -> Gen<u64> {
    Gen::new(
        |rng| rng.next_u64(),
        |&v| {
            let mut out = Vec::new();
            if v > 0 {
                out.push(0);
                if v > 1 {
                    out.push(v / 2);
                    out.push(v - 1);
                }
            }
            out
        },
    )
}

/// Vector generator: length uniform in `len` (half-open), elements drawn
/// from `elem`. Shrinks by truncating toward the minimum length, dropping
/// single elements, and shrinking individual elements.
pub fn vec<T: Clone + PartialEq + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    assert!(len.start < len.end, "vec: empty length range");
    let min_len = len.start;
    let shrink_elem = elem.clone();
    Gen::new(
        move |rng| {
            let n = rng.gen_range(len.clone());
            (0..n).map(|_| elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            let n = v.len();
            if n > min_len {
                // Truncations: minimum, halfway.
                out.push(v[..min_len].to_vec());
                let half = min_len + (n - min_len) / 2;
                if half != min_len && half != n {
                    out.push(v[..half].to_vec());
                }
                // Dropping one element (first / last).
                let mut headless = v.clone();
                headless.remove(0);
                out.push(headless);
                if n > 1 {
                    out.push(v[..n - 1].to_vec());
                }
            }
            // Element-wise: replace each of the first few elements with its
            // first shrink candidate.
            for i in 0..n.min(8) {
                if let Some(simpler) = shrink_elem.shrink(&v[i]).into_iter().next() {
                    let mut copy = v.clone();
                    copy[i] = simpler;
                    out.push(copy);
                }
            }
            out.retain(|c| c != v);
            out
        },
    )
}

/// Fixed-length vector generator (no length shrinking; elements shrink).
pub fn vec_exact<T: Clone + PartialEq + 'static>(elem: Gen<T>, n: usize) -> Gen<Vec<T>> {
    let shrink_elem = elem.clone();
    Gen::new(
        move |rng| (0..n).map(|_| elem.sample(rng)).collect(),
        move |v: &Vec<T>| {
            let mut out = Vec::new();
            for i in 0..v.len().min(8) {
                if let Some(simpler) = shrink_elem.shrink(&v[i]).into_iter().next() {
                    let mut copy = v.clone();
                    copy[i] = simpler;
                    out.push(copy);
                }
            }
            out.retain(|c| c != v);
            out
        },
    )
}

/// Reads a `usize` configuration override from the environment.
pub fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` configuration override from the environment.
pub fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Derives the per-case RNG from the master seed and case index.
pub fn case_rng(master: u64, case: usize) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(
        master.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// A tuple of generators, drivable as one unit — what [`prop_check!`]
/// expands onto. Implemented for 1- to 6-tuples of [`Gen`].
pub trait GenTuple {
    /// The tuple of generated values.
    type Values: Clone;

    /// Samples every component.
    fn sample(&self, rng: &mut Xoshiro256pp) -> Self::Values;

    /// One greedy shrink pass: for each component in turn, adopts the first
    /// candidate that still fails `prop` (updating `msg`). Returns whether
    /// anything was adopted.
    fn shrink_round(
        &self,
        vals: &mut Self::Values,
        prop: &dyn Fn(&Self::Values) -> Result<(), String>,
        msg: &mut String,
    ) -> bool;
}

macro_rules! gen_tuple {
    ($(($($T:ident $idx:tt),+);)+) => {$(
        impl<$($T: Clone + 'static),+> GenTuple for ($(Gen<$T>,)+) {
            type Values = ($($T,)+);

            fn sample(&self, rng: &mut Xoshiro256pp) -> Self::Values {
                ($(self.$idx.sample(rng),)+)
            }

            fn shrink_round(
                &self,
                vals: &mut Self::Values,
                prop: &dyn Fn(&Self::Values) -> Result<(), String>,
                msg: &mut String,
            ) -> bool {
                let mut improved = false;
                $(
                    for cand in self.$idx.shrink(&vals.$idx) {
                        let saved = std::mem::replace(&mut vals.$idx, cand);
                        match prop(vals) {
                            Err(e) => {
                                *msg = e;
                                improved = true;
                                break;
                            }
                            Ok(()) => vals.$idx = saved,
                        }
                    }
                )+
                improved
            }
        }
    )+};
}

gen_tuple! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// The [`prop_check!`] driver: runs `prop` over `cases` sampled inputs,
/// shrinking the first failure to a local minimum before panicking with
/// `show`'s rendering of the counterexample.
pub fn run_cases<G, P, S>(cases: usize, master: u64, gens: G, prop: P, show: S)
where
    G: GenTuple,
    P: Fn(&G::Values) -> Result<(), String>,
    S: Fn(&G::Values) -> String,
{
    for case in 0..cases {
        let mut rng = case_rng(master, case);
        let mut vals = gens.sample(&mut rng);
        if let Err(first) = prop(&vals) {
            let mut msg = first;
            let mut rounds = 0usize;
            while gens.shrink_round(&mut vals, &prop, &mut msg) {
                rounds += 1;
                if rounds >= 200 {
                    break;
                }
            }
            panic!(
                "property failed (case {case}/{cases}, master seed {master}):\n  {msg}\n  minimized arguments:\n{}",
                show(&vals)
            );
        }
    }
}

/// Runs a property over `cases` random inputs and shrinks failures.
///
/// Syntax mirrors a closure whose parameters are drawn from generators:
///
/// ```text
/// prop_check!(cases: 64, (x in prop::range(0u64..10), ys in prop::vec(...)) => {
///     prop_assert!(...);
/// });
/// ```
///
/// Inside the body each name is an **owned clone** of the generated value,
/// and [`prop_assert!`]/[`prop_assert_eq!`] abort the case with a message
/// instead of panicking (so the shrinker can re-run the body). The
/// minimized counterexample is reported via `panic!`, with the case index
/// and seed needed to replay it.
#[macro_export]
macro_rules! prop_check {
    (($($name:ident in $gen:expr),+ $(,)?) => $body:block) => {
        $crate::prop_check!(cases: $crate::prop::DEFAULT_CASES, ($($name in $gen),+) => $body)
    };
    (cases: $cases:expr, ($($name:ident in $gen:expr),+ $(,)?) => $body:block) => {{
        let __cases: usize = $crate::prop::env_usize("LHR_PROP_CASES", $cases);
        let __master: u64 = $crate::prop::env_u64("LHR_PROP_SEED", $crate::prop::DEFAULT_SEED);
        let __gens = ($($gen,)+);
        $crate::prop::run_cases(
            __cases,
            __master,
            __gens,
            |__vals| {
                let ($($name,)+) = ::std::clone::Clone::clone(__vals);
                $(let _ = &$name;)+
                { $body }
                ::std::result::Result::Ok(())
            },
            |__vals| {
                let ($(ref $name,)+) = *__vals;
                [$(format!("    {} = {:?}", stringify!($name), $name)),+].join("\n")
            },
        );
    }};
}

/// Fails the current property case unless the condition holds. Only usable
/// inside a [`prop_check!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "{} ({}:{})", format!($($fmt)+), file!(), line!()
            ));
        }
    };
}

/// Equality form of [`prop_assert!`], printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?} ({}:{})",
                stringify!($left), stringify!($right), __l, __r, file!(), line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err(format!(
                "{}\n    left: {:?}\n   right: {:?} ({}:{})",
                format!($($fmt)+), __l, __r, file!(), line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        prop_check!(cases: 50, (x in range(0u64..100), y in range(0u64..100)) => {
            prop_assert!(x + y < 200);
            prop_assert_eq!(x + y, y + x);
        });
    }

    #[test]
    fn generators_respect_ranges() {
        prop_check!(cases: 200, (x in range(5usize..10), f in range(-1.5f64..1.5)) => {
            prop_assert!((5..10).contains(&x), "usize escaped: {}", x);
            prop_assert!((-1.5..1.5).contains(&f), "f64 escaped: {}", f);
        });
    }

    #[test]
    fn vec_lengths_respect_range() {
        prop_check!(cases: 100, (v in vec(range(0u8..3), 2..7)) => {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 3));
        });
    }

    #[test]
    fn vec_exact_is_exact() {
        prop_check!(cases: 50, (v in vec_exact(range(-5.0f32..5.0), 4)) => {
            prop_assert_eq!(v.len(), 4);
        });
    }

    #[test]
    fn failure_shrinks_to_the_boundary() {
        // The property "x < 70" over 0..100 must minimize to exactly 70.
        let caught = std::panic::catch_unwind(|| {
            prop_check!(cases: 300, (x in range(0u64..100)) => {
                prop_assert!(x < 70);
            });
        });
        let msg = *caught
            .expect_err("property should fail")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("x = 70"), "shrinker stopped early: {msg}");
    }

    #[test]
    fn failure_shrinks_vectors() {
        // "no vector contains a 9" minimizes to a single-element [9].
        let caught = std::panic::catch_unwind(|| {
            prop_check!(cases: 300, (v in vec(range(0u64..10), 1..50)) => {
                prop_assert!(!v.contains(&9));
            });
        });
        let msg = *caught
            .expect_err("property should fail")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("v = [9]"), "shrinker stopped early: {msg}");
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = Vec::new();
        let mut rng = case_rng(DEFAULT_SEED, 3);
        let g = range(0u64..1000);
        for _ in 0..10 {
            a.push(g.sample(&mut rng));
        }
        let mut rng = case_rng(DEFAULT_SEED, 3);
        let b: Vec<u64> = (0..10).map(|_| g.sample(&mut rng)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn any_u64_shrinks_toward_zero() {
        let g = any_u64();
        let c = g.shrink(&100);
        assert!(c.contains(&0) && c.contains(&50) && c.contains(&99));
        assert!(g.shrink(&0).is_empty());
    }
}
