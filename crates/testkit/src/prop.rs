//! Mini property-testing harness: strategies, seeded case generation,
//! greedy failure shrinking, and a `proptest!`-compatible macro.
//!
//! A [`Strategy`] draws a *sample* (its internal representation) from the
//! deterministic [`Rng`], turns samples into test *values*, and proposes
//! simpler samples when a value fails. The runner generates `cases` values,
//! and on the first failure walks the shrink candidates greedily — taking
//! the first candidate that still fails, repeating until none does — then
//! panics with the minimal counterexample and the seed to replay the run.
//!
//! Strategies compose the way `proptest`'s do: ranges are strategies,
//! tuples of strategies are strategies (this is how multi-argument
//! `proptest!` blocks work), [`collection::vec`] builds vectors, and
//! [`Strategy::prop_map`] derives one strategy from another while keeping
//! the *input* shrinkable (the mapped value is recomputed from the shrunk
//! input, so even opaque values like whole graphs shrink meaningfully).

use crate::rng::Rng;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A property-test failure: either a `prop_assert!` message or a caught
/// panic.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// What a property body returns: `Ok(())` or the first failed assertion.
pub type TestResult = Result<(), TestCaseError>;

/// Runner configuration. `seed` can be overridden with the
/// `TESTKIT_SEED` environment variable to replay a failure.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrink_iters: u32,
    /// Base seed for case generation (deterministic by default).
    pub seed: u64,
}

impl ProptestConfig {
    /// The default configuration with a custom case count.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 64,
            max_shrink_iters: 2048,
            seed: 0x5EED_CAFE_F00D_0001,
        }
    }
}

/// A generator of test values with shrinking.
pub trait Strategy {
    /// The value handed to the property body.
    type Value: Debug;
    /// The internal representation a value is derived from (what actually
    /// shrinks).
    type Sample: Clone;

    /// Draws a sample from the generator.
    fn sample(&self, rng: &mut Rng) -> Self::Sample;

    /// Produces the test value for a sample. Must be deterministic: the
    /// runner re-derives values while shrinking.
    fn value(&self, sample: &Self::Sample) -> Self::Value;

    /// Proposes strictly simpler samples, simplest first. An empty vector
    /// means the sample is minimal.
    fn shrink(&self, sample: &Self::Sample) -> Vec<Self::Sample>;

    /// Derives a strategy by mapping values; shrinking happens on the
    /// underlying samples and the map is re-applied.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    type Sample = S::Sample;

    fn sample(&self, rng: &mut Rng) -> Self::Sample {
        self.inner.sample(rng)
    }

    fn value(&self, sample: &Self::Sample) -> T {
        (self.f)(self.inner.value(sample))
    }

    fn shrink(&self, sample: &Self::Sample) -> Vec<Self::Sample> {
        self.inner.shrink(sample)
    }
}

macro_rules! uint_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            type Sample = $t;

            fn sample(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }

            fn value(&self, s: &$t) -> $t {
                *s
            }

            fn shrink(&self, &v: &$t) -> Vec<$t> {
                // Bisection ladder: the lower bound, then candidates
                // approaching `v` from below by halving gaps. Greedy
                // descent over these converges like a binary search, so
                // the runner reaches the exact boundary value.
                let lo = self.start;
                if v == lo {
                    return Vec::new();
                }
                let mut out = vec![lo];
                let mut gap = (v - lo) / 2;
                while gap > 0 {
                    let cand = v - gap;
                    if cand != lo {
                        out.push(cand);
                    }
                    gap /= 2;
                }
                out
            }
        }
    )+};
}

uint_strategy!(usize, u64, u32, u16, u8);

macro_rules! float_strategy {
    ($($t:ty, $draw:ident);+ $(;)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            type Sample = $t;

            fn sample(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (self.end - self.start) * rng.$draw()
            }

            fn value(&self, s: &$t) -> $t {
                *s
            }

            fn shrink(&self, &v: &$t) -> Vec<$t> {
                // Shrink toward zero when the range allows it, else toward
                // the lower bound.
                let target = if self.start <= 0.0 && 0.0 < self.end {
                    0.0
                } else {
                    self.start
                };
                if v == target {
                    return Vec::new();
                }
                let mut out = vec![target];
                let mut gap = (v - target) / 2.0;
                for _ in 0..8 {
                    let cand = v - gap;
                    if cand != target && cand != v {
                        out.push(cand);
                    }
                    gap /= 2.0;
                }
                out
            }
        }
    )+};
}

float_strategy!(f32, f32; f64, f64);

macro_rules! tuple_strategy {
    ($($S:ident . $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            type Sample = ($($S::Sample,)+);

            fn sample(&self, rng: &mut Rng) -> Self::Sample {
                ($(self.$idx.sample(rng),)+)
            }

            fn value(&self, s: &Self::Sample) -> Self::Value {
                ($(self.$idx.value(&s.$idx),)+)
            }

            fn shrink(&self, s: &Self::Sample) -> Vec<Self::Sample> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&s.$idx) {
                        let mut c = s.clone();
                        c.$idx = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::*;

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `elem`. Shrinks by halving, dropping the last element, and
    /// shrinking individual elements.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { elem, len }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        type Sample = Vec<S::Sample>;

        fn sample(&self, rng: &mut Rng) -> Self::Sample {
            let n = rng.range_usize(self.len.clone());
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }

        fn value(&self, s: &Self::Sample) -> Self::Value {
            s.iter().map(|e| self.elem.value(e)).collect()
        }

        fn shrink(&self, s: &Self::Sample) -> Vec<Self::Sample> {
            let mut out = Vec::new();
            let min = self.len.start;
            if s.len() > min {
                let half = (s.len() / 2).max(min);
                if half < s.len() {
                    out.push(s[..half].to_vec());
                }
                out.push(s[..s.len() - 1].to_vec());
            }
            for i in 0..s.len() {
                for cand in self.elem.shrink(&s[i]) {
                    let mut t = s.clone();
                    t[i] = cand;
                    out.push(t);
                }
            }
            out
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

fn run_one<S: Strategy, F: Fn(S::Value) -> TestResult>(
    strategy: &S,
    test: &F,
    sample: &S::Sample,
) -> Option<String> {
    let value = strategy.value(sample);
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e.0),
        Err(payload) => Some(panic_message(payload)),
    }
}

/// Runs a property over `cfg.cases` generated values, shrinking the first
/// failure to a (locally) minimal counterexample.
///
/// # Panics
///
/// Panics with the minimal counterexample, the failure message, and the
/// replay seed if any case fails.
pub fn run<S: Strategy, F: Fn(S::Value) -> TestResult>(
    cfg: &ProptestConfig,
    strategy: S,
    test: F,
) {
    let seed = std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(cfg.seed);
    let mut rng = Rng::seed_from_u64(seed);
    for case in 0..cfg.cases {
        let sample = strategy.sample(&mut rng);
        let Some(first_err) = run_one(&strategy, &test, &sample) else {
            continue;
        };
        // Greedy shrink: follow the first failing candidate until no
        // candidate fails or the iteration budget runs out.
        let mut cur = sample;
        let mut cur_err = first_err;
        let mut iters = 0u32;
        let mut steps = 0u32;
        'outer: while iters < cfg.max_shrink_iters {
            for cand in strategy.shrink(&cur) {
                iters += 1;
                if let Some(e) = run_one(&strategy, &test, &cand) {
                    cur = cand;
                    cur_err = e;
                    steps += 1;
                    continue 'outer;
                }
                if iters >= cfg.max_shrink_iters {
                    break 'outer;
                }
            }
            break;
        }
        panic!(
            "[testkit] property failed (case {case} of {}, seed {seed})\n\
             minimal counterexample (after {steps} shrink steps): {:?}\n\
             failure: {}\n\
             replay with TESTKIT_SEED={seed}",
            cfg.cases,
            strategy.value(&cur),
            cur_err,
        );
    }
}

/// Drop-in replacement for `proptest::proptest!`: takes an optional
/// `#![proptest_config(...)]` header and one or more property functions
/// with `name in strategy` arguments, and expands each to a `#[test]`
/// driven by [`run`].
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let __cfg: $crate::prop::ProptestConfig = $cfg;
                let __strategy = ($($strat,)+);
                $crate::prop::run(&__cfg, __strategy, |($($arg,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::prop::ProptestConfig::default())]
            $( $(#[$meta])* fn $name ( $($arg in $strat),+ ) $body )*
        }
    };
}

/// `assert!` for property bodies: fails the case (triggering shrinking)
/// instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::prop::TestCaseError(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::prop::TestCaseError(
                format!($($fmt)+),
            ));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::prop::TestCaseError(
                format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($a),
                    stringify!($b),
                    __l,
                    __r
                ),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        if !(__l == __r) {
            return ::core::result::Result::Err($crate::prop::TestCaseError(
                format!($($fmt)+),
            ));
        }
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        if __l == __r {
            return ::core::result::Result::Err($crate::prop::TestCaseError(
                format!(
                    "assertion failed: {} != {}\n  both: {:?}",
                    stringify!($a),
                    stringify!($b),
                    __l
                ),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn failure_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(f).expect_err("property should fail");
        if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            panic!("unexpected panic payload");
        }
    }

    /// The acceptance demo: a deliberately failing property (`v < 10` over
    /// `0..1000`) must shrink to the *exact* minimal counterexample, 10.
    #[test]
    fn shrinking_reaches_minimal_integer_counterexample() {
        let msg = failure_message(|| {
            run(&ProptestConfig::with_cases(64), 0u64..1000, |v| {
                if v < 10 {
                    Ok(())
                } else {
                    Err(TestCaseError(format!("{v} is too big")))
                }
            });
        });
        assert!(
            msg.contains("minimal counterexample") && msg.contains(": 10\n"),
            "expected minimal counterexample 10 in:\n{msg}"
        );
    }

    /// Vectors shrink both in length and element values: the minimal
    /// counterexample for "no element is ≥ 50" is the single vector `[50]`.
    #[test]
    fn shrinking_minimizes_vectors() {
        let msg = failure_message(|| {
            run(
                &ProptestConfig::with_cases(128),
                collection::vec(0u32..100, 0..30),
                |v| {
                    if v.iter().all(|&x| x < 50) {
                        Ok(())
                    } else {
                        Err(TestCaseError("big element".into()))
                    }
                },
            );
        });
        assert!(
            msg.contains("[50]"),
            "expected [50] as the minimal vector in:\n{msg}"
        );
    }

    /// Tuples shrink one coordinate at a time; the mapped sum shrinks via
    /// its inputs.
    #[test]
    fn shrinking_works_through_tuples_and_map() {
        let msg = failure_message(|| {
            let strategy = (0u64..100, 0u64..100).prop_map(|(a, b)| a + b);
            run(&ProptestConfig::with_cases(256), strategy, |sum| {
                if sum < 30 {
                    Ok(())
                } else {
                    Err(TestCaseError("sum too big".into()))
                }
            });
        });
        assert!(
            msg.contains(": 30\n"),
            "expected minimal sum 30 in:\n{msg}"
        );
    }

    #[test]
    fn panics_in_the_body_are_treated_as_failures_and_shrunk() {
        let msg = failure_message(|| {
            run(&ProptestConfig::with_cases(64), 0usize..100, |v| {
                assert!(v < 7, "plain assert fired");
                Ok(())
            });
        });
        assert!(msg.contains(": 7\n"), "expected 7 in:\n{msg}");
        assert!(msg.contains("plain assert fired"), "{msg}");
    }

    #[test]
    fn passing_properties_run_all_cases_silently() {
        let counted = std::cell::Cell::new(0u32);
        run(&ProptestConfig::with_cases(24), 1u32..50, |v| {
            counted.set(counted.get() + 1);
            if v >= 1 {
                Ok(())
            } else {
                Err(TestCaseError("unreachable".into()))
            }
        });
        assert_eq!(counted.get(), 24);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = ProptestConfig::default();
        let strat = (0u64..1_000_000, 0.0f64..1.0);
        let draw = || {
            let mut rng = Rng::seed_from_u64(cfg.seed);
            (0..20).map(|_| strat.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    // The macro itself, compiled and run exactly as downstream crates use
    // it (multiple properties, config header, doc comments, trailing
    // commas).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Addition commutes.
        fn macro_smoke_addition(a in 0u32..1000, b in 0u32..1000,) {
            prop_assert_eq!(a + b, b + a);
        }

        /// Sorting is idempotent on generated vectors.
        fn macro_smoke_sort(v in prop::collection::vec(0u32..50, 1..20)) {
            let mut once = v.clone();
            once.sort_unstable();
            let mut twice = once.clone();
            twice.sort_unstable();
            prop_assert_eq!(&once, &twice);
            prop_assert!(once.len() == v.len(), "length preserved");
            prop_assert_ne!(once.len(), 0);
        }
    }
}
