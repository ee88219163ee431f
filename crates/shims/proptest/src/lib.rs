#![forbid(unsafe_code)]
//! Offline stand-in for `proptest`.
//!
//! Implements the slice of the proptest API this workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`/`prop_flat_map`,
//! integer-range / tuple / [`collection::vec`] / [`bool::ANY`]
//! strategies, [`ProptestConfig::with_cases`], and the `proptest!`,
//! `prop_assert*!` and `prop_assume!` macros.
//!
//! Semantics differ from real proptest in one deliberate way: failing
//! inputs are **not shrunk**. Each test case is drawn from a
//! deterministic per-test rng seeded from the test name, so failures are
//! reproducible run-to-run; they are simply reported with the case
//! number instead of a minimized counterexample. Setting `PROPTEST_SEED`
//! mixes that seed into every test's name hash, so a new seed explores
//! a new corpus while distinct properties still draw distinct streams.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SeedableRng};

/// Everything a property-test file needs, plus `prop` as an alias of
/// this crate (for `prop::bool::ANY`-style paths).
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

/// Runner configuration; only the case count is meaningful here.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Ceiling on total `prop_assume!` rejections per property before the
/// test errors out (mirrors real proptest's global reject cap).
pub const MAX_GLOBAL_REJECTS: u32 = 1024;

/// Why a single test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// A `prop_assert*!` failed with this message.
    Fail(String),
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject => f.write_str("input rejected by prop_assume!"),
            TestCaseError::Fail(msg) => f.write_str(msg),
        }
    }
}

/// The deterministic rng handed to strategies.
pub struct TestRng(StdRng);

/// The `PROPTEST_SEED` environment variable, if set.
///
/// # Panics
/// When it is set but not a decimal u64.
pub fn env_seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("PROPTEST_SEED must be a decimal u64, got {s:?}"))
    })
}

/// The rng seed of test `name`: FNV-1a over the name (stable across
/// runs and rustc versions, unlike `DefaultHasher`), with `env`, when
/// given, mixed in through a SplitMix64 finalizer.
pub fn test_seed(name: &str, env: Option<u64>) -> u64 {
    let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    match env {
        None => hash,
        Some(seed) => {
            let mut z = (hash ^ seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

impl TestRng {
    /// Rng for one named test: see [`test_seed`] and [`env_seed`].
    pub fn for_test(name: &str) -> TestRng {
        TestRng(StdRng::seed_from_u64(test_seed(name, env_seed())))
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        self.0.gen_range(range)
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Strategy generating `f(value)` for each generated `value`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Strategy delegating to the strategy `f(value)` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);

/// Boolean strategies (`prop::bool::ANY`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy type of [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Generates `true` or `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.gen_range(0..2u32) == 1
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Admissible length ranges for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy type of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s of `element`-generated values with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `cases` sampled inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            // Rejected cases don't consume the case budget, and — as in
            // real proptest — a property whose assumption almost never
            // holds errors out instead of passing vacuously.
            let mut passed: u32 = 0;
            let mut rejects: u32 = 0;
            while passed < cfg.cases {
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::TestCaseError::Reject) => {
                        rejects += 1;
                        assert!(
                            rejects <= $crate::MAX_GLOBAL_REJECTS,
                            "property {}: too many prop_assume! rejects ({} with only {} of {} \
                             cases passed) — the assumption almost never holds",
                            stringify!($name), rejects, passed, cfg.cases
                        );
                    }
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("property {} failed at case {passed}/{} (PROPTEST_SEED={:?}): {msg}",
                               stringify!($name), cfg.cases, $crate::env_seed());
                    }
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the enclosing property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($lhs), stringify!($rhs), format!($($fmt)+), lhs, rhs
        );
    }};
}

/// Fails the enclosing property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($lhs), stringify!($rhs), lhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: {} != {} ({})\n  both: {:?}",
            stringify!($lhs), stringify!($rhs), format!($($fmt)+), lhs
        );
    }};
}

/// Skips the current case (without failing) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples_stay_in_bounds(
            x in 3u32..17,
            (a, b) in (0usize..5, 10usize..=12),
            flip in prop::bool::ANY,
        ) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(a < 5 && (10..=12).contains(&b));
            prop_assert_ne!(flip as u32, 2);
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in prop::collection::vec((0u32..9, 0u32..9), 2..=6),
        ) {
            prop_assert!((2..=6).contains(&v.len()));
            for (x, y) in v {
                prop_assert!(x < 9 && y < 9, "({}, {})", x, y);
            }
        }

        #[test]
        fn maps_and_assume_compose(n in 1usize..40) {
            prop_assume!(n % 2 == 0);
            let doubled = (0..n).collect::<Vec<_>>();
            prop_assert_eq!(doubled.len(), n);
            prop_assert_ne!(n, 41);
        }

        #[test]
        #[should_panic(expected = "too many prop_assume! rejects")]
        fn vacuous_assumption_errors_out(n in 0usize..10) {
            prop_assume!(n > 10);
            prop_assert!(false, "body must never run, n = {}", n);
        }
    }

    #[test]
    fn prop_map_and_flat_map_sample() {
        let strat = (2u32..=5)
            .prop_flat_map(|n| prop::collection::vec(0..n, 1..4).prop_map(move |v| (n, v)));
        let mut rng = super::TestRng::for_test("manual");
        for _ in 0..100 {
            let (n, v) = strat.sample(&mut rng);
            assert!((2..=5).contains(&n));
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn env_seed_mixes_with_the_name() {
        use super::test_seed;
        // no env seed: the bare name hash
        assert_ne!(test_seed("a", None), test_seed("b", None));
        // one env seed: still one stream per name, and a new corpus
        assert_ne!(test_seed("a", Some(7)), test_seed("b", Some(7)));
        assert_ne!(test_seed("a", Some(7)), test_seed("a", None));
        assert_ne!(test_seed("a", Some(7)), test_seed("a", Some(8)));
        assert_eq!(test_seed("a", Some(7)), test_seed("a", Some(7)));
    }

    #[test]
    fn same_test_name_gives_same_stream() {
        let mut a = super::TestRng::for_test("stable");
        let mut b = super::TestRng::for_test("stable");
        for _ in 0..32 {
            assert_eq!(
                (0u64..1 << 40).sample(&mut a),
                (0u64..1 << 40).sample(&mut b)
            );
        }
    }
}
