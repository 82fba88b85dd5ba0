//! Minimal, dependency-free stand-in for the `proptest` API surface
//! used by this workspace: the `proptest!` macro (with
//! `proptest_config`), range and `any::<T>()` strategies,
//! `collection::vec`, `prop_map`, and the `prop_assert*` macros.
//!
//! No shrinking is performed: every failure reports the test name, the
//! deterministic case index, and the sampled inputs, which is enough to
//! reproduce (case streams are a pure function of the case index).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SeedableRng, Standard};
use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Run configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
    /// Accepted for API compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A failed (or rejected) test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Result type of a property body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of test-case values.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Samples one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (S0 0)
    (S0 0, S1 1)
    (S0 0, S1 1, S2 2)
    (S0 0, S1 1, S2 2, S3 3)
}

impl<T> Strategy for Range<T>
where
    T: Copy,
    Range<T>: SampleRange<T>,
{
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Strategy for RangeInclusive<T>
where
    T: Copy,
    RangeInclusive<T>: SampleRange<T>,
{
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Any value of `T` (uniform over the whole domain for integers).
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Types supporting [`any`].
pub trait ArbitraryValue {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                let hi = u128::from(rng.gen::<u64>());
                let lo = u128::from(rng.gen::<u64>());
                (((hi << 64) | lo) % (<$t>::MAX as u128 + 1).max(1)) as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize);

impl ArbitraryValue for u128 {
    fn arbitrary(rng: &mut StdRng) -> u128 {
        (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>())
    }
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        bool::sample(rng)
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        f64::sample(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Lengths acceptable to [`vec()`].
    pub trait IntoLenRange {
        /// The inclusive (lo, hi) length bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoLenRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty length range");
            (self.start, self.end - 1)
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// A vector of values from `element` with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        let (lo, hi) = len.bounds();
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.lo..=self.hi);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Derives the deterministic RNG for one test case.
pub fn case_rng(name: &str, case: u32) -> StdRng {
    // Mix the property name so sibling properties see distinct streams.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ (u64::from(case) << 1))
}

/// The commonly used exports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult,
    };
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ...)`
/// item runs `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg), $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()), $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr), ) => {};
    (cfg = ($cfg:expr),
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for __case in 0..config.cases {
                let mut __rng = $crate::case_rng(stringify!($name), __case);
                let mut __inputs = String::new();
                $(
                    let __value = $crate::Strategy::new_value(&($strat), &mut __rng);
                    __inputs.push_str(&format!(
                        "{} = {:?}; ",
                        stringify!($arg),
                        &__value
                    ));
                    let $arg = __value;
                )*
                let __result: $crate::TestCaseResult = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                if let Err(e) = __result {
                    panic!(
                        "proptest {} failed at case {}/{}\ninputs: {}\n{}",
                        stringify!($name),
                        __case,
                        config.cases,
                        __inputs,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg), $($rest)* }
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*), l, r
            )));
        }
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)*), l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_respected(a in 0u64..10, b in 5usize..=9) {
            prop_assert!(a < 10);
            prop_assert!((5..=9).contains(&b));
        }

        #[test]
        fn vec_and_map_compose(v in crate::collection::vec(0u32..100, 3..7)) {
            prop_assert!(v.len() >= 3 && v.len() < 7, "len = {}", v.len());
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn any_u128_spans_width(x in any::<u128>()) {
            // Not a real assertion on distribution; just exercise the path.
            prop_assert_eq!(x, x);
        }

        #[test]
        fn early_ok_return(flag in any::<bool>()) {
            if flag {
                return Ok(());
            }
            prop_assert!(!flag);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::case_rng("p", 3);
        let mut b = crate::case_rng("p", 3);
        use rand::Rng;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
