//! Workspace-local stand-in for the subset of the `proptest` API that
//! sttlock's property tests use.
//!
//! The build environment has no access to crates.io, so this crate
//! re-creates the pieces the workspace imports: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`,
//! `any::<T>()`, `Just`, integer-range strategies,
//! `prop::collection::vec`, `prop::sample::select`,
//! `prop::bool::ANY`, the `proptest!`/`prop_assert!`/`prop_assert_eq!`
//! macros, `ProptestConfig` and `TestCaseError`.
//!
//! The one deliberate simplification: failing cases are **not shrunk**.
//! A failure panics with the case's seed so it can be replayed by
//! rerunning the test (generation is fully deterministic per test name
//! and case index).

#![forbid(unsafe_code)]

/// Strategies: how values of a type are generated.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// The RNG handed to strategies (deterministic per test case).
    pub type TestRng = StdRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream proptest there is no shrinking tree; a strategy is
    /// just a deterministic function of the per-case RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Uses a generated value to pick a second-stage strategy.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64, f32);

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for "any value of `T`".
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Runner, config and failure plumbing behind the `proptest!` macro.
pub mod test_runner {
    use super::strategy::TestRng;
    use rand::SeedableRng;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// Number of cases to run per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Cases per property (default 256, as upstream).
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Fails the current case with a message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }

        /// In upstream proptest a reject re-draws the case; without
        /// shrinking we simply skip it, so a reject is a no-op marker.
        pub fn reject(message: impl Into<String>) -> Self {
            Self::fail(message)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Drives N deterministic cases of one property.
    #[derive(Debug)]
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A runner with the given config.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs `case` once per configured case count. The RNG is seeded
        /// from `(name, case index)` so failures are replayable by
        /// rerunning the same test binary.
        ///
        /// # Panics
        ///
        /// Panics on the first failing case, reporting its index.
        pub fn run_named<F>(&mut self, name: &str, mut case: F)
        where
            F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        {
            let mut hasher = DefaultHasher::new();
            name.hash(&mut hasher);
            let base = hasher.finish();
            for i in 0..self.config.cases {
                let mut rng = TestRng::seed_from_u64(base ^ ((i as u64) << 32 | 0x9E37));
                if let Err(e) = case(&mut rng) {
                    panic!(
                        "proptest case {i}/{cases} of `{name}` failed: {e}",
                        cases = self.config.cases,
                    );
                }
            }
        }
    }
}

/// The `prop::` namespace (`prop::collection`, `prop::sample`,
/// `prop::bool`) mirroring upstream's prelude export.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::{Strategy, TestRng};
        use rand::Rng;
        use std::ops::Range;

        /// Strategy for `Vec<T>` with a length drawn from a range.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        /// `vec(element, 1..40)`: a vector of 1–39 elements.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = rng.gen_range(self.len.clone());
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::strategy::{Strategy, TestRng};
        use rand::seq::SliceRandom;

        /// Strategy choosing uniformly from a fixed set of values.
        #[derive(Debug, Clone)]
        pub struct Select<T: Clone> {
            options: Vec<T>,
        }

        /// `select(vec![...])`: one of the given values, uniformly.
        ///
        /// # Panics
        ///
        /// Generation panics if `options` is empty.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            Select { options }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.options
                    .choose(rng)
                    .expect("select() needs at least one option")
                    .clone()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::strategy::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy for an unweighted random bool.
        #[derive(Debug, Clone, Copy)]
        pub struct BoolAny;

        /// Uniform `true`/`false`.
        pub const ANY: BoolAny = BoolAny;

        impl Strategy for BoolAny {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.gen()
            }
        }
    }
}

/// Everything the workspace's `use proptest::prelude::*;` expects.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the enclosing property case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Fails the enclosing property case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...)` body
/// runs once per case with freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut runner = $crate::test_runner::TestRunner::new($cfg);
                runner.run_named(stringify!($name), |__proptest_rng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&$strat, __proptest_rng);)+
                    let mut __proptest_body = ||
                        -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    };
                    __proptest_body()
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..12, y in 0u64..1000) {
            prop_assert!((3..12).contains(&x));
            prop_assert!(y < 1000);
        }

        #[test]
        fn tuples_and_vecs_compose(
            (n, v) in (1usize..5).prop_flat_map(|n| {
                (Just(n), prop::collection::vec(0..n, 1..10))
            }),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            for x in v {
                prop_assert!(x < n);
            }
        }

        #[test]
        fn select_and_bool_any(k in prop::sample::select(vec![2, 3, 5]), b in prop::bool::ANY) {
            prop_assert!(k == 2 || k == 3 || k == 5);
            let _ = b;
        }

        #[test]
        fn prop_map_applies(s in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert_eq!(s % 2, 0);
            prop_assert_ne!(s, 19);
        }

        #[test]
        fn any_generates_arrays(lanes in any::<[u64; 3]>()) {
            let _ = lanes;
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics_with_case_info() {
        let mut runner =
            crate::test_runner::TestRunner::new(crate::test_runner::ProptestConfig::with_cases(4));
        runner.run_named("always_fails", |_rng| {
            Err(crate::test_runner::TestCaseError::fail("nope"))
        });
    }

    #[test]
    fn generation_is_deterministic_per_name_and_case() {
        use crate::strategy::Strategy;
        let mut first = Vec::new();
        let mut runner =
            crate::test_runner::TestRunner::new(crate::test_runner::ProptestConfig::with_cases(8));
        runner.run_named("det", |rng| {
            first.push((0u64..u64::MAX).generate(rng));
            Ok(())
        });
        let mut second = Vec::new();
        let mut runner =
            crate::test_runner::TestRunner::new(crate::test_runner::ProptestConfig::with_cases(8));
        runner.run_named("det", |rng| {
            second.push((0u64..u64::MAX).generate(rng));
            Ok(())
        });
        assert_eq!(first, second);
    }
}
