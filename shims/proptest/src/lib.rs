//! Offline shim of the `proptest` API subset used by this workspace.
//!
//! The repository builds with no network access, so this path dependency
//! replaces the real proptest crate with a deterministic property runner:
//! the [`proptest!`] macro expands each property to a plain `#[test]` that
//! samples every strategy `cases` times from a seeded xorshift64* stream
//! (the seed mixes in the property's name, so every property sees a
//! different but reproducible stream).
//!
//! A failing case, whether its body returned an `Err` or a `prop_assert*`
//! panicked, panics with `property <name> failed at case <n> (seed=0x…):
//! <why>`. Re-running the test replays the same cases in the same order,
//! so case `n` fails again. To draw its inputs alone, seed
//! `TestRng::seeded(0x…)` with the printed seed and sample the property's
//! strategies in argument order.
//!
//! Before it panics the case is **shrunk**, on its *choices* rather than
//! its values: every draw a case makes is recorded ([`TestRng::choices`]),
//! and a candidate is the same choices with one of them lowered — to 0,
//! halved, or less one — replayed through the same strategies
//! ([`TestRng::replay`]). A lowered length draw halves a `Vec` (or trims
//! it), a lowered range draw steps an integer toward its range's low
//! end, and `prop_map` and `prop_oneof!` need no shrinker of their own.
//! A candidate that still fails becomes the case, until none does or
//! `max_shrink_iters` candidates have run ([`shrink`]). The panic message
//! then carries a second line, `minimal failing input (<k> shrink tries):
//! <inputs as a Debug tuple>`, and what that input failed with.
//!
//! Differences from real proptest, by design: strategies are samplers only
//! ([`strategy::Strategy::sample`]), covering the combinators this repo
//! uses: integer ranges, `any`, tuples, `Just`, `prop_map`, `prop_oneof!`
//! and `prop::collection::vec`; and shrinking is the choice lowering above,
//! with no per-type shrinkers.

#![forbid(unsafe_code)]

/// Deterministic generator feeding every strategy, recording every draw.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
    /// Every draw so far, as the value it returned.
    choices: Vec<u64>,
    /// Choices to replay instead of the stream, while shrinking; a draw
    /// past their end is 0.
    replay: Option<std::vec::IntoIter<u64>>,
}

impl TestRng {
    /// Creates a stream from a seed (zero is remapped).
    pub fn seeded(seed: u64) -> TestRng {
        TestRng { state: seed | 1, choices: Vec::new(), replay: None }
    }

    /// Replays `choices` (another rng's [`choices`](Self::choices), some
    /// lowered): each draw returns the next one, reduced into the draw's
    /// range.
    pub fn replay(choices: Vec<u64>) -> TestRng {
        TestRng { state: 1, choices: Vec::new(), replay: Some(choices.into_iter()) }
    }

    /// The draws made so far.
    pub fn choices(&self) -> &[u64] {
        &self.choices
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.draw(|raw| raw)
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.draw(|raw| raw % n)
    }

    /// One recorded draw: the stream's next word, or the next replayed
    /// choice, through `reduce`.
    fn draw(&mut self, reduce: impl FnOnce(u64) -> u64) -> u64 {
        let raw = match &mut self.replay {
            Some(rest) => rest.next().unwrap_or(0),
            None => {
                let mut x = self.state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.state = x;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            }
        };
        let v = reduce(raw);
        self.choices.push(v);
        v
    }
}

/// Strategy combinators and implementations.
pub mod strategy {
    use super::TestRng;

    /// A value generator (sampling-only subset of proptest's `Strategy`).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
                    if span == 0 {
                        // Full-width inclusive range: every value is valid.
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    /// Produces any value of `T` (see [`super::arbitrary`]).
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl<T: super::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0)
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
    }

    /// Object-safe sampling, for heterogeneous unions ([`union`]).
    pub trait DynStrategy<V> {
        /// Draws one value.
        fn sample_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.sample(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<Box<dyn DynStrategy<V>>>,
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].sample_dyn(rng)
        }
    }

    /// Builds a [`Union`]; used by the `prop_oneof!` expansion.
    pub fn union<V>(arms: Vec<Box<dyn DynStrategy<V>>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }

    /// Boxes one `prop_oneof!` arm, pinning the value type to the
    /// strategy's own `Value` (an `as _` cast here would let inference
    /// wander into unsized types).
    pub fn boxed<S>(s: S) -> Box<dyn DynStrategy<S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// `prop::collection` namespace.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Generates `Vec`s of `elem` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.hi - self.lo).max(1) as u64;
            let n = self.lo + rng.below(span) as usize;
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(elem, len_range)`.
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { elem, lo: len.start, hi: len.end }
    }
}

/// Runner configuration (subset of proptest's `ProptestConfig`).
pub mod test_runner {
    /// Failure carried out of a property body via `return Err(...)`.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// An explicit failure with a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// How many sampled cases each property runs.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases per property.
        pub cases: u32,
        /// Most candidates a failing case's shrink runs ([`crate::shrink`]).
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64, max_shrink_iters: 256 }
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The strategy producing any value of `T`.
    pub fn any<T: crate::arbitrary::Arbitrary>() -> crate::strategy::Any<T> {
        crate::strategy::Any(std::marker::PhantomData)
    }

    /// `prop::` namespace alias as re-exported by real proptest's prelude.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Seeds a property's stream from its name: deterministic, distinct
/// per property. (FNV-1a over the name bytes.)
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The seed of case `case` of the property whose stream starts at
/// `base` ([`seed_for`] of its name).
pub fn case_seed(base: u64, case: u64) -> u64 {
    base ^ (case + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Shrinks a failing case: `choices` are its draws. Each candidate lowers
/// one choice of the smallest failing case so far — to 0, by half, by
/// one — and `fails` replays it, returning the draws the replay made and
/// its failure if it failed too; a failure becomes the case. Stops when no
/// candidate fails or after `max_iters` candidates. Returns the smallest
/// failing draws, what they failed with (`None` if no candidate failed)
/// and the candidates run.
pub fn shrink(
    choices: Vec<u64>,
    max_iters: u32,
    mut fails: impl FnMut(Vec<u64>) -> Option<(Vec<u64>, String)>,
) -> (Vec<u64>, Option<String>, u32) {
    let (mut best, mut why, mut tries) = (choices, None, 0);
    'smaller: loop {
        for i in 0..best.len() {
            let c = best[i];
            let mut lowered = [0, c / 2, c.saturating_sub(1)];
            lowered.sort_unstable();
            for (j, &v) in lowered.iter().enumerate() {
                if v >= c || (j > 0 && lowered[j - 1] == v) {
                    continue;
                }
                if tries == max_iters {
                    break 'smaller;
                }
                tries += 1;
                let mut candidate = best.clone();
                candidate[i] = v;
                if let Some((drawn, failure)) = fails(candidate) {
                    (best, why) = (drawn, Some(failure));
                    continue 'smaller;
                }
            }
        }
        break;
    }
    (best, why, tries)
}

thread_local! {
    /// Set while this thread shrinks: its panics are expected, not news.
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with this thread's panic messages silenced (the shrink's
/// candidates panic by design); other threads' messages still print.
#[doc(hidden)]
pub fn quietly<T>(f: impl FnOnce() -> T) -> T {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(std::cell::Cell::get) {
                loud(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The text of a panic payload (`panic!` with a literal or a format).
#[doc(hidden)]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
    }
}

/// Declares deterministic property tests (see the crate docs for the
/// semantics relative to real proptest).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`] — one plain `#[test]` per property.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;) => {};
    (
        cfg = $cfg:expr;
        $(#[$attr:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config = $cfg;
            let base = $crate::seed_for(stringify!($name));
            // One case, its inputs drawn from `rng`: how it failed, if it did.
            let run_case = |rng: &mut $crate::TestRng| -> ::std::option::Option<String> {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), rng);)*
                // Like real proptest, the body may bail early with
                // `return Err(TestCaseError::fail(..))`; a body that runs
                // to completion falls through to the trailing Ok. A
                // `prop_assert*` panics instead; both name the case.
                let run =
                    || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        Ok(())
                    };
                match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e.to_string()),
                    Err(payload) => Some($crate::panic_message(&*payload)),
                }
            };
            for case in 0..config.cases as u64 {
                let seed = $crate::case_seed(base, case);
                let mut rng = $crate::TestRng::seeded(seed);
                let Some(why) = run_case(&mut rng) else { continue };
                let (choices, shrunk, tries) = $crate::quietly(|| {
                    $crate::shrink(rng.choices().to_vec(), config.max_shrink_iters, |choices| {
                        let mut rng = $crate::TestRng::replay(choices);
                        run_case(&mut rng).map(|why| (rng.choices().to_vec(), why))
                    })
                });
                let rng = &mut $crate::TestRng::replay(choices);
                let input = format!("{:?}", ($($crate::strategy::Strategy::sample(&($strat), rng),)*));
                panic!(
                    "property {} failed at case {case} (seed={seed:#x}): {why}\n\
                     minimal failing input ({tries} shrink tries): {input}: {}",
                    stringify!($name),
                    shrunk.as_deref().unwrap_or("the case itself"),
                );
            }
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::union(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// `assert!` under a property-test-flavoured name.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property-test-flavoured name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a property-test-flavoured name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sample_in_bounds() {
        let mut rng = crate::TestRng::seeded(5);
        use crate::strategy::Strategy;
        for _ in 0..200 {
            let v = (3u64..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let xs = prop::collection::vec(0u8..10, 1..5).sample(&mut rng);
            assert!(!xs.is_empty() && xs.len() < 5);
            assert!(xs.iter().all(|x| *x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
        // No `#[test]`: called by the test below, which expects it to fail.
        fn fails_from_case_three(x in 0u64..100) {
            prop_assert!(next_case() < 3, "drew {}", x);
        }
    }

    thread_local! {
        static CASE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The number of earlier calls on this thread: the index of the case
    /// whose body calls it.
    fn next_case() -> u64 {
        CASE.with(|c| {
            let n = c.get();
            c.set(n + 1);
            n
        })
    }

    #[test]
    fn a_failing_assert_names_the_property_case_and_seed() {
        let payload = std::panic::catch_unwind(fails_from_case_three).unwrap_err();
        let msg = crate::panic_message(&*payload);
        let (msg, shrunk) = msg.split_once("\nminimal failing input").expect("a shrink report");
        let seed = crate::case_seed(crate::seed_for("fails_from_case_three"), 3);
        let expect =
            format!("property fails_from_case_three failed at case 3 (seed={seed:#x}): drew ");
        assert!(msg.starts_with(&expect), "{msg}");
        // The printed seed re-draws the failing input.
        let x = crate::strategy::Strategy::sample(&(0u64..100), &mut crate::TestRng::seeded(seed));
        assert!(msg.ends_with(&format!("drew {x}")), "{msg}");
        // Every later call fails too, so the draw shrinks to the range's low end.
        assert!(shrunk.ends_with(": (0,): drew 0"), "{shrunk}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        // No `#[test]`: called by the test below, which expects it to fail.
        fn fails_from_three_elements(xs in prop::collection::vec(10u64..100, 0..20)) {
            prop_assert!(xs.len() < 3, "{} elements", xs.len());
        }
    }

    #[test]
    fn a_failing_vec_shrinks_to_the_shortest_failing_length_of_lowest_values() {
        let payload = std::panic::catch_unwind(fails_from_three_elements).unwrap_err();
        let msg = crate::panic_message(&*payload);
        let (_, shrunk) = msg.split_once("\nminimal failing input").expect("a shrink report");
        assert!(shrunk.ends_with(": ([10, 10, 10],): 3 elements"), "{shrunk}");
    }

    #[test]
    fn a_replay_of_the_recorded_choices_draws_the_same_values() {
        use crate::strategy::Strategy;
        let strategy = (prop::collection::vec(any::<u64>(), 0..9), 5u8..=9);
        let mut rng = crate::TestRng::seeded(11);
        let drawn = strategy.sample(&mut rng);
        let replayed = strategy.sample(&mut crate::TestRng::replay(rng.choices().to_vec()));
        assert_eq!(drawn, replayed);
        // A choice past its draw's range wraps into it; missing ones read as 0.
        let (xs, n) = strategy.sample(&mut crate::TestRng::replay(vec![9 + 2]));
        assert_eq!((xs.len(), n), (2, 5));
        assert!(xs.iter().all(|&x| x == 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
        #[test]
        fn macro_runs_and_binds(x in 0u64..100, (a, b) in (0u8..4, any::<u64>())) {
            prop_assert!(x < 100);
            prop_assert!(a < 4);
            prop_assert_eq!(b, b);
        }

        #[test]
        fn oneof_and_map_compose(
            op in prop_oneof![
                (0u64..10).prop_map(Some),
                Just(None),
            ]
        ) {
            if let Some(v) = op {
                prop_assert!(v < 10);
            }
        }
    }
}
