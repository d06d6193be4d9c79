//! Minimal offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this shim implements the
//! subset of the proptest API the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`/`boxed`, range and tuple strategies,
//! [`collection::vec`], [`option::of`], [`bool::ANY`], string strategies
//! from a small regex-like pattern subset, and the `proptest!`,
//! `prop_compose!`, `prop_oneof!`, `prop_assert*!` and `prop_assume!`
//! macros.
//!
//! Differences from real proptest, deliberate for offline use:
//!
//! * no shrinking — a failing case reports its deterministic case index and
//!   seed instead of a minimised input;
//! * `prop_assume!` skips the case rather than resampling;
//! * string patterns support only character classes (with ranges, `&&[^…]`
//!   subtraction and escapes) and `{m}` / `{m,n}` repetition — enough for
//!   every pattern in this workspace.

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Deterministic per-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    pub fn from_parts(name_hash: u64, case: u32) -> Self {
        TestRng(name_hash ^ (0x9e3779b97f4a7c15u64.wrapping_mul(case as u64 + 1)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

/// Hash a test name into a seed (FNV-1a).
pub fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A value generator. Unlike real proptest there is no shrinking, so a
/// strategy is just a deterministic function of the per-case RNG.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F>(self, _reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Type-erased strategy (cheaply cloneable).
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Result of `prop_map`.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Result of `prop_filter`: rejection-samples up to a bounded retry count.
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive samples");
    }
}

/// Strategy producing one fixed (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-typed boxed strategies (see `prop_oneof!`).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len());
        self.0[i].generate(rng)
    }
}

/// Build a union strategy (used by `prop_oneof!`).
pub fn union<T>(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    Union(arms)
}

/// Strategy from a closure (used by `prop_compose!`).
pub struct FnStrategy<F>(F);

impl<F> FnStrategy<F> {
    pub fn new<T>(f: F) -> Self
    where
        F: Fn(&mut TestRng) -> T,
    {
        FnStrategy(f)
    }
}

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

// --- numeric range strategies -------------------------------------------

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty strategy range");
        lo + rng.next_f64() * (hi - lo)
    }
}

// --- tuple strategies ----------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "the type parameters name the tuple's fields")]
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

// --- string pattern strategies ------------------------------------------

/// A `&str` is a strategy generating `String`s from a regex-like pattern
/// subset: literal characters, `\x` escapes, character classes with ranges
/// and `&&[^…]` subtraction, and `{m}` / `{m,n}` repetition.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

mod pattern {
    use super::TestRng;

    #[derive(Debug, Clone)]
    struct Token {
        choices: Vec<char>,
        min: usize,
        max: usize,
    }

    /// Expand a (simple, non-negated) class body like `a-z0-9._\-` into its
    /// concrete characters.
    fn class_chars(body: &str) -> Vec<char> {
        let chars: Vec<char> = body.chars().collect();
        // Read one possibly-escaped char at `i`, returning it and the next index.
        let read = |i: usize| -> (char, usize) {
            if chars[i] == '\\' && i + 1 < chars.len() {
                (chars[i + 1], i + 2)
            } else {
                (chars[i], i + 1)
            }
        };
        let mut out = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let (lo, next) = read(i);
            // Range `a-z`; a `-` in final position is a literal.
            if next < chars.len() && chars[next] == '-' && next + 1 < chars.len() {
                let (hi, after) = read(next + 1);
                for v in (lo as u32)..=(hi as u32) {
                    if let Some(ch) = char::from_u32(v) {
                        out.push(ch);
                    }
                }
                i = after;
            } else {
                out.push(lo);
                i = next;
            }
        }
        out
    }

    /// Parse a full class (between `[` and its matching `]`), handling
    /// `&&[^…]` subtraction as used by e.g. `[ -~&&[^"<>&]]`.
    fn parse_class(body: &str) -> Vec<char> {
        if let Some(pos) = body.find("&&") {
            let base = class_chars(&body[..pos]);
            let rest = &body[pos + 2..];
            let inner = rest
                .strip_prefix("[^")
                .and_then(|r| r.strip_suffix(']'))
                .unwrap_or_else(|| panic!("unsupported class subtraction: {body}"));
            let excluded = class_chars(inner);
            base.into_iter().filter(|c| !excluded.contains(c)).collect()
        } else {
            class_chars(body)
        }
    }

    fn parse(pat: &str) -> Vec<Token> {
        let chars: Vec<char> = pat.chars().collect();
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let choices = match chars[i] {
                '[' => {
                    // Find the matching `]`, tracking nesting for `&&[^…]`.
                    let mut depth = 1;
                    let mut j = i + 1;
                    while j < chars.len() {
                        match chars[j] {
                            '\\' => j += 1,
                            '[' => depth += 1,
                            ']' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    assert!(j < chars.len(), "unterminated class in pattern {pat}");
                    let body: String = chars[i + 1..j].iter().collect();
                    i = j + 1;
                    parse_class(&body)
                }
                '\\' => {
                    assert!(i + 1 < chars.len(), "dangling escape in pattern {pat}");
                    let c = chars[i + 1];
                    i += 2;
                    vec![c]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            // Optional {m} / {m,n} repetition.
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let j = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unterminated repetition in pattern {pat}"));
                let body: String = chars[i + 1..j].iter().collect();
                i = j + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("repetition lower bound"),
                        hi.trim().parse().expect("repetition upper bound"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("repetition count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(!choices.is_empty(), "empty character class in pattern {pat}");
            tokens.push(Token { choices, min, max });
        }
        tokens
    }

    pub fn generate(pat: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for t in parse(pat) {
            let n = if t.max > t.min { t.min + rng.below(t.max - t.min + 1) } else { t.min };
            for _ in 0..n {
                out.push(t.choices[rng.below(t.choices.len())]);
            }
        }
        out
    }
}

// --- modules mirroring proptest's layout --------------------------------

pub mod bool {
    use super::{Strategy, TestRng};

    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match real proptest's default: Some with probability 3/4.
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element count for [`vec()`]: a half-open range or an exact size.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.lo + rng.below(self.size.hi - self.size.lo);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

// --- runner configuration ------------------------------------------------

/// Runner configuration. Only `cases` is honoured by the shim;
/// `max_shrink_iters` exists so `..ProptestConfig::default()` struct
/// updates (real-proptest idiom) stay meaningful.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..ProptestConfig::default() }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest,
    };
    pub use crate::{BoxedStrategy, Just, ProptestConfig, Strategy, TestRng};
}

// --- macros --------------------------------------------------------------

/// Define property tests. Each case draws every binding from its strategy
/// with a deterministic per-(test, case) seed, then runs the body; failures
/// report the case index so a run can be reproduced exactly.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let hash = $crate::name_hash(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases {
                let mut rng = $crate::TestRng::from_parts(hash, case);
                $(let $pat = $crate::Strategy::generate(&$strat, &mut rng);)+
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name), case, cfg.cases, msg
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), left, right
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                left
            ));
        }
    }};
}

/// Skip the current case when the precondition does not hold. (Real
/// proptest resamples; the shim counts the case as passed.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among same-typed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::union(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Compose strategies into a named strategy-returning function.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident ($($arg:tt)*)
        ($($pat:pat in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy::new(move |rng: &mut $crate::TestRng| -> $ret {
                $(let $pat = $crate::Strategy::generate(&$strat, rng);)+
                $body
            })
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_generation() {
        let mut rng = TestRng::from_parts(1, 0);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.len()), "{s}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));

            let ip =
                Strategy::generate(&"[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}", &mut rng);
            assert_eq!(ip.split('.').count(), 4, "{ip}");

            let v = Strategy::generate(&"[ -~&&[^\"<>&]]{0,16}", &mut rng);
            assert!(v.chars().all(|c| (' '..='~').contains(&c) && !"\"<>&".contains(c)));

            let n = Strategy::generate(&"[a-z][a-z0-9.-]{0,20}", &mut rng);
            assert!(n.chars().next().unwrap().is_ascii_lowercase());
        }
    }

    prop_compose! {
        fn arb_pair()(a in 0usize..10, b in 0usize..10) -> (usize, usize) {
            (a, b)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(
            x in 1usize..5,
            v in collection::vec(0u64..100, 2..6),
            f in 0.5f64..2.0,
            (a, b) in arb_pair(),
        ) {
            prop_assert!((1..5).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 100));
            prop_assert!((0.5..2.0).contains(&f));
            prop_assert!(a < 10 && b < 10);
        }

        #[test]
        fn oneof_and_options(
            k in prop_oneof![Just(1u8), Just(2u8), Just(3u8)],
            o in crate::option::of(0u32..4),
            t in (0usize..3, crate::bool::ANY),
        ) {
            prop_assert!((1..=3).contains(&k));
            if let Some(v) = o {
                prop_assert!(v < 4);
            }
            prop_assert!(t.0 < 3);
        }
    }

    #[test]
    fn boxed_strategies_work() {
        let s = (0usize..4).prop_map(|v| v * 2).boxed();
        let mut rng = TestRng::from_parts(9, 9);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v < 8);
        }
    }
}
