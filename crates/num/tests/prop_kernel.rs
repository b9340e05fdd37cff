//! Differential property tests for the `Rat` arithmetic kernel.
//!
//! `prop_rat.rs` checks field laws on small values (|n|, d < 10⁴), which
//! never reach the large-denominator paths of the binary-GCD kernel. Here
//! every operation is compared with [`euclid`], a copy of the earlier
//! Euclid-based kernel, on operands drawn from the whole `i128` range:
//! values near `i128::MAX`, operands sharing power-of-two and odd-prime
//! factors, equal denominators, integers and zero. The two must agree on
//! every value and on exactly which inputs overflow.

use dnc_num::{NumError, Rat};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The earlier kernel, on raw `(num, den)` pairs: Euclid's GCD, a full
/// reduction after every sum and product, and a GCD before every
/// comparison. Its one change is that the GCD runs on `u128`
/// magnitudes, so `i128::MIN` operands have a defined result.
mod euclid {
    use std::cmp::Ordering;

    pub type Frac = (i128, i128);

    fn gcd(a: i128, b: i128) -> i128 {
        let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a as i128
    }

    pub fn new(num: i128, den: i128) -> Frac {
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return (0, 1);
        }
        (sign * (num / g), sign * (den / g))
    }

    pub fn add((a, b): Frac, (c, d): Frac) -> Option<Frac> {
        let g = gcd(b, d);
        let db = b / g;
        let dd = d / g;
        let num = a.checked_mul(dd)?.checked_add(c.checked_mul(db)?)?;
        let den = b.checked_mul(dd)?;
        Some(new(num, den))
    }

    pub fn mul((a, b): Frac, (c, d): Frac) -> Option<Frac> {
        let g1 = gcd(a, d);
        let g2 = gcd(c, b);
        let num = (a / g1).checked_mul(c / g2)?;
        let den = (b / g2).checked_mul(d / g1)?;
        Some(new(num, den))
    }

    fn wide_mul_abs(a: i128, b: i128) -> (u128, u128) {
        let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
        let (ah, al) = (a >> 64, a & u64::MAX as u128);
        let (bh, bl) = (b >> 64, b & u64::MAX as u128);
        let ll = al * bl;
        let lh = al * bh;
        let hl = ah * bl;
        let hh = ah * bh;
        let (mid, mid_carry) = lh.overflowing_add(hl);
        let (low, low_carry) = ll.overflowing_add(mid << 64);
        let high = hh + (mid >> 64) + ((mid_carry as u128) << 64) + low_carry as u128;
        (high, low)
    }

    fn cmp_products(a1: i128, b1: i128, a2: i128, b2: i128) -> Ordering {
        let s1 = a1.signum() * b1.signum();
        let s2 = a2.signum() * b2.signum();
        if s1 != s2 {
            return s1.cmp(&s2);
        }
        let m1 = wide_mul_abs(a1, b1);
        let m2 = wide_mul_abs(a2, b2);
        if s1 >= 0 {
            m1.cmp(&m2)
        } else {
            m2.cmp(&m1)
        }
    }

    pub fn cmp((a, b): Frac, (c, d): Frac) -> Ordering {
        let g = gcd(b, d);
        cmp_products(a, d / g, c, b / g)
    }
}

fn frac(r: Rat) -> euclid::Frac {
    (r.numer(), r.denom())
}

fn fracs(r: Option<Rat>) -> Option<euclid::Frac> {
    r.map(frac)
}

/// Run an operator that may panic; `None` if it panicked with the
/// kernel's overflow message.
fn caught(op: impl FnOnce() -> Rat) -> Option<euclid::Frac> {
    quiet_overflow_panics();
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(r) => Some(frac(r)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.starts_with("Rat overflow in "),
                "unexpected panic: {msg}"
            );
            None
        }
    }
}

/// Keep the expected overflow panics of [`caught`] off stderr; every
/// other panic still reaches the default hook.
fn quiet_overflow_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            if !msg.starts_with("Rat overflow in ") {
                default(info);
            }
        }));
    });
}

const SMALL_PRIMES: [i128; 10] = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31];

fn bits(rng: &mut TestRng) -> u128 {
    (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
}

/// A positive magnitude below `2^127` from one of several shapes.
fn magnitude(rng: &mut TestRng) -> i128 {
    match rng.below(7) {
        // Small.
        0 => 1 + rng.below(1000) as i128,
        // Uniform over a random bit length, so 30–38-digit values are as
        // likely as short ones.
        1 => {
            let len = 1 + rng.below(127) as u32;
            (bits(rng) >> (128 - len)) as i128 | 1 << (len - 1)
        }
        // Near i128::MAX.
        2 => i128::MAX - rng.below(1 << 20) as i128,
        // Near a power of two.
        3 => {
            let k = rng.below(127) as u32;
            let off = rng.below(16) as i128 - 8;
            (1i128 << k).saturating_add(off).max(1)
        }
        // A large fraction of i128::MAX.
        4 => i128::MAX / (1 + rng.below(1000) as i128),
        // Smooth: a power of two times small odd primes, as large as
        // fits, so operands share factors.
        5 => smooth(rng),
        // A smooth part times a large odd cofactor.
        _ => {
            let cofactor = (bits(rng) >> (65 + rng.below(60) as u32)) as i128 | 1;
            smooth(rng).checked_mul(cofactor).unwrap_or(cofactor)
        }
    }
}

fn smooth(rng: &mut TestRng) -> i128 {
    let mut v: i128 = 1 << rng.below(40);
    for _ in 0..rng.below(24) {
        let p = SMALL_PRIMES[rng.below(SMALL_PRIMES.len() as u64) as usize];
        match v.checked_mul(p) {
            Some(next) => v = next,
            None => break,
        }
    }
    v
}

fn numerator(rng: &mut TestRng) -> i128 {
    match rng.below(16) {
        0 => 0,
        1 => i128::MIN,
        _ => {
            let m = magnitude(rng);
            if rng.next_u64() & 1 == 1 {
                -m
            } else {
                m
            }
        }
    }
}

fn denominator(rng: &mut TestRng) -> i128 {
    if rng.below(5) == 0 {
        1
    } else {
        magnitude(rng)
    }
}

/// One `Rat` from the whole range. An `i128::MIN` numerator gets an odd
/// denominator, so reduction keeps it.
#[derive(Clone, Copy)]
struct AnyRat;

impl Strategy for AnyRat {
    type Value = Rat;
    fn generate(&self, rng: &mut TestRng) -> Rat {
        let num = numerator(rng);
        let den = denominator(rng);
        let den = if num == i128::MIN { den | 1 } else { den };
        Rat::new(num, den)
    }
}

/// A pair of `Rat`s, often related: equal denominators, denominators
/// sharing a factor, or the same value.
#[derive(Clone, Copy)]
struct RatPair;

impl Strategy for RatPair {
    type Value = (Rat, Rat);
    fn generate(&self, rng: &mut TestRng) -> (Rat, Rat) {
        let a = AnyRat.generate(rng);
        let b = match rng.below(5) {
            0 => {
                // Equal denominators (when the drawn numerator is coprime).
                let num = numerator(rng) | 1;
                Rat::new(num, a.denom())
            }
            1 => {
                // Denominators sharing a factor with a's.
                let f = a.denom() / (1 + rng.below(8) as i128);
                let den = f.checked_mul(1 + rng.below(64) as i128).unwrap_or(f).max(1);
                Rat::new(numerator(rng), den)
            }
            2 => a,
            _ => AnyRat.generate(rng),
        };
        (a, b)
    }
}

/// A raw `(num, den)` pair for `Rat::new`, without `i128::MIN`, whose
/// negation the earlier kernel could not represent.
#[derive(Clone, Copy)]
struct RawPair;

impl Strategy for RawPair {
    type Value = (i128, i128);
    fn generate(&self, rng: &mut TestRng) -> (i128, i128) {
        let num = numerator(rng).max(i128::MIN + 1);
        let den = denominator(rng);
        let den = if rng.next_u64() & 1 == 1 { -den } else { den };
        match rng.below(3) {
            // A shared factor, so the pair actually reduces.
            0 => {
                let f = smooth(rng);
                (
                    num.checked_mul(f)
                        .filter(|&v| v != i128::MIN)
                        .unwrap_or(num),
                    den.checked_mul(f)
                        .filter(|&v| v != i128::MIN)
                        .unwrap_or(den),
                )
            }
            _ => (num, den),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn new_matches_euclid((n, d) in RawPair) {
        prop_assert_eq!(frac(Rat::new(n, d)), euclid::new(n, d));
    }

    #[test]
    fn add_matches_euclid((a, b) in RatPair) {
        let want = euclid::add(frac(a), frac(b));
        prop_assert_eq!(fracs(a.checked_add(b)), want);
        prop_assert_eq!(a.try_add(b).ok().map(frac), want);
        prop_assert_eq!(caught(|| a + b), want);
    }

    #[test]
    fn sub_matches_euclid((a, b) in RatPair) {
        if b.numer() == i128::MIN {
            // -b is 2^127/d: not representable, so every subtraction of
            // it overflows rather than wrapping.
            prop_assert_eq!(b.checked_neg(), None);
            prop_assert_eq!(a.try_sub(b), Err(NumError::Overflow));
            prop_assert_eq!(caught(|| a - b), None);
        } else {
            let want = euclid::add(frac(a), (-b.numer(), b.denom()));
            prop_assert_eq!(a.try_sub(b).ok().map(frac), want);
            prop_assert_eq!(caught(|| a - b), want);
        }
    }

    #[test]
    fn mul_matches_euclid((a, b) in RatPair) {
        let want = euclid::mul(frac(a), frac(b));
        prop_assert_eq!(fracs(a.checked_mul(b)), want);
        prop_assert_eq!(a.try_mul(b).ok().map(frac), want);
        prop_assert_eq!(caught(|| a * b), want);
    }

    #[test]
    fn div_matches_euclid((a, b) in RatPair) {
        if b.is_zero() {
            prop_assert_eq!(a.try_div(b), Err(NumError::DivisionByZero));
        } else if b.numer() == i128::MIN {
            // 1/b would need the denominator 2^127.
            prop_assert_eq!(a.try_div(b), Err(NumError::Overflow));
            prop_assert_eq!(caught(|| a / b), None);
        } else {
            let want = euclid::mul(frac(a), euclid::new(b.denom(), b.numer()));
            prop_assert_eq!(a.try_div(b).ok().map(frac), want);
                prop_assert_eq!(caught(|| a / b), want);
        }
    }

    #[test]
    fn cmp_matches_euclid((a, b) in RatPair) {
        let want = euclid::cmp(frac(a), frac(b));
        prop_assert_eq!(a.cmp(&b), want);
        prop_assert_eq!(b.cmp(&a), want.reverse());
        prop_assert_eq!(a == b, want == Ordering::Equal);
    }

    #[test]
    fn neg_is_exact_or_refused(a in AnyRat) {
        match a.checked_neg() {
            Some(n) => {
                prop_assert_eq!(frac(n), (-a.numer(), a.denom()));
                prop_assert_eq!(caught(|| -a), Some(frac(n)));
            }
            None => {
                prop_assert_eq!(a.numer(), i128::MIN);
                prop_assert_eq!(caught(|| -a), None);
                prop_assert_eq!(caught(|| a.abs()), None);
            }
        }
    }
}

#[test]
fn generators_reach_the_large_paths() {
    // The point of this file: a fair share of draws must have
    // denominators past 2^64 and pairs with equal denominators.
    let mut rng = TestRng::new(7);
    let (mut wide, mut equal, mut shared) = (0, 0, 0);
    for _ in 0..10_000 {
        let (a, b) = RatPair.generate(&mut rng);
        if a.denom() > i128::from(u64::MAX) {
            wide += 1;
        }
        if a.denom() == b.denom() && a.denom() > 1 {
            equal += 1;
        } else if a.denom() > 1 && b.denom() > 1 && dnc_num::gcd_i128(a.denom(), b.denom()) > 1 {
            shared += 1;
        }
    }
    assert!(wide > 2_000, "only {wide} wide denominators");
    assert!(equal > 1_000, "only {equal} equal denominators");
    assert!(shared > 1_000, "only {shared} shared-factor denominators");
}
