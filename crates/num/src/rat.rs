//! The [`Rat`] type: a reduced `i128` fraction with total order and exact
//! field arithmetic.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Arithmetic errors surfaced by the fallible [`Rat`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumError {
    /// An intermediate or final value left the `i128`-reduced-fraction range.
    Overflow,
    /// Division by zero (or `recip` of zero).
    DivisionByZero,
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Overflow => write!(f, "rational overflow (value outside i128 range)"),
            NumError::DivisionByZero => write!(f, "rational division by zero"),
        }
    }
}

impl std::error::Error for NumError {}

/// Greatest common divisor of `|a|` and `|b|` (`gcd(0, 0) = 0`).
///
/// The result is a `u128` because `gcd(i128::MIN, 0)` and
/// `gcd(i128::MIN, i128::MIN)` are `2^127`, which no `i128` holds.
pub fn gcd_i128(a: i128, b: i128) -> u128 {
    gcd_u128(a.unsigned_abs(), b.unsigned_abs())
}

/// Stein's binary GCD: shifts, `trailing_zeros` and subtraction, no
/// division. Each step clears at least one bit of the larger operand, and
/// once both operands fit a `u64` the loop drops to 64-bit registers.
/// `min`/`abs_diff` replace a compare-and-swap branch, which would
/// mispredict about half the time.
fn gcd_u128(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a.min(b), a.max(b));
    if a <= 1 {
        return if a == 0 { b } else { 1 };
    }
    // gcd(2^i a', 2^j b') = 2^min(i, j) gcd(a', b') for odd a', b'.
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    while (a | b) > u128::from(u64::MAX) {
        // Odd minus odd is even, so the shift clears at least one bit.
        let d = a.abs_diff(b);
        a = a.min(b);
        if d == 0 {
            return a << shift;
        }
        b = d >> d.trailing_zeros();
    }
    u128::from(odd_gcd_u64(a as u64, b as u64)) << shift
}

/// Binary GCD of two odd `u64`s.
fn odd_gcd_u64(mut a: u64, mut b: u64) -> u64 {
    loop {
        let d = a.abs_diff(b);
        a = a.min(b);
        if d == 0 {
            return a;
        }
        b = d >> d.trailing_zeros();
    }
}

/// `x / g` for a divisor `g > 0` known to divide `x`, skipping the
/// software division when `g == 1`.
#[inline]
fn div_exact(x: i128, g: i128) -> i128 {
    if g == 1 {
        x
    } else {
        x / g
    }
}

/// The one panic site for overflow: the exact result of `op` leaves the
/// `i128` range. Kept out of line so the hot paths carry no formatting.
#[cold]
#[inline(never)]
fn overflow(op: fmt::Arguments<'_>) -> ! {
    // audit: allow(panic, operator impls cannot return Result; fallible callers use try_* and checked_*)
    panic!("Rat overflow in {op}")
}

/// An exact rational number.
///
/// Invariants: `den > 0` and `gcd(num, den) == 1` (with `0` stored as `0/1`).
/// Because of the invariants, derived structural equality would be correct,
/// but `Eq`/`Ord`/`Hash` are implemented explicitly to make the contract
/// obvious and independent of field order.
#[derive(Clone, Copy, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };
    /// Two.
    pub const TWO: Rat = Rat { num: 2, den: 1 };

    /// Construct `num/den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`, or if the reduced fraction does not fit
    /// (`Rat::new(1, i128::MIN)` would need the denominator `2^127`).
    #[inline]
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat::new: zero denominator (num={num})");
        Rat::checked_new(num, den)
            .unwrap_or_else(|| overflow(format_args!("Rat::new({num}, {den})")))
    }

    /// `num/den` in lowest terms for `den != 0`; `None` when the reduced
    /// fraction does not fit.
    #[inline]
    fn checked_new(num: i128, den: i128) -> Option<Rat> {
        if den == 1 {
            return Some(Rat { num, den });
        }
        // Reduce the magnitudes, then put the sign on the numerator.
        let g = gcd_i128(num, den);
        let n = num.unsigned_abs() / g;
        let num = if (num < 0) != (den < 0) {
            0i128.checked_sub_unsigned(n)?
        } else {
            i128::try_from(n).ok()?
        };
        let den = i128::try_from(den.unsigned_abs() / g).ok()?;
        Some(Rat { num, den })
    }

    /// The reduced form of `num/den` for `den > 0`.
    #[inline]
    fn reduced(num: i128, den: i128) -> Rat {
        // `gcd <= den`, so it fits an `i128`; `gcd(0, den) = den` maps
        // zero to `0/1`.
        let g = gcd_i128(num, den) as i128;
        Rat {
            num: div_exact(num, g),
            den: div_exact(den, g),
        }
    }

    /// Construct an integer-valued rational.
    #[inline]
    pub const fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying, reduced).
    #[inline]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (strictly positive, reduced).
    #[inline]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// `true` iff the value is an integer.
    #[inline]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` iff the value is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` iff the value is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Sign of the value as `-1`, `0`, or `1`.
    #[inline]
    pub const fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Absolute value.
    ///
    /// # Panics
    /// Panics if the numerator is `i128::MIN`.
    #[inline]
    pub fn abs(self) -> Rat {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Checked negation; `None` when the numerator is `i128::MIN`.
    #[inline]
    pub fn checked_neg(self) -> Option<Rat> {
        Some(Rat {
            num: self.num.checked_neg()?,
            den: self.den,
        })
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero, and when the numerator is `i128::MIN` (the inverse
    /// would need the denominator `2^127`).
    #[inline]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "Rat::recip of zero");
        Rat::new(self.den, self.num)
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        // `/` truncates toward zero; `q * den` lies between `num` and 0,
        // so it cannot overflow.
        let q = self.num / self.den;
        if self.num < 0 && q * self.den != self.num {
            q - 1
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        let q = self.num / self.den;
        if self.num > 0 && q * self.den != self.num {
            q + 1
        } else {
            q
        }
    }

    /// Approximate as `f64` (for plotting / CSV output only — never used in
    /// bound computations).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Rat, hi: Rat) -> Rat {
        assert!(lo <= hi, "Rat::clamp: lo > hi");
        self.max(lo).min(hi)
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        // Equal denominators, integers included: one gcd, and none at all
        // for integers since `gcd(n, 1)` returns at once.
        if self.den == rhs.den {
            let num = self.num.checked_add(rhs.num)?;
            return Some(Rat::reduced(num, self.den));
        }
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)), g = gcd(b, d). The
        // numerator t is coprime to b/g and d/g (Knuth, TAOCP 4.5.1), so
        // gcd(t, b*(d/g)) = gcd(t, g): reducing needs only that gcd. t is
        // never 0 here: reduced fractions with different denominators
        // cannot cancel.
        let g = gcd_i128(self.den, rhs.den) as i128;
        let db = div_exact(self.den, g);
        let dd = div_exact(rhs.den, g);
        let num = self
            .num
            .checked_mul(dd)?
            .checked_add(rhs.num.checked_mul(db)?)?;
        let den = self.den.checked_mul(dd)?;
        if g == 1 {
            return Some(Rat { num, den });
        }
        let g2 = gcd_i128(num, g) as i128;
        Some(Rat {
            num: div_exact(num, g2),
            den: div_exact(den, g2),
        })
    }

    /// Checked multiplication; `None` on overflow.
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        // Cross-reduce before multiplying. With both operands reduced, the
        // products are coprime and the denominator positive: the result is
        // already in lowest terms. A zero operand is `0/1`, so its
        // cross-reduction by `gcd(0, d) = d` yields `0/1` as well.
        let g1 = gcd_i128(self.num, rhs.den) as i128;
        let g2 = gcd_i128(rhs.num, self.den) as i128;
        let num = div_exact(self.num, g1).checked_mul(div_exact(rhs.num, g2))?;
        let den = div_exact(self.den, g2).checked_mul(div_exact(rhs.den, g1))?;
        Some(Rat { num, den })
    }

    /// Fallible addition: [`NumError::Overflow`] instead of panicking.
    #[inline]
    pub fn try_add(self, rhs: Rat) -> Result<Rat, NumError> {
        self.checked_add(rhs).ok_or(NumError::Overflow)
    }

    /// Fallible subtraction: [`NumError::Overflow`] instead of panicking.
    #[inline]
    pub fn try_sub(self, rhs: Rat) -> Result<Rat, NumError> {
        rhs.checked_neg()
            .and_then(|neg| self.checked_add(neg))
            .ok_or(NumError::Overflow)
    }

    /// Fallible multiplication: [`NumError::Overflow`] instead of panicking.
    #[inline]
    pub fn try_mul(self, rhs: Rat) -> Result<Rat, NumError> {
        self.checked_mul(rhs).ok_or(NumError::Overflow)
    }

    /// Fallible division: [`NumError::DivisionByZero`] on a zero divisor,
    /// [`NumError::Overflow`] when the quotient leaves the `i128` range or
    /// the divisor's inverse does (numerator `i128::MIN`).
    #[inline]
    pub fn try_div(self, rhs: Rat) -> Result<Rat, NumError> {
        if rhs.is_zero() {
            return Err(NumError::DivisionByZero);
        }
        if rhs.num == i128::MIN {
            return Err(NumError::Overflow);
        }
        self.checked_mul(rhs.recip()).ok_or(NumError::Overflow)
    }

    /// Saturating addition: clamps to the representable extremes on
    /// overflow instead of panicking, with a debug assertion so tests
    /// still notice. Only appropriate where the caller tolerates a
    /// conservative bound (e.g. "infinite" burst placeholders).
    pub fn saturating_add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs).unwrap_or_else(|| {
            debug_assert!(false, "Rat::saturating_add overflow: {self} + {rhs}");
            // Additive overflow requires both operands on the same side of
            // zero, so the sign of `self` picks the saturation end.
            // `MIN + 1` keeps the result negatable.
            if self.num < 0 {
                Rat::from_int(i128::MIN + 1)
            } else {
                Rat::from_int(i128::MAX)
            }
        })
    }

    /// Integer power (negative exponents allowed for nonzero values).
    pub fn powi(self, mut exp: i32) -> Rat {
        let mut base = if exp < 0 {
            exp = -exp;
            self.recip()
        } else {
            self
        };
        let mut acc = Rat::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            exp >>= 1;
            if exp > 0 {
                base = base * base;
            }
        }
        acc
    }

    /// Linear interpolation `self + t * (other - self)`.
    pub fn lerp(self, other: Rat, t: Rat) -> Rat {
        self + t * (other - self)
    }

    /// The smallest multiple of `1/den` at or above `self` — used to keep
    /// denominators bounded in iterative computations where rounding *up*
    /// preserves soundness (e.g. fixed-point delay iterations).
    ///
    /// # Panics
    /// Panics unless `den > 0`.
    pub fn ceil_to_denom(self, den: i128) -> Rat {
        assert!(den > 0, "ceil_to_denom: den must be positive");
        let scaled = self * Rat::from_int(den);
        Rat::new(scaled.ceil(), den)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl PartialEq for Rat {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Reduced with positive denominator => structural equality is exact.
        self.num == other.num && self.den == other.den
    }
}

impl Eq for Rat {}

impl Hash for Rat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rat {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full 256-bit magnitude of `|a| * |b|` as `(high, low)` `u128` halves.
fn wide_mul_abs(a: i128, b: i128) -> (u128, u128) {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    let (ah, al) = (a >> 64, a & u64::MAX as u128);
    let (bh, bl) = (b >> 64, b & u64::MAX as u128);
    // Schoolbook on 64-bit halves; each partial product fits in u128.
    let ll = al * bl;
    let lh = al * bh;
    let hl = ah * bl;
    let hh = ah * bh;
    let (mid, mid_carry) = lh.overflowing_add(hl);
    let (low, low_carry) = ll.overflowing_add(mid << 64);
    let high = hh + (mid >> 64) + ((mid_carry as u128) << 64) + low_carry as u128;
    (high, low)
}

/// Compare the exact signed products `a1*b1` and `a2*b2` without overflow,
/// widening to 256 bits.
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

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b <=> c/d  (b, d > 0)  <=>  a*d <=> c*b, compared as exact
        // 256-bit products — `cmp` is total for every pair of
        // representable rationals, never panicking even where
        // `checked_mul` would report overflow.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        cmp_products(self.num, other.den, other.num, self.den)
    }
}

impl Add for Rat {
    type Output = Rat;
    #[inline]
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs)
            .unwrap_or_else(|| overflow(format_args!("{self} + {rhs}")))
    }
}

impl Sub for Rat {
    type Output = Rat;
    #[inline]
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    #[inline]
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(rhs)
            .unwrap_or_else(|| overflow(format_args!("{self} * {rhs}")))
    }
}

impl Div for Rat {
    type Output = Rat;
    #[inline]
    fn div(self, rhs: Rat) -> Rat {
        assert!(!rhs.is_zero(), "Rat division by zero: {self} / 0");
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    #[inline]
    fn neg(self) -> Rat {
        self.checked_neg()
            .unwrap_or_else(|| overflow(format_args!("-({self})")))
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + *b)
    }
}

impl Product for Rat {
    fn product<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ONE, |a, b| a * b)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Rat {
            #[inline]
            fn from(v: $t) -> Rat { Rat::from_int(v as i128) }
        }
    )*};
}
impl_from_int!(i8, i16, i32, i64, i128, u8, u16, u32, u64);

impl From<(i128, i128)> for Rat {
    #[inline]
    fn from((n, d): (i128, i128)) -> Rat {
        Rat::new(n, d)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned by [`Rat::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatParseError(pub String);

impl fmt::Display for RatParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for RatParseError {}

impl FromStr for Rat {
    type Err = RatParseError;

    /// Parses `"3"`, `"-3/4"`, or decimal literals like `"0.25"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || RatParseError(s.to_string());
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| bad())?;
            let d: i128 = d.trim().parse().map_err(|_| bad())?;
            if d == 0 {
                return Err(bad());
            }
            Rat::checked_new(n, d).ok_or_else(bad)
        } else if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim_start().starts_with('-');
            let i: i128 = if int_part.is_empty() || int_part == "-" {
                0
            } else {
                int_part.parse().map_err(|_| bad())?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            if frac_part.len() > 30 {
                return Err(bad());
            }
            let f: i128 = frac_part.parse().map_err(|_| bad())?;
            let scale = 10i128.checked_pow(frac_part.len() as u32).ok_or_else(bad)?;
            let frac = Rat::new(f, scale);
            let int = Rat::from_int(i);
            if neg {
                int.try_sub(frac)
            } else {
                int.try_add(frac)
            }
            .map_err(|_| bad())
        } else {
            let n: i128 = s.parse().map_err(|_| bad())?;
            Ok(Rat::from_int(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, 4), Rat::new(1, -2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(6, -4).numer(), -3);
        assert_eq!(Rat::new(6, -4).denom(), 2);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::new(7, 7) == Rat::ONE);
        let mut v = vec![Rat::new(3, 4), Rat::ZERO, Rat::new(-5, 2), Rat::ONE];
        v.sort();
        assert_eq!(
            v,
            vec![Rat::new(-5, 2), Rat::ZERO, Rat::new(3, 4), Rat::ONE]
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
        assert_eq!(Rat::ZERO.floor(), 0);
    }

    #[test]
    fn recip_and_powi() {
        assert_eq!(Rat::new(3, 4).recip(), Rat::new(4, 3));
        assert_eq!(Rat::new(2, 3).powi(3), Rat::new(8, 27));
        assert_eq!(Rat::new(2, 3).powi(-2), Rat::new(9, 4));
        assert_eq!(Rat::new(5, 7).powi(0), Rat::ONE);
    }

    #[test]
    fn parse() {
        assert_eq!("3".parse::<Rat>().unwrap(), Rat::from_int(3));
        assert_eq!("-3/4".parse::<Rat>().unwrap(), Rat::new(-3, 4));
        assert_eq!("0.25".parse::<Rat>().unwrap(), Rat::new(1, 4));
        assert_eq!("-0.5".parse::<Rat>().unwrap(), Rat::new(-1, 2));
        assert_eq!("1.125".parse::<Rat>().unwrap(), Rat::new(9, 8));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert!("1.2.3".parse::<Rat>().is_err());
        // Literals whose value leaves the range are errors, not panics.
        assert!("1/-170141183460469231731687303715884105728"
            .parse::<Rat>()
            .is_err());
        assert!("-170141183460469231731687303715884105728.5"
            .parse::<Rat>()
            .is_err());
        assert_eq!(
            "2/-170141183460469231731687303715884105728".parse::<Rat>(),
            Ok(Rat::new(-1, 1 << 126))
        );
    }

    #[test]
    fn display_round_trips() {
        for r in [
            Rat::new(-7, 3),
            Rat::ZERO,
            Rat::from_int(42),
            Rat::new(1, 9),
        ] {
            let s = r.to_string();
            assert_eq!(s.parse::<Rat>().unwrap(), r);
        }
    }

    #[test]
    fn sums_and_products() {
        let v = [Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)];
        assert_eq!(v.iter().sum::<Rat>(), Rat::ONE);
        assert_eq!(v.iter().copied().product::<Rat>(), Rat::new(1, 36));
    }

    #[test]
    fn min_max_clamp_lerp() {
        let a = Rat::new(1, 2);
        let b = Rat::new(2, 3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Rat::from_int(9).clamp(Rat::ZERO, Rat::ONE), Rat::ONE);
        assert_eq!(a.lerp(b, Rat::ZERO), a);
        assert_eq!(a.lerp(b, Rat::ONE), b);
        assert_eq!(Rat::ZERO.lerp(Rat::from_int(4), Rat::new(1, 4)), Rat::ONE);
    }

    #[test]
    fn gcd_edge_cases() {
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(0, 5), 5);
        assert_eq!(gcd_i128(-4, 6), 2);
        assert_eq!(gcd_i128(12, -18), 6);
        // 2^127 is the one gcd no i128 holds.
        assert_eq!(gcd_i128(i128::MIN, 0), 1u128 << 127);
        assert_eq!(gcd_i128(0, i128::MIN), 1u128 << 127);
        assert_eq!(gcd_i128(i128::MIN, i128::MIN), 1u128 << 127);
        assert_eq!(gcd_i128(i128::MIN, 6), 2);
        assert_eq!(gcd_i128(i128::MIN, i128::MAX), 1);
        assert_eq!(gcd_i128(i128::MAX, i128::MAX), i128::MAX as u128);
        // Past the u64 fast path: shared powers of two and odd factors.
        assert_eq!(gcd_i128(3 << 100, 9 << 90), 3 << 90);
        assert_eq!(gcd_i128((1 << 126) - 1, (1 << 63) - 1), (1 << 63) - 1);
        assert_eq!(gcd_i128(i128::MAX, 1), 1);
        assert_eq!(gcd_i128(1 << 126, 1 << 70), 1 << 70);
        // 2^61 - 1 and 2^89 - 1 are Mersenne primes.
        let (p, q) = ((1i128 << 61) - 1, (1i128 << 89) - 1);
        assert_eq!(gcd_i128(p * 6, q * 4), 2);
        assert_eq!(gcd_i128(p * (1 << 60), p * 3), p as u128);
    }

    #[test]
    fn negating_min_overflows_in_every_build() {
        // `checked_add` can return an `i128::MIN` numerator, whose
        // negation does not fit: wrapping would give the value back.
        let min = Rat::from_int(i128::MIN / 2)
            .checked_add(Rat::from_int(i128::MIN / 2))
            .expect("-2^126 + -2^126 = i128::MIN fits");
        assert_eq!(min.numer(), i128::MIN);
        assert_eq!(min.checked_neg(), None);
        assert_eq!(Rat::ZERO.try_sub(min), Err(NumError::Overflow));
        assert_eq!(Rat::ONE.try_sub(min), Err(NumError::Overflow));
        assert_eq!(Rat::ONE.try_div(min), Err(NumError::Overflow));
        let neg = std::panic::catch_unwind(|| -min).expect_err("-MIN must not wrap");
        assert_eq!(
            neg.downcast_ref::<String>().map(String::as_str),
            Some("Rat overflow in -(-170141183460469231731687303715884105728)")
        );
        assert!(std::panic::catch_unwind(|| Rat::ZERO - min).is_err());
        assert!(std::panic::catch_unwind(|| min.abs()).is_err());
        assert!(std::panic::catch_unwind(|| min.recip()).is_err());
        // An odd denominator keeps the MIN numerator through reduction.
        let third = Rat::new(i128::MIN, 3);
        assert_eq!(third.numer(), i128::MIN);
        assert_eq!(third.checked_neg(), None);
        // Every other value negates exactly.
        let max = Rat::new(i128::MIN + 1, 7);
        assert_eq!(-max, Rat::new(i128::MAX, 7));
        assert_eq!(max.abs(), -max);
    }

    #[test]
    fn new_handles_min_operands() {
        assert_eq!(Rat::new(i128::MIN, i128::MIN), Rat::ONE);
        assert_eq!(Rat::new(0, i128::MIN), Rat::ZERO);
        assert_eq!(Rat::new(2, i128::MIN), Rat::new(-1, 1 << 126));
        assert_eq!(Rat::new(i128::MIN, 2), Rat::from_int(-(1 << 126)));
        assert!(std::panic::catch_unwind(|| Rat::new(1, i128::MIN)).is_err());
        assert!(std::panic::catch_unwind(|| Rat::new(i128::MIN, -1)).is_err());
    }

    #[test]
    fn floor_ceil_at_the_extremes() {
        let min = Rat::from_int(i128::MIN);
        assert_eq!((min.floor(), min.ceil()), (i128::MIN, i128::MIN));
        let third = Rat::new(i128::MIN, 3);
        // 2^127 = 3 * 56713727820156410577229101238628035242 + 2.
        let q = 56_713_727_820_156_410_577_229_101_238_628_035_242i128;
        assert_eq!((third.floor(), third.ceil()), (-q - 1, -q));
        let near = Rat::new(-i128::MAX, 3);
        assert_eq!((near.floor(), near.ceil()), (-q - 1, -q));
        let top = Rat::new(i128::MAX, 3);
        assert_eq!((top.floor(), top.ceil()), (q, q + 1));
    }

    #[test]
    fn to_f64_approx() {
        assert!((Rat::new(1, 3).to_f64() - 0.333333).abs() < 1e-5);
    }

    // A pair of rationals whose cross products overflow i128. The
    // numerators are coprime to both denominators (2^126 + 1 ≡ 2 mod 3,
    // 2^126 - 1 ≡ 3 mod 5), so neither fraction reduces and a*d, c*b
    // are ~2^126 * small — past i128::MAX.
    fn huge_pair() -> (Rat, Rat) {
        let big = 1i128 << 126;
        (Rat::new(big + 1, 3), Rat::new(big - 1, 5))
    }

    #[test]
    fn checked_ops_report_overflow_cleanly() {
        let (a, b) = huge_pair();
        assert_eq!(a.checked_mul(b), None);
        assert_eq!(a.try_mul(b), Err(NumError::Overflow));
        let big = Rat::from_int(i128::MAX / 2 + 1);
        assert_eq!(big.checked_add(big), None);
        assert_eq!(big.try_add(big), Err(NumError::Overflow));
        assert_eq!(big.try_sub(-big), Err(NumError::Overflow));
        // Division overflowing via the reciprocal product.
        assert_eq!(a.try_div(b.recip()), Err(NumError::Overflow));
        assert_eq!(Rat::ONE.try_div(Rat::ZERO), Err(NumError::DivisionByZero));
        // Non-overflowing cases still succeed.
        assert_eq!(Rat::new(1, 2).try_add(Rat::new(1, 3)), Ok(Rat::new(5, 6)));
        assert_eq!(Rat::new(1, 2).try_mul(Rat::new(2, 3)), Ok(Rat::new(1, 3)));
    }

    #[test]
    fn cmp_is_total_under_overflow() {
        // These comparisons overflow i128 cross-multiplication; the widening
        // path must still order them correctly (and must not panic).
        let (a, b) = huge_pair();
        assert!(a > b); // big/3 > (big-1)/7
        assert!(-a < -b);
        assert!(-a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // Values differing only in the 256-bit low half.
        let x = Rat::new((1i128 << 126) + 1, (1i128 << 125) - 1);
        let y = Rat::new((1i128 << 126) - 1, (1i128 << 125) + 3);
        assert!(x > y);
        assert!(x.min(y) == y && x.max(y) == x);
    }

    #[test]
    fn wide_mul_abs_matches_checked_mul_when_in_range() {
        for (a, b) in [
            (0i128, 5i128),
            (7, -9),
            (i128::MAX, 1),
            (i128::MAX, -1),
            ((1 << 64) + 17, (1 << 63) - 3),
            (-(1 << 90), 1 << 30),
        ] {
            if let Some(p) = a.checked_mul(b) {
                assert_eq!(wide_mul_abs(a, b), (0, p.unsigned_abs()), "{a} * {b}");
            }
        }
        // And one genuinely 256-bit case: (2^127 - 1)^2.
        let (hi, lo) = wide_mul_abs(i128::MAX, i128::MAX);
        // (2^127 - 1)^2 = 2^254 - 2^128 + 1.
        assert_eq!(hi, (1u128 << 126) - 1);
        assert_eq!(lo, 1);
    }

    #[test]
    fn saturating_add_clamps_in_release() {
        // debug_assert fires under `cargo test`, so only probe the clamp in
        // release-style builds.
        if cfg!(debug_assertions) {
            let v = Rat::new(1, 4).saturating_add(Rat::new(1, 4));
            assert_eq!(v, Rat::new(1, 2));
        } else {
            let big = Rat::from_int(i128::MAX / 2 + 1);
            assert_eq!(big.saturating_add(big), Rat::from_int(i128::MAX));
            // -big + -big is exactly i128::MIN (representable, no clamp), so
            // push one further to actually overflow the negative end.
            let neg = Rat::from_int(i128::MIN + 1);
            assert_eq!(neg.saturating_add(neg), Rat::from_int(i128::MIN + 1));
        }
    }
}
