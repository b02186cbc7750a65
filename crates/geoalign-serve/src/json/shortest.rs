//! The number writer behind [`super::write_number`]: the shortest decimal
//! that reads back as the same `f64`, laid out as std's `{}` lays it out,
//! without going through `core::fmt`.
//!
//! The digits come from Ryū's `d2d` (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the value and its rounding interval are
//! scaled by one table entry (a 64×128-bit product), and digits are
//! removed while the interval still holds a shorter decimal. Two things
//! differ from the reference implementation, both to print what `{}`
//! prints:
//!
//! * **Ties round up.** When the removed digits are exactly one half,
//!   the reference rounds to even and std rounds up: the bits
//!   `0x43179085685d83c9` (1658206780088562.25) print
//!   `1658206780088562.3` under `{}`, not `…562.2`. So the step that
//!   makes ties even is dropped, and with it the flag that tracked
//!   whether `vr`'s removed digits were all zero, which nothing else reads.
//! * **No exponent.** `{}` writes every digit out: `1e-7` is
//!   `0.0000001` and `1e300` is a 1 followed by 300 zeros.
//!
//! The tables are built at compile time from two carried big integers,
//! `5^i` and `⌊2^K / 5^i⌋`, so there is no literal table to trust and no
//! first-use cost. DESIGN.md §7 "Number writer" has the whole argument;
//! the tests compare every output with `{}`.

/// Bits kept of each table entry.
const POW5_BITS: i32 = 125;

/// `POW5[i]` serves `5^i` for `i = -e2 - q`, at most 325 (at `e2 = -1076`).
const POW5_LEN: usize = 326;

/// `POW5_INV[q]` serves `5^-q` for `q` up to 291 (at `e2 = 969`); the
/// table is Ryū's full size.
const POW5_INV_LEN: usize = 342;

/// 64-bit limbs of the carried big integers: 1280 bits, above [`K`].
const LIMBS: usize = 20;

/// `POW5_INV` is read off `⌊2^K / 5^i⌋`; `K` exceeds every entry's
/// `bitlen(5^i) − 1 + 125` (at most 916).
const K: u32 = 1216;

/// `POW5[i]`: the top 125 bits of `5^i` (shifted left when `5^i` has
/// fewer).
static POW5: [u128; POW5_LEN] = pow5_table();

/// `POW5_INV[i]`: `⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋ + 1`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// The two-digit strings `"00"` to `"99"`, back to back.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Limb `i` of `n`, zero past the top.
const fn limb(n: &[u64; LIMBS], i: usize) -> u64 {
    if i < LIMBS {
        n[i]
    } else {
        0
    }
}

/// Bits `shift..shift + 128` of `n`.
const fn window(n: &[u64; LIMBS], shift: u32) -> u128 {
    let (word, bit) = ((shift / 64) as usize, shift % 64);
    let low = limb(n, word) as u128 | (limb(n, word + 1) as u128) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | (limb(n, word + 2) as u128) << (128 - bit)
    }
}

/// The number of significant bits of `n`.
const fn bit_len(n: &[u64; LIMBS]) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if n[i] != 0 {
            return 64 * i as u32 + 64 - n[i].leading_zeros();
        }
    }
    0
}

/// `n *= 5`.
const fn mul5(n: &mut [u64; LIMBS]) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let product = n[i] as u128 * 5 + carry;
        n[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
}

/// `n = ⌊n / 5⌋`.
const fn div5(n: &mut [u64; LIMBS]) {
    let mut rest = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let part = rest << 64 | n[i] as u128;
        n[i] = (part / 5) as u64;
        rest = part % 5;
    }
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0; POW5_LEN];
    let mut pow5 = [0u64; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = bit_len(&pow5) as i32;
        table[i] = if len >= POW5_BITS {
            window(&pow5, (len - POW5_BITS) as u32)
        } else {
            window(&pow5, 0) << (POW5_BITS - len)
        };
        mul5(&mut pow5);
        i += 1;
    }
    table
}

/// Carries `Q_i = ⌊2^K / 5^i⌋` down with `Q_{i+1} = ⌊Q_i / 5⌋`, exact
/// because nested floors are, and shifts each entry out of it:
/// `⌊Q_i / 2^s⌋ = ⌊2^(K−s) / 5^i⌋`.
const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0; POW5_INV_LEN];
    let mut pow5 = [0u64; LIMBS];
    pow5[0] = 1;
    let mut quotient = [0u64; LIMBS];
    quotient[(K / 64) as usize] = 1 << (K % 64);
    let mut i = 0;
    while i < POW5_INV_LEN {
        let top = bit_len(&pow5) - 1 + POW5_BITS as u32;
        table[i] = window(&quotient, K - top) + 1;
        mul5(&mut pow5);
        div5(&mut quotient);
        i += 1;
    }
    table
}

/// `⌊log10(2^e)⌋` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78913) >> 18) as i32
}

/// `⌊log10(5^e)⌋` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732923) >> 20) as i32
}

/// `bitlen(5^e)` for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// Whether `5^p` divides `value` (nonzero).
fn multiple_of_pow5(mut value: u64, p: i32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `digits · 10^exponent` inside the rounding interval of
/// the finite, nonzero `f64` with `bits` (sign ignored), nearest to it,
/// an exact tie rounding up.
fn d2d(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as i32;
    // Two extra bits for the interval bounds below.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (ieee_exponent - 1023 - 52 - 2, (1 << 52) | ieee_mantissa)
    };
    let accept_bounds = m2.is_multiple_of(2);
    // The interval is [mv − 1 − mm_shift, mv + 2] over 4: the gap below
    // a power of two is half the gap above, except at the bottom binade.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mut vm_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mv, mp and mm is a multiple of 5. When it is
        // mv, only the dropped tie rule would read its factor.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let j = q - (pow5_bits(i) - POW5_BITS);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // For 1 < q < 63 the reference tests mv's trailing zero bits,
        // again only for the tie rule.
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The rare case: the lower bound itself may be the shortest.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let below = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(below || last_removed >= 5)
    } else {
        // Two digits at a time while two fit, then at most one more. The
        // last digit removed decides the rounding: 5 or more rounds up,
        // so an exact tie does too.
        let mut round_up = false;
        while vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        if vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Writes the decimal digits of `v` into the end of `buf`, which must
/// hold at least that many: eight at a time while `v` needs more than 32
/// bits, then four, then two.
fn write_digits(mut v: u64, buf: &mut [u8]) {
    let mut end = buf.len();
    let mut pair = |end: usize, two: u32| {
        let at = 2 * two as usize;
        buf[end - 2..end].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
    };
    if v >> 32 != 0 {
        let high = v / 100_000_000;
        let low = (v - high * 100_000_000) as u32;
        v = high;
        let (upper, lower) = (low / 10_000, low % 10_000);
        pair(end, lower % 100);
        pair(end - 2, lower / 100);
        pair(end - 4, upper % 100);
        pair(end - 6, upper / 100);
        end -= 8;
    }
    let mut v = v as u32;
    while v >= 10_000 {
        let four = v % 10_000;
        v /= 10_000;
        pair(end, four % 100);
        pair(end - 2, four / 100);
        end -= 4;
    }
    if v >= 100 {
        pair(end, v % 100);
        v /= 100;
        end -= 2;
    }
    if v >= 10 {
        pair(end, v);
    } else {
        buf[end - 1] = b'0' + v as u8;
    }
}

/// Appends `count` zeros, up to 64 at a time.
fn push_zeros(out: &mut String, mut count: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while count > 0 {
        let run = count.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        count -= run;
    }
}

/// The longest rendering built on the stack and appended in one piece:
/// a sign, `0.`, and the digits (at most 17) with zeros before or after.
const INLINE: usize = 32;

/// Appends the finite `v` exactly as `{}` renders it.
pub(super) fn write_shortest(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    let sign = usize::from(v.is_sign_negative());
    if bits << 1 == 0 {
        out.push_str(if sign == 1 { "-0" } else { "0" });
        return;
    }
    let (digits, exponent) = d2d(bits);
    let n = digits.ilog10() as usize + 1;
    // `{}` places the point `p` digits in: before them (after `0.` and
    // `-p` zeros), inside them, or after them (followed by `p - n` zeros).
    let p = n as i32 + exponent;
    let len = sign
        + if p <= 0 {
            2 + p.unsigned_abs() as usize + n
        } else if (p as usize) < n {
            n + 1
        } else {
            p as usize
        };
    if len <= INLINE {
        let mut text = [b'0'; INLINE];
        if sign == 1 {
            text[0] = b'-';
        }
        if p <= 0 {
            text[sign + 1] = b'.';
            write_digits(digits, &mut text[..len]);
        } else if (p as usize) < n {
            // Digits one place right, then the first `p` back over the point.
            let p = p as usize;
            write_digits(digits, &mut text[..len]);
            text.copy_within(sign + 1..sign + 1 + p, sign);
            text[sign + p] = b'.';
        } else {
            write_digits(digits, &mut text[..sign + n]);
        }
        out.push_str(std::str::from_utf8(&text[..len]).expect("ASCII"));
        return;
    }
    // A long run of zeros: at least 1e-14 or past 1e30.
    let mut buf = [0; 17];
    write_digits(digits, &mut buf[..n]);
    let text = std::str::from_utf8(&buf[..n]).expect("ASCII");
    if sign == 1 {
        out.push('-');
    }
    if p <= 0 {
        out.push_str("0.");
        push_zeros(out, p.unsigned_abs() as usize);
        out.push_str(text);
    } else {
        out.push_str(text);
        push_zeros(out, p as usize - n);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{write_number, POW10};
    use super::*;
    use std::fmt::Write as _;

    /// Both tables against a run-time build: `5^i` by repeated
    /// multiplication, its top 125 bits read bit by bit, and
    /// `⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋` by binary long division.
    #[test]
    fn const_tables_equal_a_runtime_build() {
        let mut pow5 = [0u64; LIMBS];
        pow5[0] = 1;
        for i in 0..POW5_INV_LEN {
            let len = bit_len(&pow5);
            let bit = |n: i64| n >= 0 && pow5[n as usize / 64] >> (n % 64) & 1 == 1;
            if i < POW5_LEN {
                let top = (0..125).fold(0u128, |top, b| {
                    top | u128::from(bit(i64::from(len) - 125 + b)) << b
                });
                assert_eq!(POW5[i], top, "POW5[{i}]");
            }
            // The dividend's bits from the top: a 1, then len − 1 + 125 zeros.
            let (mut quotient, mut rest) = (0u128, [0u64; LIMBS]);
            for step in 0..len + 125 {
                quotient <<= 1;
                for l in (0..LIMBS).rev() {
                    rest[l] = rest[l] << 1 | if l > 0 { rest[l - 1] >> 63 } else { 0 };
                }
                rest[0] |= u64::from(step == 0);
                if (0..LIMBS)
                    .rev()
                    .find(|&l| rest[l] != pow5[l])
                    .is_none_or(|l| rest[l] > pow5[l])
                {
                    let mut borrow = false;
                    for l in 0..LIMBS {
                        let (d, b1) = rest[l].overflowing_sub(pow5[l]);
                        let (d, b2) = d.overflowing_sub(u64::from(borrow));
                        rest[l] = d;
                        borrow = b1 || b2;
                    }
                    quotient |= 1;
                }
            }
            assert_eq!(POW5_INV[i], quotient + 1, "POW5_INV[{i}]");
            mul5(&mut pow5);
        }
    }

    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// [`write_number`] against `{}` (and `null` off the finite line).
    fn check(v: f64, want: &mut String, got: &mut String) {
        want.clear();
        got.clear();
        if v.is_finite() {
            let _ = write!(want, "{v}");
        } else {
            want.push_str("null");
        }
        write_number(got, v);
        assert_eq!(got, want, "bits {:#018x}", v.to_bits());
    }

    /// `count` values drawn in turn from seven classes: random bit
    /// patterns, binade edges and their neighbours, subnormals, integers,
    /// short decimals as the parser makes them, every binary exponent in
    /// −60..60 with a random mantissa, and binary fractions that fall on
    /// an exact decimal tie.
    fn differential(count: usize, seed: u64) {
        let (mut want, mut got) = (String::new(), String::new());
        let mut state = seed;
        for i in 0..count {
            let r = next(&mut state);
            let sign = r >> 63 << 63;
            let bits = match i % 7 {
                0 => r,
                1 => {
                    let exponent = (r >> 8) % 2047;
                    let mantissa = [0, 1, 2, (1 << 52) - 2, (1 << 52) - 1][(r % 5) as usize];
                    let edge = exponent << 52 | mantissa;
                    match (r >> 4) % 3 {
                        0 => edge,
                        1 => edge.saturating_sub(1),
                        _ => (edge + 1).min(0x7fef_ffff_ffff_ffff),
                    }
                }
                2 => (r & ((1 << 52) - 1)).max(1),
                3 => ((r >> (r % 64)) as f64).to_bits(),
                4 => {
                    let digits = 1 + (r % 16) as u32;
                    let whole = (r >> 8) % 10u64.pow(digits);
                    let fraction = ((r >> 4) % u64::from(digits + 1)) as usize;
                    (whole as f64 / POW10[fraction]).to_bits()
                }
                5 => {
                    let e2_plus_60 = (i / 7 % 121) as u64;
                    (e2_plus_60 + 1075 - 60) << 52 | (r & ((1 << 52) - 1))
                }
                _ => {
                    let places = 1 + (r % 8) as u32;
                    let magnitude = 53 - places - ((r >> 4) % 3) as u32;
                    let whole = 1 << (magnitude - 1) | (r >> 11) & ((1 << (magnitude - 1)) - 1);
                    let odd = (r >> 7) & ((1 << places) - 1) | 1;
                    ((whole << places | odd) as f64 / f64::from(1u32 << places)).to_bits()
                }
            };
            check(
                f64::from_bits(bits & !(1 << 63) | sign),
                &mut want,
                &mut got,
            );
        }
    }

    #[test]
    fn writes_what_display_writes() {
        let (mut want, mut got) = (String::new(), String::new());
        let edges = [
            0.0,
            -0.0,
            1.0,
            0.1,
            0.3,
            1e-7,
            1e21,
            1e22,
            1e23,
            9007199254740992.0,
            9007199254740994.0,
            f64::from_bits(0x4317_9085_685d_83c9),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for v in edges {
            check(v, &mut want, &mut got);
        }
        for exponent in 0..2047u64 {
            check(f64::from_bits(exponent << 52), &mut want, &mut got);
        }
        for e in -324..=308 {
            check(format!("1e{e}").parse().unwrap(), &mut want, &mut got);
        }
        differential(1_050_000, 0x9e37_79b9_7f4a_7c15);
    }

    /// The same classes, a hundred times over; `scripts/check.sh` runs it
    /// in release.
    #[test]
    #[ignore]
    fn writes_what_display_writes_long() {
        differential(100_000_000, 0xd1b5_4a32_d192_ed03);
    }

    #[test]
    fn exact_ties_round_up_and_the_layout_is_display_s() {
        let mut out = String::new();
        let cases = [
            (f64::from_bits(0x4317_9085_685d_83c9), "1658206780088562.3"),
            (1e-7, "0.0000001"),
            (3142.0, "3142"),
            (0.5, "0.5"),
            (123.456, "123.456"),
            (-0.0, "-0"),
            (0.0, "0"),
        ];
        for (v, text) in cases {
            out.clear();
            write_number(&mut out, v);
            assert_eq!(out, text);
        }
        out.clear();
        write_number(&mut out, 1e300);
        assert_eq!(out, format!("1{}", "0".repeat(300)));
        out.clear();
        write_number(&mut out, f64::from_bits(1));
        assert_eq!(out, format!("0.{}5", "0".repeat(323)));
    }
}
