//! Montgomery-form modular arithmetic for odd moduli.
//!
//! This is the hot path for RSA: [`MontCtx::mod_exp`] is a left-to-right
//! sliding-window exponentiation over [`MontCtx::mont_mul`] (the full
//! product, then a `k`-step reduction) and [`MontCtx::mont_sqr`] (each
//! off-diagonal limb product once, doubled, plus the diagonal, then the
//! same reduction). What depends only on the modulus — `n`,
//! `-n^{-1} mod 2^64`, `R^2 mod n` — lives in the [`MontCtx`] a key holds
//! per modulus (see `rsa::RsaPrivateKey`); the window table is powers of
//! the *base*, so it is rebuilt per call, inside the one scratch
//! allocation the call owns. The kernels at the bottom of the file also
//! serve the fixed-width prime fields of [`crate::fp`].
//!
//! On a CPU with AVX-512 IFMA a 1024-bit modulus also gets a [`Mont52`]:
//! the same constants in radix 2^52, for the `x86.rs` kernel that
//! computes two Montgomery products at once. [`Mont52::mod_exp_pair`]
//! runs an RSA-2048 sign's two CRT halves through it in lockstep, with
//! fixed windows and a masked table read; `MontCtx::mod_exp` stays the
//! path for every other width and CPU, and the reference.

use crate::bn::Bn;

/// Precomputed Montgomery context for a fixed odd modulus.
#[derive(Clone, Debug)]
pub struct MontCtx {
    /// The modulus `n` (odd, > 1).
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64 * limbs)`.
    rr: Vec<u64>,
    /// The modulus as a `Bn` (for slow-path reductions).
    n_bn: Bn,
}

/// `-n^{-1} mod 2^64` for odd `n0` (Newton iteration on 2-adic inverse).
fn neg_inv_u64(n0: u64) -> u64 {
    debug_assert!(n0 & 1 == 1);
    let mut inv = n0; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// Window width for an exponent of `bits` bits: the `2^(w-1)`-entry table
/// must pay for itself in saved multiplications (one per `w + 1` bits
/// instead of one per two), so a short public exponent gets plain
/// square-and-multiply and a 1024-bit CRT exponent gets 5 bits.
fn window_bits(bits: usize) -> usize {
    match bits {
        240.. => 5,
        80.. => 4,
        24.. => 3,
        _ => 1,
    }
}

impl MontCtx {
    /// Build a context for odd modulus `n > 1`.
    pub fn new(n_bn: Bn) -> Self {
        assert!(n_bn.is_odd() && !n_bn.is_one(), "modulus must be odd > 1");
        let n = n_bn.limbs().to_vec();
        let k = n.len();
        let n0_inv = neg_inv_u64(n[0]);
        // rr = R^2 mod n = 2^(128k) mod n.
        let mut rr = Bn::one().shl(128 * k).rem(&n_bn).limbs().to_vec();
        rr.resize(k, 0);
        MontCtx {
            n,
            n0_inv,
            rr,
            n_bn,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Bn {
        &self.n_bn
    }

    /// Number of 64-bit limbs in the modulus.
    pub fn limbs(&self) -> usize {
        self.n.len()
    }

    /// `R^2 mod n`: multiplying by it with [`mont_mul`](Self::mont_mul)
    /// converts a value `< n` into Montgomery form.
    pub fn rr(&self) -> &[u64] {
        &self.rr
    }

    /// Montgomery multiplication: `out = a * b * R^{-1} mod n`.
    ///
    /// `a`, `b` and `out` are `k`-limb little-endian values `< n`; `wide`
    /// is `2k` limbs of scratch that receives the full product before its
    /// reduction.
    pub fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64], wide: &mut [u64]) {
        match self.n.len() {
            16 => self.mul_k::<16>(a, b, out, wide),
            32 => self.mul_k::<32>(a, b, out, wide),
            _ => self.mul_k::<0>(a, b, out, wide),
        }
    }

    /// Montgomery squaring: `out = a * a * R^{-1} mod n`, in `1.5 k^2`
    /// limb products instead of `mont_mul`'s `2 k^2`.
    ///
    /// `a` and `out` are `k`-limb values `< n`; `wide` is `2k` limbs of
    /// scratch that receives the full square before its reduction.
    pub fn mont_sqr(&self, a: &[u64], out: &mut [u64], wide: &mut [u64]) {
        match self.n.len() {
            16 => self.sqr_k::<16>(a, out, wide),
            32 => self.sqr_k::<32>(a, out, wide),
            _ => self.sqr_k::<0>(a, out, wide),
        }
    }

    /// The operands cut to the `K` instance's width. The kernels have one
    /// body each; `K` only tells the compiler the trip count of the limb
    /// loops, which lets it unroll a row and keep its carry in the flag
    /// (5-7 % per kernel at 16 limbs). 16 and 32 limbs — RSA-2048's CRT
    /// halves and its public modulus — are the widths instantiated;
    /// `K = 0` reads the width at run time.
    #[inline(always)]
    fn cut<'a, const K: usize>(
        &self,
        a: &'a [u64],
        out: &'a mut [u64],
        wide: &'a mut [u64],
    ) -> (&[u64], &'a [u64], &'a mut [u64], &'a mut [u64]) {
        let k = if K == 0 { self.n.len() } else { K };
        assert!(self.n.len() == k && a.len() == k && out.len() == k && wide.len() == 2 * k);
        (&self.n[..k], &a[..k], &mut out[..k], &mut wide[..2 * k])
    }

    #[inline(always)]
    fn mul_k<const K: usize>(&self, a: &[u64], b: &[u64], out: &mut [u64], wide: &mut [u64]) {
        let (n, a, out, wide) = self.cut::<K>(a, out, wide);
        assert!(b.len() == n.len());
        mul_wide(a, &b[..n.len()], wide);
        redc(n, self.n0_inv, wide, out);
    }

    #[inline(always)]
    fn sqr_k<const K: usize>(&self, a: &[u64], out: &mut [u64], wide: &mut [u64]) {
        let (n, a, out, wide) = self.cut::<K>(a, out, wide);
        sqr_wide(a, wide);
        redc(n, self.n0_inv, wide, out);
    }

    /// `a mod n` as `k` limbs; allocates only when `a >= n`.
    fn load(&self, a: &Bn, out: &mut [u64]) {
        let reduced;
        let limbs = if a < &self.n_bn {
            a.limbs()
        } else {
            reduced = a.rem(&self.n_bn);
            reduced.limbs()
        };
        out[..limbs.len()].copy_from_slice(limbs);
        out[limbs.len()..].fill(0);
    }

    /// Modular exponentiation `base^exp mod n`, left-to-right sliding
    /// window: runs of zero bits cost only their squarings, and every
    /// window starts and ends on a set bit, so the table holds odd
    /// powers only.
    pub fn mod_exp(&self, base: &Bn, exp: &Bn) -> Bn {
        if exp.is_zero() {
            return Bn::one().rem(&self.n_bn);
        }
        let k = self.n.len();
        let w = window_bits(exp.bit_len());
        let odd_powers = 1 << (w - 1);
        // The call's one allocation: base^1, base^3, .. base^(2^w - 1) in
        // Montgomery form, the accumulator and its swap partner, the wide
        // product.
        let mut scratch = vec![0u64; (odd_powers + 4) * k];
        let (table, rest) = scratch.split_at_mut(odd_powers * k);
        let (acc, rest) = rest.split_at_mut(k);
        let (tmp, wide) = rest.split_at_mut(k);
        let (mut acc, mut tmp) = (acc, tmp);
        self.load(base, tmp);
        self.mont_mul(tmp, &self.rr, &mut table[..k], wide);
        self.mont_sqr(&table[..k], acc, wide);
        for i in 1..odd_powers {
            let (lower, entry) = table.split_at_mut(i * k);
            self.mont_mul(&lower[(i - 1) * k..], acc, &mut entry[..k], wide);
        }
        // The step below bit `hi`: where it ends, and the table offset of
        // the power to multiply in after squaring down to there. A clear
        // bit is a step of its own; a set bit opens a window of at most w
        // bits that also ends on a set bit.
        let step = |hi: usize| {
            if !exp.bit(hi - 1) {
                return (hi - 1, None);
            }
            let mut lo = hi.saturating_sub(w);
            while !exp.bit(lo) {
                lo += 1;
            }
            let value = (lo..hi).rev().fold(0, |v, i| v << 1 | exp.bit(i) as usize);
            (lo, Some(value / 2 * k))
        };
        let (mut hi, first) = step(exp.bit_len());
        let first = first.expect("the top bit of a non-zero exponent is set");
        acc.copy_from_slice(&table[first..][..k]);
        while hi > 0 {
            let (lo, power) = step(hi);
            for _ in lo..hi {
                self.mont_sqr(acc, tmp, wide);
                core::mem::swap(&mut acc, &mut tmp);
            }
            if let Some(power) = power {
                self.mont_mul(acc, &table[power..][..k], tmp, wide);
                core::mem::swap(&mut acc, &mut tmp);
            }
            hi = lo;
        }
        // Out of Montgomery form: reduce acc * 1.
        wide[..k].copy_from_slice(acc);
        wide[k..].fill(0);
        redc(&self.n, self.n0_inv, wide, tmp);
        Bn::from_limbs(tmp.to_vec())
    }

    /// `a * b mod n`: one product that divides by `R`, one by `R^2 mod
    /// n` that multiplies it back.
    pub fn mul_mod(&self, a: &Bn, b: &Bn) -> Bn {
        let k = self.n.len();
        let mut scratch = vec![0u64; 5 * k];
        let (x, rest) = scratch.split_at_mut(k);
        let (y, rest) = rest.split_at_mut(k);
        let (z, wide) = rest.split_at_mut(k);
        self.load(a, x);
        self.load(b, y);
        self.mont_mul(x, y, z, wide);
        self.mont_mul(z, &self.rr, x, wide);
        Bn::from_limbs(x.to_vec())
    }
}

#[cfg(target_arch = "x86_64")]
use crate::x86::{amm52x20_x2, ifma, Ifma};

/// Where the target is not x86-64 there is no kernel and no proof.
#[cfg(not(target_arch = "x86_64"))]
mod no_ifma {
    #[derive(Clone, Copy, Debug)]
    pub(super) enum Ifma {}

    pub(super) fn ifma() -> Option<Ifma> {
        None
    }

    pub(super) fn amm52x20_x2(
        cpu: Ifma,
        _: [&super::Limbs52; 2],
        _: [&super::Limbs52; 2],
        _: [&super::Limbs52; 2],
        _: [u64; 2],
    ) -> [super::Limbs52; 2] {
        match cpu {}
    }
}
#[cfg(not(target_arch = "x86_64"))]
use no_ifma::{amm52x20_x2, ifma, Ifma};

/// A value below 2^1040 as 20 radix-2^52 limbs, little-endian, padded
/// with zeros to the 24 lanes of three 512-bit registers.
pub type Limbs52 = [u64; 24];

pub(crate) const MASK52: u64 = (1 << 52) - 1;

/// Bits an exponent may have on the radix-2^52 path: 208 windows of 5.
const EXP_BITS52: usize = 1040;

/// Radix-2^52 Montgomery context for a 1024-bit odd modulus, on a CPU
/// with AVX-512 IFMA: the modulus, `-m^{-1} mod 2^52` and `2^2080 mod
/// m`, and the proof that the kernel can run. `R` is 2^1040 here, so
/// `4m < R` and products stay below `2m` without a subtraction (see
/// [`Mont52::amm_pair`]).
#[derive(Clone, Debug)]
pub struct Mont52 {
    cpu: Ifma,
    m: Limbs52,
    k0: u64,
    rr: Limbs52,
}

impl Mont52 {
    /// The context for `m`, or `None` unless `m` is odd, exactly 1024
    /// bits long and the CPU has AVX-512F and AVX-512 IFMA.
    pub fn new(m: &Bn) -> Option<Self> {
        let cpu = ifma()?;
        if !m.is_odd() || m.bit_len() != 1024 {
            return None;
        }
        Some(Mont52 {
            cpu,
            m: to_limbs52(m),
            k0: neg_inv_u64(m.limbs()[0]) & MASK52,
            rr: to_limbs52(&Bn::one().shl(2 * EXP_BITS52).rem(m)),
        })
    }

    /// `R^2 mod m`: [`Self::amm_pair`] by it takes a value into
    /// Montgomery form.
    pub fn rr(&self) -> &Limbs52 {
        &self.rr
    }

    /// The kernel: two almost-Montgomery products at once, `a[h] * b[h]
    /// / R` modulo `ctx[h].m`. Limbs are normalised (each below 2^52)
    /// and `a[h]`, `b[h]` below `2m`; so is the result, which is
    /// congruent to the product but not reduced.
    pub fn amm_pair(ctx: [&Self; 2], a: [&Limbs52; 2], b: [&Limbs52; 2]) -> [Limbs52; 2] {
        amm52x20_x2(ctx[0].cpu, a, b, ctx.map(|c| &c.m), ctx.map(|c| c.k0))
    }

    /// `base[h]^exp[h] mod ctx[h].m` for both `h` in lockstep, each base
    /// below its modulus and each exponent below 2^1040: a sign's two
    /// CRT halves in one pass.
    ///
    /// Fixed 5-bit windows from the top: five squarings, then one
    /// product by the table entry the window names — `base^0`
    /// included, so every window costs the same — selected by reading
    /// all 32 entries under a mask. No branch and no address depends
    /// on the exponent. The table is powers of the base, per call, on
    /// the stack with the accumulator: the call allocates only its two
    /// results.
    pub fn mod_exp_pair(ctx: [&Self; 2], base: [&Bn; 2], exp: [&Bn; 2]) -> [Bn; 2] {
        assert!(exp.iter().all(|e| e.bit_len() <= EXP_BITS52));
        let mul =
            |a: &[Limbs52; 2], b: &[Limbs52; 2]| Self::amm_pair(ctx, a.each_ref(), b.each_ref());
        let exp = exp.map(exponent_words);
        let base = base.map(to_limbs52);
        assert!(
            (0..2).all(|h| !ge(&base[h], &ctx[h].m)),
            "base below its modulus"
        );
        let rr = ctx.map(|c| c.rr);
        let mut one = [0u64; 24];
        one[0] = 1;
        let one = [one; 2];
        // Entry i holds both halves' base^i, in Montgomery form: entry 0
        // is R, entry 1 is base * R.
        let mut table = [[[0u64; 24]; 2]; 32];
        table[0] = mul(&rr, &one);
        table[1] = mul(&base, &rr);
        for i in 2..32 {
            table[i] = mul(&table[i - 1], &table[1]);
        }
        let windows = EXP_BITS52 / 5;
        let mut acc = select(&table, exp.each_ref().map(|e| window(e, windows - 1)));
        for k in (0..windows - 1).rev() {
            for _ in 0..5 {
                acc = mul(&acc, &acc);
            }
            acc = mul(&acc, &select(&table, exp.each_ref().map(|e| window(e, k))));
        }
        // Out of Montgomery form: a product by 1 is at most m, and m
        // itself stands for 0.
        let acc = mul(&acc, &one);
        [0, 1].map(|h| from_limbs52(&reduce_once(acc[h], &ctx[h].m)))
    }
}

/// `v` (below 2^1040) as radix-2^52 limbs.
fn to_limbs52(v: &Bn) -> Limbs52 {
    let mut words = [0u64; 17];
    words[..v.limbs().len()].copy_from_slice(v.limbs());
    let mut out = [0u64; 24];
    for (i, limb) in out[..20].iter_mut().enumerate() {
        let (w, shift) = (52 * i / 64, 52 * i % 64);
        let pair = (words[w + 1] as u128) << 64 | words[w] as u128;
        *limb = (pair >> shift) as u64 & MASK52;
    }
    out
}

/// Normalised radix-2^52 limbs as a `Bn`.
fn from_limbs52(v: &Limbs52) -> Bn {
    let mut words = vec![0u64; 17];
    for (i, &limb) in v[..20].iter().enumerate() {
        let (w, shift) = (52 * i / 64, 52 * i % 64);
        let wide = (limb as u128) << shift;
        words[w] |= wide as u64;
        words[w + 1] |= (wide >> 64) as u64;
    }
    Bn::from_limbs(words)
}

/// An exponent's words, padded so that every 5-bit window reads two.
fn exponent_words(exp: &Bn) -> [u64; 18] {
    let mut words = [0u64; 18];
    words[..exp.limbs().len()].copy_from_slice(exp.limbs());
    words
}

/// Bits `5k..5k + 5` of the exponent.
fn window(words: &[u64; 18], k: usize) -> usize {
    let (w, shift) = (5 * k / 64, 5 * k % 64);
    let pair = (words[w + 1] as u128) << 64 | words[w] as u128;
    (pair >> shift) as usize & 31
}

/// Entry `index[h]` of half `h` of the table, for both halves, read
/// through a mask from every entry.
fn select(table: &[[Limbs52; 2]; 32], index: [usize; 2]) -> [Limbs52; 2] {
    let mut out = [[0u64; 24]; 2];
    for (i, entry) in table.iter().enumerate() {
        for h in 0..2 {
            let mask = ((i == index[h]) as u64).wrapping_neg();
            for (o, &e) in out[h].iter_mut().zip(&entry[h]) {
                *o |= e & mask;
            }
        }
    }
    out
}

/// `v mod m` for a normalised `v <= m`: subtract `m` and keep the
/// difference unless it borrowed, choosing by mask.
fn reduce_once(v: Limbs52, m: &Limbs52) -> Limbs52 {
    let mut diff = [0u64; 24];
    let mut borrow = 0u64;
    for ((d, &x), &y) in diff.iter_mut().zip(&v).zip(m) {
        let t = x.wrapping_sub(y).wrapping_sub(borrow);
        *d = t & MASK52;
        borrow = t >> 63;
    }
    let keep = borrow.wrapping_neg();
    std::array::from_fn(|i| (v[i] & keep) | (diff[i] & !keep))
}

/// `wide = a * b`: `k`-limb operands, `2k`-limb product.
#[inline(always)]
pub(crate) fn mul_wide(a: &[u64], b: &[u64], wide: &mut [u64]) {
    let k = a.len();
    assert!(b.len() == k && wide.len() == 2 * k);
    wide.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        wide[i + k] = mul_add_row(&mut wide[i..i + k], ai, b);
    }
}

/// `wide = a * a`: each off-diagonal limb product `a_i * a_j`, `i < j`,
/// once; then all of them doubled and the diagonal `a_i^2` added at limbs
/// `2i`, `2i + 1` in the same pass.
#[inline(always)]
pub(crate) fn sqr_wide(a: &[u64], wide: &mut [u64]) {
    let k = a.len();
    assert!(wide.len() == 2 * k);
    wide.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        wide[i + k] = mul_add_row(&mut wide[2 * i + 1..i + k], ai, &a[i + 1..]);
    }
    let (mut shifted_out, mut carry) = (0u64, 0u64);
    for (t, &ai) in wide.chunks_exact_mut(2).zip(a) {
        let sq = (ai as u128) * (ai as u128);
        let lo = (t[0] << 1) | shifted_out;
        let hi = (t[1] << 1) | (t[0] >> 63);
        shifted_out = t[1] >> 63;
        let s = lo as u128 + (sq as u64) as u128 + carry as u128;
        t[0] = s as u64;
        let s = hi as u128 + (sq >> 64) + (s >> 64);
        t[1] = s as u64;
        carry = (s >> 64) as u64;
    }
}

/// Montgomery reduction: `out = wide * R^{-1} mod n` for a `2k`-limb
/// `wide < n * R` (consumed as scratch), `R = 2^(64k)`, and `n0_inv =
/// -n^{-1} mod 2^64`.
#[inline(always)]
pub(crate) fn redc(n: &[u64], n0_inv: u64, wide: &mut [u64], out: &mut [u64]) {
    let k = n.len();
    assert!(wide.len() == 2 * k && out.len() == k);
    // Carry out of limb i + k - 1, owed to limb i + k.
    let mut top = 0u64;
    for i in 0..k {
        let (low, high) = wide[i..].split_at_mut(k);
        let m = low[0].wrapping_mul(n0_inv);
        let carry = mul_add_row(low, m, n);
        let s = high[0] as u128 + carry as u128 + top as u128;
        high[0] = s as u64;
        top = (s >> 64) as u64;
    }
    out.copy_from_slice(&wide[k..]);
    // The value is below 2n: a set limb 2k cancels against the borrow.
    if top != 0 || ge(out, n) {
        sub_assign(out, n);
    }
}

/// `row += x * ys`, limb by limb over the shorter of the two; returns the
/// carry out of the last limb.
#[inline(always)]
fn mul_add_row(row: &mut [u64], x: u64, ys: &[u64]) -> u64 {
    let mut carry = 0u64;
    for (t, &y) in row.iter_mut().zip(ys) {
        let s = *t as u128 + (x as u128) * (y as u128) + carry as u128;
        *t = s as u64;
        carry = (s >> 64) as u64;
    }
    carry
}

/// `a >= b` for equal-length little-endian limb slices.
#[inline(always)]
pub(crate) fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` over equal-length limb slices; returns the borrow out.
#[inline(always)]
pub(crate) fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 | b2;
    }
    borrow
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bn(s: &str) -> Bn {
        Bn::from_hex(s).unwrap()
    }

    #[test]
    fn neg_inv_property() {
        for n0 in [1u64, 3, 5, 0xffff_ffff_ffff_ffff, 0x1234_5678_9abc_def1] {
            let inv = neg_inv_u64(n0);
            // n0 * (-inv) == 1 mod 2^64  <=>  n0 * inv == -1 mod 2^64
            assert_eq!(n0.wrapping_mul(inv.wrapping_neg()), 1);
        }
    }

    #[test]
    fn mul_mod_matches_naive() {
        let m = bn("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
        let a = bn("deadbeefcafebabe0123456789abcdef00ff00ff00ff00ff");
        let b = bn("1122334455667788991122334455667788aabbccddeeff");
        let ctx = MontCtx::new(m.clone());
        assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn mod_exp_matches_naive() {
        let m = bn("f123456789abcdef123456789abcdef1");
        let a = bn("abcdef");
        let e = bn("10001");
        let ctx = MontCtx::new(m.clone());
        // naive square-and-multiply
        let mut expect = Bn::one();
        let mut base = a.rem(&m);
        for i in 0..e.bit_len() {
            if e.bit(i) {
                expect = expect.mul_mod(&base, &m);
            }
            base = base.mul_mod(&base, &m);
        }
        assert_eq!(ctx.mod_exp(&a, &e), expect);
    }

    #[test]
    fn mod_exp_zero_exponent() {
        let m = bn("d");
        let ctx = MontCtx::new(m);
        assert!(ctx.mod_exp(&bn("5"), &Bn::zero()).is_one());
    }

    #[test]
    fn mod_exp_fermat_256bit() {
        let p = bn("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
        let ctx = MontCtx::new(p.clone());
        let a = bn("2");
        assert!(ctx.mod_exp(&a, &p.sub(&Bn::one())).is_one());
    }
}
