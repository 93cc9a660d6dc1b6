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
