//! Fixed-width Montgomery arithmetic over prime fields, used by the
//! prime-curve module (`ec`) for P-256 (N = 4 limbs) and P-384 (N = 6).
//!
//! Elements are `[u64; N]` in Montgomery form — no heap allocation in the
//! point-arithmetic hot path, following the perf-book guidance to keep
//! oft-instantiated types small and allocation-free. Multiplication is
//! the row-interleaved (CIOS) form, whose `N`-limb accumulator lives in
//! registers at these widths; squaring and reduction are
//! [`crate::mont`]'s kernels, run at a width the compiler knows.

#![allow(clippy::needless_range_loop)] // fixed-width limb kernels index in lockstep

use crate::bn::Bn;
use crate::mont::{ge, redc, sqr_wide, sub_assign};

/// Parameters of a prime field with an `N`-limb odd modulus.
#[derive(Clone, Debug)]
pub struct FpParams<const N: usize> {
    /// The prime modulus `p` (little-endian limbs).
    pub p: [u64; N],
    /// `-p^{-1} mod 2^64`.
    pub n0_inv: u64,
    /// `R^2 mod p` where `R = 2^(64N)` — converts into Montgomery form.
    pub rr: [u64; N],
    /// `R mod p` — the Montgomery representation of 1.
    pub one: [u64; N],
}

impl<const N: usize> FpParams<N> {
    /// Derive the parameters from a prime modulus.
    pub fn new(p_bn: &Bn) -> Self {
        assert!(p_bn.is_odd(), "prime field modulus must be odd");
        assert!(p_bn.bit_len() <= 64 * N && p_bn.bit_len() > 64 * (N - 1));
        let limbs = |v: &Bn| {
            let mut a = [0u64; N];
            a[..v.limbs().len()].copy_from_slice(v.limbs());
            a
        };
        let p = limbs(p_bn);
        // -p^{-1} mod 2^64 by Newton iteration.
        let mut inv = p[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p[0].wrapping_mul(inv)));
        }
        FpParams {
            p,
            n0_inv: inv.wrapping_neg(),
            rr: limbs(&Bn::one().shl(128 * N).rem(p_bn)),
            one: limbs(&Bn::one().shl(64 * N).rem(p_bn)),
        }
    }

    /// Convert a `Bn` into Montgomery form; `None` unless it is `< p`.
    /// Allocation-free: a range compare on the limbs and one product.
    pub fn to_mont(&self, v: &Bn) -> Option<[u64; N]> {
        let limbs = v.limbs();
        if limbs.len() > N {
            return None;
        }
        let mut a = [0u64; N];
        a[..limbs.len()].copy_from_slice(limbs);
        if ge(&a, &self.p) {
            return None;
        }
        Some(self.mul(&a, &self.rr))
    }

    /// Convert out of Montgomery form into a `Bn`.
    pub fn from_mont(&self, a: &[u64; N]) -> Bn {
        let mut out = [0u64; N];
        let mut wide = [*a, [0u64; N]];
        redc(&self.p, self.n0_inv, wide.as_flattened_mut(), &mut out);
        Bn::from_limbs(out.to_vec())
    }

    /// The modulus as a `Bn`.
    pub fn modulus_bn(&self) -> Bn {
        Bn::from_limbs(self.p.to_vec())
    }

    /// The additive identity (also the Montgomery form of 0).
    pub fn zero(&self) -> [u64; N] {
        [0u64; N]
    }

    /// Field addition.
    pub fn add(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut out = *a;
        // On a carry the true value is out + 2^(64N); the borrow of the
        // subtraction cancels it.
        if add_assign(&mut out, b) || ge(&out, &self.p) {
            sub_assign(&mut out, &self.p);
        }
        out
    }

    /// Field subtraction.
    pub fn sub(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut out = *a;
        if sub_assign(&mut out, b) {
            add_assign(&mut out, &self.p);
        }
        out
    }

    /// Field negation.
    pub fn neg(&self, a: &[u64; N]) -> [u64; N] {
        if self.is_zero(a) {
            return [0u64; N];
        }
        let mut out = self.p;
        sub_assign(&mut out, a);
        out
    }

    /// Montgomery multiplication (CIOS): `a * b * R^{-1} mod p`.
    pub fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let p = &self.p;
        let mut t = [0u64; N];
        let mut top = 0u64;
        for i in 0..N {
            let ai = a[i];
            let mut carry = 0u64;
            for j in 0..N {
                let s = t[j] as u128 + (ai as u128) * (b[j] as u128) + carry as u128;
                t[j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = top as u128 + carry as u128;
            let (hi0, hi1) = (s as u64, (s >> 64) as u64);
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + (m as u128) * (p[0] as u128);
            let mut carry = (s >> 64) as u64;
            for j in 1..N {
                let s = t[j] as u128 + (m as u128) * (p[j] as u128) + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = hi0 as u128 + carry as u128;
            t[N - 1] = s as u64;
            top = hi1 + (s >> 64) as u64;
        }
        if top != 0 || ge(&t, p) {
            sub_assign(&mut t, p);
        }
        t
    }

    /// Montgomery squaring: `a * a * R^{-1} mod p`.
    pub fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        self.sqr_times(a, 1)
    }

    /// `a^(2^n)` in Montgomery form: `n` squarings whose intermediate
    /// values never leave registers for a call boundary.
    fn sqr_times(&self, a: &[u64; N], n: usize) -> [u64; N] {
        let mut acc = *a;
        for _ in 0..n {
            // Low half first; a `[u64; 2 * N]` cannot be named on stable.
            let mut wide = [[0u64; N]; 2];
            sqr_wide(&acc, wide.as_flattened_mut());
            redc(&self.p, self.n0_inv, wide.as_flattened_mut(), &mut acc);
        }
        acc
    }

    /// Field inversion via Fermat: `a^(p-2) mod p`.
    pub fn inv(&self, a: &[u64; N]) -> [u64; N] {
        let mut exp = self.p;
        let mut two = [0u64; N];
        two[0] = 2;
        sub_assign(&mut exp, &two);
        self.pow(a, &exp)
    }

    /// Exponentiation by little-endian exponent limbs (4-bit fixed
    /// window, most significant first).
    pub fn pow(&self, a: &[u64; N], exp: &[u64]) -> [u64; N] {
        let mut table = [self.one; 16];
        for i in 1..16 {
            table[i] = if i % 2 == 0 {
                self.sqr(&table[i / 2])
            } else {
                self.mul(&table[i - 1], a)
            };
        }
        let mut acc = self.one;
        for &limb in exp.iter().rev() {
            for shift in (0..64).step_by(4).rev() {
                acc = self.sqr_times(&acc, 4);
                let digit = (limb >> shift) as usize & 15;
                if digit != 0 {
                    acc = self.mul(&acc, &table[digit]);
                }
            }
        }
        acc
    }

    /// Is this the Montgomery form of zero?
    pub fn is_zero(&self, a: &[u64; N]) -> bool {
        a.iter().all(|&l| l == 0)
    }

    /// Equality (Montgomery forms are canonical `< p`).
    pub fn eq(&self, a: &[u64; N], b: &[u64; N]) -> bool {
        a == b
    }
}

/// `a += b`; returns the carry out.
fn add_assign<const N: usize>(a: &mut [u64; N], b: &[u64; N]) -> bool {
    let mut carry = false;
    for i in 0..N {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry as u64);
        a[i] = s;
        carry = c1 | c2;
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p256() -> FpParams<4> {
        FpParams::new(
            &Bn::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
                .unwrap(),
        )
    }

    #[test]
    fn roundtrip_mont() {
        let f = p256();
        for hx in [
            "0",
            "1",
            "2",
            "deadbeef",
            "ffffffff00000001000000000000000000000000fffffffffffffffffffffffe",
        ] {
            let v = Bn::from_hex(hx).unwrap();
            let m = f.to_mont(&v).unwrap();
            assert_eq!(f.from_mont(&m), v, "hx={hx}");
        }
    }

    #[test]
    fn add_sub_neg() {
        let f = p256();
        let a = f
            .to_mont(&Bn::from_hex("123456789abcdef").unwrap())
            .unwrap();
        let b = f
            .to_mont(&Bn::from_hex("fedcba987654321").unwrap())
            .unwrap();
        let s = f.add(&a, &b);
        assert_eq!(f.sub(&s, &b), a);
        let na = f.neg(&a);
        assert!(f.is_zero(&f.add(&a, &na)));
        assert!(f.is_zero(&f.neg(&f.zero())));
    }

    #[test]
    fn mul_matches_bn() {
        let f = p256();
        let p = f.modulus_bn();
        let a_bn = Bn::from_hex("aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b98").unwrap();
        let b_bn = Bn::from_hex("3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147c").unwrap();
        let a = f.to_mont(&a_bn).unwrap();
        let b = f.to_mont(&b_bn).unwrap();
        let c = f.mul(&a, &b);
        assert_eq!(f.from_mont(&c), a_bn.mul_mod(&b_bn, &p));
    }

    #[test]
    fn inversion() {
        let f = p256();
        let a = f.to_mont(&Bn::from_hex("123456789").unwrap()).unwrap();
        let ai = f.inv(&a);
        assert_eq!(f.mul(&a, &ai), f.one);
    }

    #[test]
    fn pow_small() {
        let f = p256();
        let a = f.to_mont(&Bn::from_u64(3)).unwrap();
        // 3^4 = 81
        let r = f.pow(&a, &[4]);
        assert_eq!(f.from_mont(&r), Bn::from_u64(81));
    }

    #[test]
    fn wraparound_add() {
        let f = p256();
        let p = f.modulus_bn();
        let pm1 = f.to_mont(&p.sub(&Bn::one())).unwrap();
        let one = f.to_mont(&Bn::one()).unwrap();
        // (p-1) + 1 = 0 mod p
        assert!(f.is_zero(&f.add(&pm1, &one)));
        // (p-1) + (p-1) = p-2 mod p
        let r = f.add(&pm1, &pm1);
        assert_eq!(f.from_mont(&r), p.sub(&Bn::from_u64(2)));
    }
}
