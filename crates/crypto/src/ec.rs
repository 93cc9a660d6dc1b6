//! Elliptic curves over prime fields: NIST P-256 and P-384.
//!
//! Short-Weierstrass curves `y^2 = x^3 + ax + b` with Jacobian-coordinate
//! point arithmetic over the fixed-width Montgomery fields of
//! [`crate::fp`]. `k * G` walks a fixed-base comb table (one mixed
//! addition per 4 bits of `k`, no doublings); `k * P` and the
//! `u1 * G + u2 * Q` of ECDSA verification are one width-5 wNAF pass over
//! a single doubling chain.
//!
//! NOTE: this implementation is for the QTLS reproduction — it is
//! algorithmically correct (validated against the NIST group structure
//! and cross-checked sign/verify/ECDH tests) but NOT hardened against
//! timing side channels: the comb row entry and the wNAF table entry an
//! addition reads are indexed by bits of the (secret) scalar, and the
//! additions branch on their operands.

use crate::bn::Bn;
use crate::fp::FpParams;

/// An affine point (or infinity) with coordinates as plain integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffinePoint {
    /// x coordinate (ignored when `infinity`).
    pub x: Bn,
    /// y coordinate (ignored when `infinity`).
    pub y: Bn,
    /// The point at infinity flag.
    pub infinity: bool,
}

impl AffinePoint {
    /// The point at infinity.
    pub fn infinity() -> Self {
        AffinePoint {
            x: Bn::zero(),
            y: Bn::zero(),
            infinity: true,
        }
    }

    /// A finite point.
    pub fn new(x: Bn, y: Bn) -> Self {
        AffinePoint {
            x,
            y,
            infinity: false,
        }
    }
}

/// A prime-field short-Weierstrass curve with `N`-limb field elements.
pub struct PrimeCurve<const N: usize> {
    /// Field arithmetic context.
    pub field: FpParams<N>,
    /// Curve coefficient `a` (Montgomery form).
    a: [u64; N],
    /// Curve coefficient `b` (Montgomery form).
    b: [u64; N],
    /// `a = -3 mod p` (every NIST prime curve): doubling takes the short
    /// form of its slope.
    a_is_minus_3: bool,
    /// Fixed-base comb: `comb[i][d - 1] = d * 16^i * G` for every 4-bit
    /// digit position `i` of a scalar below the group order and every
    /// digit `d` in `1..=15`. Row 0 doubles as the base point and as the
    /// odd multiples of `G` that wNAF digits select.
    comb: Vec<[AffineMont<N>; 15]>,
    /// Group order `n`.
    pub order: Bn,
    /// Field size in bytes (for point encoding).
    pub byte_len: usize,
}

/// A finite point in affine coordinates, elements in Montgomery form.
#[derive(Clone, Copy)]
struct AffineMont<const N: usize> {
    x: [u64; N],
    y: [u64; N],
}

/// A point in Jacobian coordinates, elements in Montgomery form.
#[derive(Clone, Copy)]
struct Jacobian<const N: usize> {
    x: [u64; N],
    y: [u64; N],
    z: [u64; N],
}

/// Width of the signed windows of [`wnaf`]: digits are odd, `|d| < 16`.
const WNAF_WIDTH: usize = 5;

/// Width-5 non-adjacent form of `k`, least significant digit first: at
/// most one digit in any 5 consecutive positions is non-zero.
fn wnaf(k: &Bn) -> Vec<i8> {
    if k.is_zero() {
        return Vec::new();
    }
    let limbs = k.limbs();
    let limb = |i: usize| limbs.get(i).copied().unwrap_or(0);
    let bits = k.bit_len();
    let mut digits = vec![0i8; bits + 1];
    let (mut pos, mut carry) = (0, 0u64);
    while pos <= bits {
        let (word, shift) = (pos / 64, pos % 64);
        let mut window = limb(word) >> shift;
        if shift > 64 - WNAF_WIDTH {
            window |= limb(word + 1) << (64 - shift);
        }
        let window = (window & ((1 << WNAF_WIDTH) - 1)) + carry;
        if window & 1 == 0 {
            // Even (a pending carry included): a zero digit.
            pos += 1;
            continue;
        }
        carry = window >> (WNAF_WIDTH - 1);
        digits[pos] = window as i8 - ((carry as i8) << WNAF_WIDTH);
        pos += WNAF_WIDTH;
    }
    digits
}

impl<const N: usize> PrimeCurve<N> {
    /// Construct from hex parameters (constants of a standard curve: a
    /// malformed one is a bug in this crate and panics).
    pub fn from_hex(p: &str, a: &str, b: &str, gx: &str, gy: &str, n: &str) -> Self {
        let p_bn = Bn::from_hex(p).expect("hex modulus");
        let field = FpParams::<N>::new(&p_bn);
        let constant = |hex: &str| {
            let v = Bn::from_hex(hex).expect("hex curve constant");
            field.to_mont(&v).expect("curve constant below p")
        };
        let (a, b) = (constant(a), constant(b));
        let g = AffineMont {
            x: constant(gx),
            y: constant(gy),
        };
        let three = field.add(&field.add(&field.one, &field.one), &field.one);
        let mut curve = PrimeCurve {
            a_is_minus_3: a == field.neg(&three),
            a,
            b,
            comb: Vec::new(),
            order: Bn::from_hex(n).expect("hex group order"),
            byte_len: p_bn.bit_len().div_ceil(8),
            field,
        };
        curve.comb = curve.build_comb(&g);
        curve
    }

    /// The comb rows for base point `g`: every entry in Jacobian form by
    /// one doubling or addition from an earlier one, then all of them
    /// made affine with a single field inversion.
    fn build_comb(&self, g: &AffineMont<N>) -> Vec<[AffineMont<N>; 15]> {
        let rows = self.order.bit_len().div_ceil(4);
        let mut points = Vec::with_capacity(rows * 15);
        let mut base = self.lift(g);
        for _ in 0..rows {
            let row = points.len();
            points.push(base);
            for d in 2..=15 {
                let next = if d % 2 == 0 {
                    self.dbl(&points[row + d / 2 - 1])
                } else {
                    self.add_jac(&points[row + d - 2], &base)
                };
                points.push(next);
            }
            base = self.dbl(&points[row + 7]);
        }
        let affine = self.batch_to_affine(&points);
        affine
            .chunks_exact(15)
            .map(|row| row.try_into().expect("15 entries per row"))
            .collect()
    }

    /// Affine forms of finite Jacobian points by Montgomery's trick: one
    /// inversion of the product of all `z`, peeled back one factor at a
    /// time.
    fn batch_to_affine(&self, points: &[Jacobian<N>]) -> Vec<AffineMont<N>> {
        let f = &self.field;
        // prefix[i] = z_0 * ... * z_{i-1}
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = f.one;
        for p in points {
            prefix.push(acc);
            acc = f.mul(&acc, &p.z);
        }
        let mut inv = f.inv(&acc);
        let mut out = vec![AffineMont { x: f.one, y: f.one }; points.len()];
        for (i, p) in points.iter().enumerate().rev() {
            let zi = f.mul(&inv, &prefix[i]);
            inv = f.mul(&inv, &p.z);
            let zi2 = f.sqr(&zi);
            out[i] = AffineMont {
                x: f.mul(&p.x, &zi2),
                y: f.mul(&p.y, &f.mul(&zi2, &zi)),
            };
        }
        out
    }

    /// The base point G in affine coordinates.
    pub fn generator(&self) -> AffinePoint {
        let g = &self.comb[0][0];
        AffinePoint::new(self.field.from_mont(&g.x), self.field.from_mont(&g.y))
    }

    /// The point's coordinates in Montgomery form; `None` for infinity
    /// and for a coordinate that is not a reduced field element.
    fn to_affine_mont(&self, pt: &AffinePoint) -> Option<AffineMont<N>> {
        if pt.infinity {
            return None;
        }
        Some(AffineMont {
            x: self.field.to_mont(&pt.x)?,
            y: self.field.to_mont(&pt.y)?,
        })
    }

    /// Is `pt` on the curve (and not infinity)?
    pub fn is_on_curve(&self, pt: &AffinePoint) -> bool {
        let Some(AffineMont { x, y }) = self.to_affine_mont(pt) else {
            return false;
        };
        let f = &self.field;
        // y^2 == x^3 + a x + b
        let lhs = f.sqr(&y);
        let rhs = f.add(&f.mul(&f.add(&f.sqr(&x), &self.a), &x), &self.b);
        f.eq(&lhs, &rhs)
    }

    /// Jacobian form of a point whose coordinates are reduced field
    /// elements (every point that passed [`is_on_curve`](Self::is_on_curve)).
    fn to_jacobian(&self, pt: &AffinePoint) -> Jacobian<N> {
        if pt.infinity {
            return self.jac_infinity();
        }
        let affine = self
            .to_affine_mont(pt)
            .expect("point coordinates are reduced mod p");
        self.lift(&affine)
    }

    fn lift(&self, p: &AffineMont<N>) -> Jacobian<N> {
        Jacobian {
            x: p.x,
            y: p.y,
            z: self.field.one,
        }
    }

    fn jac_infinity(&self) -> Jacobian<N> {
        Jacobian {
            x: self.field.one,
            y: self.field.one,
            z: self.field.zero(),
        }
    }

    fn is_jac_infinity(&self, p: &Jacobian<N>) -> bool {
        self.field.is_zero(&p.z)
    }

    fn to_affine(&self, p: &Jacobian<N>) -> AffinePoint {
        if self.is_jac_infinity(p) {
            return AffinePoint::infinity();
        }
        let f = &self.field;
        let zi = f.inv(&p.z);
        let zi2 = f.sqr(&zi);
        let zi3 = f.mul(&zi2, &zi);
        AffinePoint::new(
            f.from_mont(&f.mul(&p.x, &zi2)),
            f.from_mont(&f.mul(&p.y, &zi3)),
        )
    }

    /// Jacobian point doubling.
    fn dbl(&self, p: &Jacobian<N>) -> Jacobian<N> {
        let f = &self.field;
        if self.is_jac_infinity(p) || f.is_zero(&p.y) {
            return self.jac_infinity();
        }
        // Independent products sit next to each other so that one can
        // start while the carry chain of the other drains.
        let z2 = f.sqr(&p.z);
        let y2 = f.sqr(&p.y);
        // M = 3 X^2 + a Z^4, which for a = -3 is 3 (X - Z^2) (X + Z^2).
        let m = if self.a_is_minus_3 {
            let t = f.mul(&f.sub(&p.x, &z2), &f.add(&p.x, &z2));
            f.add(&f.add(&t, &t), &t)
        } else {
            let x2 = f.sqr(&p.x);
            f.add(&f.add(&f.add(&x2, &x2), &x2), &f.mul(&self.a, &f.sqr(&z2)))
        };
        // S = 4 X Y^2
        let s = f.mul(&p.x, &y2);
        let s = f.add(&s, &s);
        let s = f.add(&s, &s);
        // Z' = 2 Y Z
        let yz = f.mul(&p.y, &p.z);
        let z3 = f.add(&yz, &yz);
        // X' = M^2 - 2S
        let m2 = f.sqr(&m);
        let y4 = f.sqr(&y2);
        let x3 = f.sub(&f.sub(&m2, &s), &s);
        // Y' = M (S - X') - 8 Y^4
        let y4_8 = {
            let t = f.add(&y4, &y4);
            let t = f.add(&t, &t);
            f.add(&t, &t)
        };
        let y3 = f.sub(&f.mul(&m, &f.sub(&s, &x3)), &y4_8);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Jacobian point addition.
    fn add_jac(&self, p: &Jacobian<N>, q: &Jacobian<N>) -> Jacobian<N> {
        let f = &self.field;
        if self.is_jac_infinity(p) {
            return *q;
        }
        if self.is_jac_infinity(q) {
            return *p;
        }
        let z1z1 = f.sqr(&p.z);
        let z2z2 = f.sqr(&q.z);
        let u1 = f.mul(&p.x, &z2z2);
        let u2 = f.mul(&q.x, &z1z1);
        let y1z2z2 = f.mul(&p.y, &z2z2);
        let y2z1z1 = f.mul(&q.y, &z1z1);
        let s1 = f.mul(&y1z2z2, &q.z);
        let s2 = f.mul(&y2z1z1, &p.z);
        let z1z2 = f.mul(&p.z, &q.z);
        self.add_tail(p, &u1, &s1, &u2, &s2, &z1z2)
    }

    /// Mixed addition: Jacobian `p` plus affine `q` (`Z2 = 1`, which
    /// saves the five products of [`add_jac`](Self::add_jac) that involve it).
    fn add_mixed(&self, p: &Jacobian<N>, q: &AffineMont<N>) -> Jacobian<N> {
        let f = &self.field;
        if self.is_jac_infinity(p) {
            return self.lift(q);
        }
        let z1z1 = f.sqr(&p.z);
        let u2 = f.mul(&q.x, &z1z1);
        let s2 = f.mul(&f.mul(&q.y, &z1z1), &p.z);
        self.add_tail(p, &p.x, &p.y, &u2, &s2, &p.z)
    }

    /// The shared second half of both additions, from the operands
    /// brought to a common denominator: `U1, S1` for `p`, `U2, S2` for
    /// the other point, and `Z1 * Z2`.
    fn add_tail(
        &self,
        p: &Jacobian<N>,
        u1: &[u64; N],
        s1: &[u64; N],
        u2: &[u64; N],
        s2: &[u64; N],
        z1z2: &[u64; N],
    ) -> Jacobian<N> {
        let f = &self.field;
        let h = f.sub(u2, u1);
        let r = f.sub(s2, s1);
        if f.is_zero(&h) {
            // Same x: the same point, or a point and its negative.
            if f.is_zero(&r) {
                return self.dbl(p);
            }
            return self.jac_infinity();
        }
        // As in `dbl`, independent products are kept in pairs.
        let h2 = f.sqr(&h);
        // Z3 = Z1 Z2 H
        let z3 = f.mul(z1z2, &h);
        let h3 = f.mul(&h2, &h);
        let u1h2 = f.mul(u1, &h2);
        let r2 = f.sqr(&r);
        let s1h3 = f.mul(s1, &h3);
        // X3 = r^2 - H^3 - 2 U1 H^2
        let x3 = f.sub(&f.sub(&r2, &h3), &f.add(&u1h2, &u1h2));
        // Y3 = r (U1 H^2 - X3) - S1 H^3
        let y3 = f.sub(&f.mul(&r, &f.sub(&u1h2, &x3)), &s1h3);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// `u1 * G + u2 * Q` in one pass: both scalars in width-5 wNAF over a
    /// shared doubling chain (Shamir's trick). `G`'s odd multiples are
    /// row 0 of the comb (affine: mixed additions); `Q`'s are built here.
    fn wnaf_sum(&self, u1: &Bn, u2: &Bn, q: &AffinePoint) -> Jacobian<N> {
        let f = &self.field;
        let g_digits = wnaf(u1);
        let q_digits = if q.infinity { Vec::new() } else { wnaf(u2) };
        // q_odd[i] = (2i + 1) * Q
        let mut q_odd = [self.jac_infinity(); 1 << (WNAF_WIDTH - 2)];
        if !q_digits.is_empty() {
            q_odd[0] = self.to_jacobian(q);
            let twice = self.dbl(&q_odd[0]);
            for i in 1..q_odd.len() {
                q_odd[i] = self.add_jac(&q_odd[i - 1], &twice);
            }
        }
        // The multiple a digit selects: y, or -y for a negative digit.
        let signed = |y: &[u64; N], d: i8| if d < 0 { f.neg(y) } else { *y };
        let mut acc = self.jac_infinity();
        for i in (0..g_digits.len().max(q_digits.len())).rev() {
            acc = self.dbl(&acc);
            if let Some(&d) = g_digits.get(i).filter(|&&d| d != 0) {
                let g = &self.comb[0][d.unsigned_abs() as usize - 1];
                let g = AffineMont {
                    x: g.x,
                    y: signed(&g.y, d),
                };
                acc = self.add_mixed(&acc, &g);
            }
            if let Some(&d) = q_digits.get(i).filter(|&&d| d != 0) {
                let mut multiple = q_odd[d.unsigned_abs() as usize / 2];
                multiple.y = signed(&multiple.y, d);
                acc = self.add_jac(&acc, &multiple);
            }
        }
        acc
    }

    /// Scalar multiplication `k * pt` (width-5 wNAF).
    pub fn scalar_mul(&self, pt: &AffinePoint, k: &Bn) -> AffinePoint {
        self.to_affine(&self.wnaf_sum(&Bn::zero(), k, pt))
    }

    /// `k * G` from the comb table: one mixed addition per non-zero 4-bit
    /// digit of `k mod n`, no doublings.
    pub fn scalar_mul_base(&self, k: &Bn) -> AffinePoint {
        let reduced;
        let k = if k < &self.order {
            k
        } else {
            reduced = k.rem(&self.order);
            &reduced
        };
        let mut acc = self.jac_infinity();
        for (i, row) in self.comb.iter().enumerate() {
            let limb = k.limbs().get(i / 16).copied().unwrap_or(0);
            match (limb >> (4 * (i % 16))) as usize & 15 {
                0 => {}
                d => acc = self.add_mixed(&acc, &row[d - 1]),
            }
        }
        self.to_affine(&acc)
    }

    /// Point addition on affine points (for tests/verification).
    pub fn add_points(&self, p: &AffinePoint, q: &AffinePoint) -> AffinePoint {
        let r = self.add_jac(&self.to_jacobian(p), &self.to_jacobian(q));
        self.to_affine(&r)
    }

    /// Sum of two scalar multiplications `u1*G + u2*Q` (ECDSA verify).
    pub fn double_scalar_mul(&self, u1: &Bn, u2: &Bn, q: &AffinePoint) -> AffinePoint {
        self.to_affine(&self.wnaf_sum(u1, u2, q))
    }
}

/// NIST P-256 (secp256r1).
pub fn p256() -> &'static PrimeCurve<4> {
    use std::sync::OnceLock;
    static CURVE: OnceLock<PrimeCurve<4>> = OnceLock::new();
    CURVE.get_or_init(|| {
        PrimeCurve::from_hex(
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
            "ffffffff00000001000000000000000000000000fffffffffffffffffffffffc",
            "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
            "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
        )
    })
}

/// NIST P-384 (secp384r1).
pub fn p384() -> &'static PrimeCurve<6> {
    use std::sync::OnceLock;
    static CURVE: OnceLock<PrimeCurve<6>> = OnceLock::new();
    CURVE.get_or_init(|| {
        PrimeCurve::from_hex(
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe\
             ffffffff0000000000000000ffffffff",
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe\
             ffffffff0000000000000000fffffffc",
            "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875a\
             c656398d8a2ed19d2a85c8edd3ec2aef",
            "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a38\
             5502f25dbf55296c3a545e3872760ab7",
            "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c0\
             0a60b1ce1d7e819d7a431d7c90ea0e5f",
            "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf\
             581a0db248b0a77aecec196accc52973",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec_oracle::{OracleCurve, Point};

    fn oracle<const N: usize>(c: &PrimeCurve<N>) -> OracleCurve {
        OracleCurve {
            p: c.field.modulus_bn(),
            a: c.field.from_mont(&c.a),
        }
    }

    fn point(pt: &AffinePoint) -> Point {
        (!pt.infinity).then(|| (pt.x.clone(), pt.y.clone()))
    }

    #[test]
    fn wnaf_reconstructs_the_scalar_with_sparse_odd_digits() {
        for hex in [
            "1",
            "f",
            "10",
            "1f",
            "ffffffffffffffffffffffffffffffff",
            "8000000000000000",
            "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
            "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
        ] {
            let k = Bn::from_hex(hex).unwrap();
            let digits = wnaf(&k);
            let (mut plus, mut minus) = (Bn::zero(), Bn::zero());
            let mut last_nonzero = None;
            for (i, &d) in digits.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                assert!(d % 2 != 0 && d.unsigned_abs() < 16, "{hex}: digit {d}");
                if let Some(last) = last_nonzero {
                    assert!(i - last >= WNAF_WIDTH, "{hex}: digits {last} and {i}");
                }
                last_nonzero = Some(i);
                let term = Bn::from_u64(d.unsigned_abs() as u64).shl(i);
                if d > 0 {
                    plus = plus.add(&term);
                } else {
                    minus = minus.add(&term);
                }
            }
            assert_eq!(plus.sub(&minus), k, "{hex}");
        }
        assert!(wnaf(&Bn::zero()).is_empty());
    }

    #[test]
    fn comb_and_wnaf_match_the_double_and_add_oracle() {
        fn check<const N: usize>(c: &PrimeCurve<N>) {
            let o = oracle(c);
            let g = c.generator();
            for hex in ["1", "2", "f", "10", "deadbeefcafebabe0123456789abcdef"] {
                let k = Bn::from_hex(hex).unwrap();
                let want = o.scalar_mul(&point(&g), &k);
                assert_eq!(point(&c.scalar_mul_base(&k)), want, "comb {hex}");
                assert_eq!(point(&c.scalar_mul(&g, &k)), want, "wnaf {hex}");
                let sum = c.add_points(&c.scalar_mul_base(&k), &g);
                assert_eq!(point(&sum), o.add_points(&want, &point(&g)), "add {hex}");
            }
        }
        check(p256());
        check(p384());
    }

    #[test]
    fn both_curves_take_the_short_doubling() {
        assert!(p256().a_is_minus_3 && p384().a_is_minus_3);
    }

    /// No NIST prime curve has `a != -3`; secp256k1 (`a = 0`) keeps the
    /// general doubling honest.
    #[test]
    fn general_a_doubling_on_secp256k1() {
        let c = PrimeCurve::<4>::from_hex(
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
            "0",
            "7",
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141",
        );
        assert!(!c.a_is_minus_3);
        let (o, g) = (oracle(&c), c.generator());
        assert!(c.is_on_curve(&g));
        assert!(c.scalar_mul_base(&c.order).infinity);
        assert!(c.scalar_mul(&g, &c.order).infinity);
        let k = Bn::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let want = o.scalar_mul(&point(&g), &k);
        assert_eq!(point(&c.scalar_mul_base(&k)), want);
        assert_eq!(point(&c.scalar_mul(&g, &k)), want);
    }

    #[test]
    fn comb_stays_inside_its_size_budget() {
        // 64 rows x 15 entries x 64 bytes for P-256.
        let c = p256();
        assert_eq!(c.comb.len(), 64);
        assert!(std::mem::size_of_val(&c.comb[..]) <= 64 * 1024);
    }

    #[test]
    fn p256_generator_on_curve() {
        let c = p256();
        assert!(c.is_on_curve(&c.generator()));
    }

    #[test]
    fn p384_generator_on_curve() {
        let c = p384();
        assert!(c.is_on_curve(&c.generator()));
    }

    #[test]
    fn p256_group_order() {
        let c = p256();
        // n * G = infinity
        assert!(c.scalar_mul_base(&c.order).infinity);
        // (n-1) * G = -G
        let neg_g = c.scalar_mul_base(&c.order.sub(&Bn::one()));
        let g = c.generator();
        assert_eq!(neg_g.x, g.x);
        assert_eq!(neg_g.y, c.field.modulus_bn().sub(&g.y));
    }

    #[test]
    fn p384_group_order() {
        let c = p384();
        assert!(c.scalar_mul_base(&c.order).infinity);
    }

    #[test]
    fn p256_known_multiple() {
        // 2G for P-256 (public test vector).
        let c = p256();
        let two_g = c.scalar_mul_base(&Bn::from_u64(2));
        assert_eq!(
            two_g.x.to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
        );
        assert_eq!(
            two_g.y.to_hex(),
            "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
        );
    }

    #[test]
    fn scalar_mul_distributes() {
        let c = p256();
        let k1 = Bn::from_hex("1234567890abcdef").unwrap();
        let k2 = Bn::from_hex("fedcba9876543210").unwrap();
        let sum_scalar = k1.add(&k2);
        let lhs = c.scalar_mul_base(&sum_scalar);
        let rhs = c.add_points(&c.scalar_mul_base(&k1), &c.scalar_mul_base(&k2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn add_doubling_consistency() {
        let c = p256();
        let g = c.generator();
        let g2a = c.add_points(&g, &g);
        let g2b = c.scalar_mul_base(&Bn::from_u64(2));
        assert_eq!(g2a, g2b);
        // P + (-P) = infinity
        let neg_g = AffinePoint::new(g.x.clone(), c.field.modulus_bn().sub(&g.y));
        assert!(c.add_points(&g, &neg_g).infinity);
        // P + infinity = P
        assert_eq!(c.add_points(&g, &AffinePoint::infinity()), g);
    }

    #[test]
    fn off_curve_rejected() {
        let c = p256();
        let bogus = AffinePoint::new(Bn::from_u64(1), Bn::from_u64(1));
        assert!(!c.is_on_curve(&bogus));
        assert!(!c.is_on_curve(&AffinePoint::infinity()));
    }

    #[test]
    fn double_scalar_mul_matches() {
        let c = p256();
        let q = c.scalar_mul_base(&Bn::from_u64(99));
        let u1 = Bn::from_u64(7);
        let u2 = Bn::from_u64(13);
        let direct = c.double_scalar_mul(&u1, &u2, &q);
        // 7G + 13*99G = (7 + 1287) G
        let expect = c.scalar_mul_base(&Bn::from_u64(7 + 13 * 99));
        assert_eq!(direct, expect);
    }
}
