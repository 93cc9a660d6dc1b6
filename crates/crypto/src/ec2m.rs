//! Elliptic curves over binary fields GF(2^m): NIST B-283, K-283, B-409,
//! K-409 — the four "counterpart curves" evaluated in the paper's
//! Figure 7c alongside P-256 and P-384.
//!
//! Non-supersingular curves `y^2 + xy = x^3 + a x^2 + b` with affine
//! arithmetic (one field inversion per group operation; binary-field EEA
//! inversion is cheap relative to the comb multiplication here).

use crate::bn::Bn;
use crate::ec::AffinePoint;
use crate::gf2m::{El, Gf2m};

/// A binary-field NIST curve.
pub struct BinaryCurve {
    /// The underlying field GF(2^m).
    pub field: Gf2m,
    /// Coefficient `a` (0 or 1 for NIST curves, kept general).
    a: El,
    /// Coefficient `b`.
    b: El,
    /// Base point.
    gx: El,
    gy: El,
    /// Order of the base point (prime).
    pub order: Bn,
    /// Field element size in bytes for encoding.
    pub byte_len: usize,
}

impl BinaryCurve {
    /// Construct from hex parameters.
    pub fn from_hex(
        m: usize,
        taps: &[usize],
        a: u64,
        b: &str,
        gx: &str,
        gy: &str,
        n: &str,
    ) -> Self {
        let field = Gf2m::new(m, taps);
        let mut a_el = field.zero();
        a_el[0] = a;
        BinaryCurve {
            a: a_el,
            b: field.from_hex(b),
            gx: field.from_hex(gx),
            gy: field.from_hex(gy),
            order: Bn::from_hex(n).unwrap(),
            byte_len: m.div_ceil(8),
            field,
        }
    }

    /// The base point G.
    pub fn generator(&self) -> AffinePoint {
        AffinePoint::new(self.field.to_bn(&self.gx), self.field.to_bn(&self.gy))
    }

    /// Is `pt` on the curve?
    pub fn is_on_curve(&self, pt: &AffinePoint) -> bool {
        if pt.infinity {
            return false;
        }
        if pt.x.bit_len() > self.field.m || pt.y.bit_len() > self.field.m {
            return false;
        }
        let f = &self.field;
        let x = f.from_bn(&pt.x);
        let y = f.from_bn(&pt.y);
        // y^2 + xy == x^3 + a x^2 + b
        let lhs = f.add(&f.sqr(&y), &f.mul(&x, &y));
        let x2 = f.sqr(&x);
        let rhs = f.add(&f.add(&f.mul(&x2, &x), &f.mul(&self.a, &x2)), &self.b);
        lhs == rhs
    }

    /// Group addition (affine). `-P = (x, x + y)`.
    pub fn add_points(&self, p: &AffinePoint, q: &AffinePoint) -> AffinePoint {
        if p.infinity {
            return q.clone();
        }
        if q.infinity {
            return p.clone();
        }
        let f = &self.field;
        let x1 = f.from_bn(&p.x);
        let y1 = f.from_bn(&p.y);
        let x2 = f.from_bn(&q.x);
        let y2 = f.from_bn(&q.y);
        if x1 == x2 {
            // Q == -P  <=>  y2 == x1 + y1.
            if y2 == f.add(&x1, &y1) {
                return AffinePoint::infinity();
            }
            // P == Q: doubling.
            return self.double_el(&x1, &y1);
        }
        // lambda = (y1 + y2) / (x1 + x2)
        let dx = f.add(&x1, &x2);
        let lambda = f.mul(&f.add(&y1, &y2), &f.inv(&dx));
        // x3 = lambda^2 + lambda + x1 + x2 + a
        let x3 = f.add(&f.add(&f.add(&f.sqr(&lambda), &lambda), &dx), &self.a);
        // y3 = lambda (x1 + x3) + x3 + y1
        let y3 = f.add(&f.add(&f.mul(&lambda, &f.add(&x1, &x3)), &x3), &y1);
        AffinePoint::new(f.to_bn(&x3), f.to_bn(&y3))
    }

    /// Point doubling on field elements.
    fn double_el(&self, x1: &El, y1: &El) -> AffinePoint {
        let f = &self.field;
        if f.is_zero(x1) {
            // 2(0, sqrt(b)) = infinity on these curves.
            return AffinePoint::infinity();
        }
        // lambda = x1 + y1/x1
        let lambda = f.add(x1, &f.mul(y1, &f.inv(x1)));
        // x3 = lambda^2 + lambda + a
        let x3 = f.add(&f.add(&f.sqr(&lambda), &lambda), &self.a);
        // y3 = x1^2 + (lambda + 1) x3
        let y3 = f.add(&f.sqr(x1), &f.mul(&f.add(&lambda, &f.one()), &x3));
        AffinePoint::new(f.to_bn(&x3), f.to_bn(&y3))
    }

    /// Scalar multiplication (MSB-first double-and-add).
    pub fn scalar_mul(&self, pt: &AffinePoint, k: &Bn) -> AffinePoint {
        crate::ec::count_scalar_mul();
        if k.is_zero() || pt.infinity {
            return AffinePoint::infinity();
        }
        let mut acc = AffinePoint::infinity();
        for i in (0..k.bit_len()).rev() {
            acc = self.add_points(&acc, &acc.clone());
            if k.bit(i) {
                acc = self.add_points(&acc, pt);
            }
        }
        acc
    }

    /// `k * G`.
    pub fn scalar_mul_base(&self, k: &Bn) -> AffinePoint {
        self.scalar_mul(&self.generator(), k)
    }

    /// `u1*G + u2*Q` (ECDSA verification).
    pub fn double_scalar_mul(&self, u1: &Bn, u2: &Bn, q: &AffinePoint) -> AffinePoint {
        let a = self.scalar_mul_base(u1);
        let b = self.scalar_mul(q, u2);
        self.add_points(&a, &b)
    }
}

macro_rules! static_curve {
    ($name:ident, $m:expr, $taps:expr, $a:expr, $b:expr, $gx:expr, $gy:expr, $n:expr) => {
        /// NIST binary curve accessor (lazily initialized).
        pub fn $name() -> &'static BinaryCurve {
            use std::sync::OnceLock;
            static CURVE: OnceLock<BinaryCurve> = OnceLock::new();
            CURVE.get_or_init(|| BinaryCurve::from_hex($m, $taps, $a, $b, $gx, $gy, $n))
        }
    };
}

static_curve!(
    b283,
    283,
    &[12, 7, 5, 0],
    1,
    "27b680ac8b8596da5a4af8a19a0303fca97fd7645309fa2a581485af6263e313b79a2f5",
    "5f939258db7dd90e1934f8c70b0dfec2eed25b8557eac9c80e2e198f8cdbecd86b12053",
    "3676854fe24141cb98fe6d4b20d02b4516ff702350eddb0826779c813f0df45be8112f4",
    "3ffffffffffffffffffffffffffffffffffef90399660fc938a90165b042a7cefadb307"
);

static_curve!(
    k283,
    283,
    &[12, 7, 5, 0],
    0,
    "1",
    "503213f78ca44883f1a3b8162f188e553cd265f23c1567a16876913b0c2ac2458492836",
    "1ccda380f1c9e318d90f95d07e5426fe87e45c0e8184698e45962364e34116177dd2259",
    "1ffffffffffffffffffffffffffffffffffe9ae2ed07577265dff7f94451e061e163c61"
);

static_curve!(
    b409,
    409,
    &[87, 0],
    1,
    "21a5c2c8ee9feb5c4b9a753b7b476b7fd6422ef1f3dd674761fa99d6ac27c8a9a197b272822f6cd57a55aa4f50ae317b13545f",
    "15d4860d088ddb3496b0c6064756260441cde4af1771d4db01ffe5b34e59703dc255a868a1180515603aeab60794e54bb7996a7",
    "61b1cfab6be5f32bbfa78324ed106a7636b9c5a7bd198d0158aa4f5488d08f38514f1fdf4b4f40d2181b3681c364ba0273c706",
    "10000000000000000000000000000000000000000000000000001e2aad6a612f33307be5fa47c3c9e052f838164cd37d9a21173"
);

static_curve!(
    k409,
    409,
    &[87, 0],
    0,
    "1",
    "60f05f658f49c1ad3ab1890f7184210efd0987e307c84c27accfb8f9f67cc2c460189eb5aaaa62ee222eb1b35540cfe9023746",
    "1e369050b7c4e42acba1dacbf04299c3460782f918ea427e6325165e9ea10e3da5f6c42e9c55215aa9ca27a5863ec48d8e0286b",
    "7ffffffffffffffffffffffffffffffffffffffffffffffffffe5f83b2d4ea20400ec4557d5ed3e3e7ca5b4b5c83b8e01e5fcf"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_on_curve() {
        for (name, c) in [
            ("b283", b283()),
            ("k283", k283()),
            ("b409", b409()),
            ("k409", k409()),
        ] {
            assert!(c.is_on_curve(&c.generator()), "{name} generator off-curve");
        }
    }

    #[test]
    fn b283_group_order() {
        let c = b283();
        assert!(c.scalar_mul_base(&c.order).infinity, "n*G must be infinity");
    }

    #[test]
    fn k283_group_order() {
        let c = k283();
        assert!(c.scalar_mul_base(&c.order).infinity);
    }

    #[test]
    fn b409_group_order() {
        let c = b409();
        assert!(c.scalar_mul_base(&c.order).infinity);
    }

    #[test]
    fn k409_group_order() {
        let c = k409();
        assert!(c.scalar_mul_base(&c.order).infinity);
    }

    #[test]
    fn add_identities() {
        let c = b283();
        let g = c.generator();
        assert_eq!(c.add_points(&g, &AffinePoint::infinity()), g);
        assert_eq!(c.add_points(&AffinePoint::infinity(), &g), g);
        // P + (-P) = infinity; -P = (x, x+y) in char 2.
        let f = &c.field;
        let neg = AffinePoint::new(
            g.x.clone(),
            f.to_bn(&f.add(&f.from_bn(&g.x), &f.from_bn(&g.y))),
        );
        assert!(c.is_on_curve(&neg));
        assert!(c.add_points(&g, &neg).infinity);
    }

    #[test]
    fn scalar_mul_distributes() {
        let c = k283();
        let k1 = Bn::from_u64(123456789);
        let k2 = Bn::from_u64(987654321);
        let lhs = c.scalar_mul_base(&k1.add(&k2));
        let rhs = c.add_points(&c.scalar_mul_base(&k1), &c.scalar_mul_base(&k2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn small_multiples_consistent() {
        let c = b283();
        let g = c.generator();
        let g2 = c.add_points(&g, &g);
        let g3 = c.add_points(&g2, &g);
        assert_eq!(c.scalar_mul_base(&Bn::from_u64(2)), g2);
        assert_eq!(c.scalar_mul_base(&Bn::from_u64(3)), g3);
        assert!(c.is_on_curve(&g2));
        assert!(c.is_on_curve(&g3));
    }

    #[test]
    fn multiples_stay_on_curve() {
        for c in [b409(), k409()] {
            let p = c.scalar_mul_base(&Bn::from_u64(0xdeadbeef));
            assert!(c.is_on_curve(&p));
        }
    }
}
