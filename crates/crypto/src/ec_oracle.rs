//! Test-only reference arithmetic on a short-Weierstrass curve
//! `y^2 = x^3 + ax + b` over a prime field: the double-and-add that
//! `ec.rs` ran before its comb table and wNAF pass — Jacobian
//! coordinates, the general-`a` doubling, the full Jacobian addition,
//! one bit of the scalar per step — on plain [`Bn`] values reduced with
//! `Bn`'s schoolbook multiply and long division. It shares no field
//! kernel, table or formula shortcut with `ec.rs`, which is what makes
//! the differential tests meaningful.
//!
//! Reaches `Bn` through `super` because it is compiled twice, and only
//! ever into test binaries: as `#[cfg(test)] mod ec_oracle` here, and by
//! `#[path]` from the root package's `tests/proptest_crypto.rs`.

use super::Bn;

/// An affine point; `None` is the point at infinity.
pub type Point = Option<(Bn, Bn)>;

/// The curve as far as the group law needs it: the field and `a`.
pub struct OracleCurve {
    /// Field modulus.
    pub p: Bn,
    /// Curve coefficient `a`.
    pub a: Bn,
}

/// Jacobian coordinates `(X, Y, Z)`; `Z = 0` is infinity.
#[derive(Clone)]
struct Jac {
    x: Bn,
    y: Bn,
    z: Bn,
}

impl OracleCurve {
    fn mul(&self, a: &Bn, b: &Bn) -> Bn {
        a.mul_mod(b, &self.p)
    }

    fn add(&self, a: &Bn, b: &Bn) -> Bn {
        a.add_mod(b, &self.p)
    }

    fn sub(&self, a: &Bn, b: &Bn) -> Bn {
        a.sub_mod(b, &self.p)
    }

    fn times(&self, a: &Bn, small: u64) -> Bn {
        self.mul(a, &Bn::from_u64(small))
    }

    fn infinity() -> Jac {
        Jac {
            x: Bn::one(),
            y: Bn::one(),
            z: Bn::zero(),
        }
    }

    fn lift(pt: &Point) -> Jac {
        match pt {
            None => Self::infinity(),
            Some((x, y)) => Jac {
                x: x.clone(),
                y: y.clone(),
                z: Bn::one(),
            },
        }
    }

    fn lower(&self, p: &Jac) -> Point {
        if p.z.is_zero() {
            return None;
        }
        let zi = p.z.mod_inv(&self.p).expect("z is a unit mod the prime p");
        let zi2 = self.mul(&zi, &zi);
        Some((self.mul(&p.x, &zi2), self.mul(&p.y, &self.mul(&zi2, &zi))))
    }

    fn dbl(&self, p: &Jac) -> Jac {
        if p.z.is_zero() || p.y.is_zero() {
            return Self::infinity();
        }
        let y2 = self.mul(&p.y, &p.y);
        // S = 4 X Y^2
        let s = self.times(&self.mul(&p.x, &y2), 4);
        // M = 3 X^2 + a Z^4
        let z2 = self.mul(&p.z, &p.z);
        let m = self.add(
            &self.times(&self.mul(&p.x, &p.x), 3),
            &self.mul(&self.a, &self.mul(&z2, &z2)),
        );
        // X' = M^2 - 2S, Y' = M (S - X') - 8 Y^4, Z' = 2 Y Z
        let x3 = self.sub(&self.mul(&m, &m), &self.times(&s, 2));
        let y3 = self.sub(
            &self.mul(&m, &self.sub(&s, &x3)),
            &self.times(&self.mul(&y2, &y2), 8),
        );
        Jac {
            x: x3,
            y: y3,
            z: self.times(&self.mul(&p.y, &p.z), 2),
        }
    }

    fn add_jac(&self, p: &Jac, q: &Jac) -> Jac {
        if p.z.is_zero() {
            return q.clone();
        }
        if q.z.is_zero() {
            return p.clone();
        }
        let z1z1 = self.mul(&p.z, &p.z);
        let z2z2 = self.mul(&q.z, &q.z);
        let u1 = self.mul(&p.x, &z2z2);
        let u2 = self.mul(&q.x, &z1z1);
        let s1 = self.mul(&self.mul(&p.y, &z2z2), &q.z);
        let s2 = self.mul(&self.mul(&q.y, &z1z1), &p.z);
        let h = self.sub(&u2, &u1);
        let r = self.sub(&s2, &s1);
        if h.is_zero() {
            return if r.is_zero() {
                self.dbl(p)
            } else {
                Self::infinity()
            };
        }
        let h2 = self.mul(&h, &h);
        let h3 = self.mul(&h2, &h);
        let u1h2 = self.mul(&u1, &h2);
        // X3 = r^2 - H^3 - 2 U1 H^2, Y3 = r (U1 H^2 - X3) - S1 H^3
        let x3 = self.sub(&self.sub(&self.mul(&r, &r), &h3), &self.times(&u1h2, 2));
        let y3 = self.sub(&self.mul(&r, &self.sub(&u1h2, &x3)), &self.mul(&s1, &h3));
        Jac {
            x: x3,
            y: y3,
            z: self.mul(&self.mul(&p.z, &q.z), &h),
        }
    }

    /// `k * pt`, one doubling per bit of `k` and one addition per set bit.
    pub fn scalar_mul(&self, pt: &Point, k: &Bn) -> Point {
        let base = Self::lift(pt);
        let mut acc = Self::infinity();
        for i in (0..k.bit_len()).rev() {
            acc = self.dbl(&acc);
            if k.bit(i) {
                acc = self.add_jac(&acc, &base);
            }
        }
        self.lower(&acc)
    }

    /// `p + q`.
    pub fn add_points(&self, p: &Point, q: &Point) -> Point {
        self.lower(&self.add_jac(&Self::lift(p), &Self::lift(q)))
    }
}
