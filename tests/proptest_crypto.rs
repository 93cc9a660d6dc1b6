//! Property-based tests over the crypto substrate: algebraic invariants
//! of the bignum and finite-field cores, and roundtrip properties of the
//! record protection and session machinery.
//!
//! Runs on the hermetic in-repo harness (`qtls::prop`): a small
//! deterministic case set by default, the full sweep with
//! `cargo test --features proptest`.

use qtls::crypto::bn::Bn;
use qtls::crypto::ec::{p256, p384, AffinePoint, PrimeCurve};
use qtls::crypto::gf2m::Gf2m;
use qtls::crypto::hmac::Hmac;
use qtls::crypto::mont::MontCtx;
use qtls::crypto::sha1::Sha1;
use qtls::crypto::sha256::Sha256;
use qtls::crypto::test_keys::test_rsa_2048;
use qtls::crypto::{aes, kdf, CbcHmacSha1, CryptoError};
use qtls::prop;
use std::sync::Arc;

/// The byte-wise reference AES, shared with `qtls-crypto`'s own unit
/// tests (where it is `#[cfg(test)]`): one copy, test binaries only.
#[path = "../crates/crypto/src/aes_oracle.rs"]
mod aes_oracle;

/// The double-and-add reference for the prime curves, shared the same
/// way.
#[path = "../crates/crypto/src/ec_oracle.rs"]
mod ec_oracle;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn bn_from(bytes: &[u8]) -> Bn {
    Bn::from_bytes_be(bytes)
}

// ---- bignum ----

#[test]
fn bn_bytes_roundtrip() {
    prop::check("bn_bytes_roundtrip", 64, |g| {
        let bytes = g.bytes_in(0, 64);
        let v = bn_from(&bytes);
        let back = Bn::from_bytes_be(&v.to_bytes_be());
        assert_eq!(back, v);
    });
}

#[test]
fn bn_add_sub_inverse() {
    prop::check("bn_add_sub_inverse", 64, |g| {
        let a = bn_from(&g.bytes_in(0, 48));
        let b = bn_from(&g.bytes_in(0, 48));
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    });
}

#[test]
fn bn_mul_commutes_and_matches_u128() {
    prop::check("bn_mul_commutes_and_matches_u128", 64, |g| {
        let (x, y) = (g.u64(), g.u64());
        let a = Bn::from_u64(x);
        let b = Bn::from_u64(y);
        let p = a.mul(&b);
        assert_eq!(p, b.mul(&a));
        let expect = (x as u128) * (y as u128);
        let got = p.to_bytes_be();
        let mut buf = [0u8; 16];
        buf[16 - got.len()..].copy_from_slice(&got);
        assert_eq!(u128::from_be_bytes(buf), expect);
    });
}

#[test]
fn bn_div_rem_reconstructs() {
    prop::check("bn_div_rem_reconstructs", 64, |g| {
        let a = bn_from(&g.bytes_in(1, 48));
        // Divisor bytes drawn from 1..=255 so it is never zero.
        let b_bytes: Vec<u8> = (0..g.usize_in(1, 24))
            .map(|_| g.u64_in(1, 256) as u8)
            .collect();
        let b = bn_from(&b_bytes);
        assert!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    });
}

#[test]
fn bn_modexp_matches_naive() {
    prop::check("bn_modexp_matches_naive", 64, |g| {
        let base = g.u64();
        let exp = g.u64_in(0, 64);
        // Odd modulus to hit the Montgomery path.
        let m = g.u64_in(3, 1_000_000) | 1;
        let bn_m = Bn::from_u64(m);
        let got = Bn::from_u64(base).mod_exp(&Bn::from_u64(exp), &bn_m);
        // Naive reference with u128.
        let mut acc: u128 = 1;
        for _ in 0..exp {
            acc = acc * (base as u128 % m as u128) % m as u128;
        }
        assert_eq!(got, Bn::from_u64(acc as u64));
    });
}

#[test]
fn bn_mod_inv_is_inverse() {
    prop::check("bn_mod_inv_is_inverse", 64, |g| {
        let a = g.u64_in(1, u64::MAX);
        let m = g.u64_in(3, u64::MAX) | 1;
        let bn_a = Bn::from_u64(a);
        let bn_m = Bn::from_u64(m);
        if let Some(inv) = bn_a.mod_inv(&bn_m) {
            assert!(bn_a.mul_mod(&inv, &bn_m).is_one());
        } else {
            // No inverse means gcd != 1.
            assert!(!bn_a.gcd(&bn_m).is_one());
        }
    });
}

#[test]
fn bn_shift_roundtrip() {
    prop::check("bn_shift_roundtrip", 64, |g| {
        let v = bn_from(&g.bytes_in(0, 32));
        let shift = g.usize_in(0, 200);
        assert_eq!(v.shl(shift).shr(shift), v);
    });
}

// ---- Montgomery exponentiation / RSA ----

/// Limb counts on every side of the kernels' 16- and 32-limb instances.
const MONT_WIDTHS: [usize; 7] = [1, 2, 15, 16, 17, 32, 33];

/// Square-and-multiply on `Bn`'s schoolbook product and long division:
/// no Montgomery form anywhere (`Bn::mod_exp` itself goes through
/// `MontCtx` for odd moduli, so it cannot be the reference).
fn schoolbook_mod_exp(base: &Bn, exp: &Bn, m: &Bn) -> Bn {
    let mut acc = Bn::one().rem(m);
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul_mod(&acc, m);
        if exp.bit(i) {
            acc = acc.mul_mod(base, m);
        }
    }
    acc
}

/// A random odd modulus of exactly `limbs` limbs.
fn odd_modulus(g: &mut prop::Gen, limbs: usize) -> Bn {
    let mut words = g.words(limbs);
    words[0] |= 1;
    words[limbs - 1] |= 1 << g.usize_in(1, 64);
    Bn::from_limbs(words)
}

/// A random value of exactly `bits` bits (zero for 0).
fn exact_bits(g: &mut prop::Gen, bits: usize) -> Bn {
    if bits == 0 {
        return Bn::zero();
    }
    let mut v = Bn::from_limbs(g.words(bits.div_ceil(64))).shr(bits.div_ceil(64) * 64 - bits);
    v.set_bit(bits - 1);
    v
}

#[test]
fn mont_mod_exp_matches_schoolbook() {
    prop::check("mont_mod_exp_matches_schoolbook", 16, |g| {
        for limbs in MONT_WIDTHS {
            let n = odd_modulus(g, limbs);
            let ctx = MontCtx::new(n.clone());
            // Below n, and above it by up to a limb.
            let small = Bn::from_limbs(g.words(limbs)).rem(&n);
            let large = n.add(&Bn::from_limbs(g.words(limbs + 1)));
            // Every window width (1, 3, 4, 5 bits) and the sizes around
            // a full and a short top window.
            for exp_bits in [0, 1, 4, 5, 6, 23, 24, 80, 239, 240, 1023, 1024] {
                let exp = exact_bits(g, exp_bits);
                for base in [&small, &large] {
                    assert_eq!(
                        ctx.mod_exp(base, &exp),
                        schoolbook_mod_exp(&base.rem(&n), &exp, &n),
                        "{limbs} limbs, {exp_bits}-bit exponent"
                    );
                }
            }
            assert_eq!(ctx.mul_mod(&small, &large), small.mul_mod(&large, &n));
        }
    });
}

#[test]
fn mont_sqr_matches_mont_mul() {
    prop::check("mont_sqr_matches_mont_mul", 16, |g| {
        for limbs in MONT_WIDTHS {
            let all_ones = Bn::from_limbs(vec![u64::MAX; limbs]);
            let mut top_bit_only = Bn::one();
            top_bit_only.set_bit(64 * limbs - 1);
            // A random modulus; R - 1, whose n - 1 is the all-ones
            // pattern but for a bit (every row's carry is live); and
            // 2^(64k-1) + 1, under which the accumulator reaches 2n > R.
            for n in [odd_modulus(g, limbs), all_ones, top_bit_only] {
                let ctx = MontCtx::new(n.clone());
                let pad = |v: &Bn| {
                    let mut limbs_of = v.limbs().to_vec();
                    limbs_of.resize(limbs, 0);
                    limbs_of
                };
                let n_minus_1 = n.sub(&Bn::one());
                let random = Bn::from_limbs(g.words(limbs)).rem(&n);
                for a in [&Bn::zero(), &Bn::one(), &n_minus_1, &random] {
                    let (mut sqr, mut mul) = (vec![0u64; limbs], vec![0u64; limbs]);
                    let mut wide = vec![0u64; 2 * limbs];
                    let a_limbs = pad(a);
                    ctx.mont_sqr(&a_limbs, &mut sqr, &mut wide);
                    ctx.mont_mul(&a_limbs, &a_limbs, &mut mul, &mut wide);
                    assert_eq!(sqr, mul, "{limbs} limbs, a = {a:?}, n = {n:?}");
                    // And both are a^2 / R: multiply R back in.
                    let got = Bn::from_limbs(sqr);
                    assert!(got < n);
                    assert_eq!(got.shl(64 * limbs).rem(&n), a.mul_mod(a, &n));
                }
            }
        }
    });
}

#[test]
fn rsa2048_sign_verifies_and_crt_matches_plain_d() {
    let key = test_rsa_2048();
    let (n, e) = (key.public().modulus(), key.public().exponent());
    // 4 cases x 8 messages: 32 with or without the sweep feature.
    prop::check("rsa2048_sign_verifies_and_crt_matches_plain_d", 4, |g| {
        for _ in 0..8 {
            let msg = g.bytes_in(0, 200);
            let sig = key.sign_pkcs1_sha256(&msg).unwrap();
            key.public().verify_pkcs1_sha256(&msg, &sig).unwrap();
            let mut other = msg.clone();
            other.push(0);
            assert!(key.public().verify_pkcs1_sha256(&other, &sig).is_err());
            // The public operation by the schoolbook path recovers the
            // PKCS#1 v1.5 block: 00 01 ff .. ff 00 DigestInfo digest.
            let em = schoolbook_mod_exp(&Bn::from_bytes_be(&sig), e, n).to_bytes_be_padded(256);
            assert_eq!(em[..3], [0x00, 0x01, 0xff]);
            assert_eq!(em[256 - 32..], Sha256::digest(&msg));
            // CRT (two 16-limb exponentiations) against the plain
            // private exponent (one 32-limb exponentiation).
            let m = bn_from(&g.bytes(256)).rem(n);
            assert_eq!(key.raw(&m), MontCtx::new(n.clone()).mod_exp(&m, key.d()));
        }
    });
}

// ---- prime curves: comb, wNAF and the joint pass against double-and-add ----

fn oracle_of<const N: usize>(c: &PrimeCurve<N>) -> ec_oracle::OracleCurve {
    let p = c.field.modulus_bn();
    ec_oracle::OracleCurve {
        a: p.sub(&Bn::from_u64(3)),
        p,
    }
}

fn to_oracle(pt: &AffinePoint) -> ec_oracle::Point {
    (!pt.infinity).then(|| (pt.x.clone(), pt.y.clone()))
}

fn negated<const N: usize>(c: &PrimeCurve<N>, pt: &AffinePoint) -> AffinePoint {
    AffinePoint::new(pt.x.clone(), c.field.modulus_bn().sub(&pt.y))
}

/// Scalars at the edges of the group order, plus the two that steer the
/// last wNAF addition into its exceptional branches: `k = n` ends on
/// `d*P + (-d*P)` (infinity), and `k = n + 2d` with `d = -n mod 32` as a
/// signed digit ends on `d*P + d*P` (doubling).
fn edge_scalars(n: &Bn) -> Vec<Bn> {
    let one = Bn::one();
    let low = n.limbs()[0] % 32;
    let doubling = if low > 16 {
        n.add(&Bn::from_u64(2 * (32 - low)))
    } else {
        n.sub(&Bn::from_u64(2 * low))
    };
    let mut two_255 = Bn::zero();
    two_255.set_bit(255);
    vec![
        Bn::zero(),
        one.clone(),
        Bn::from_u64(2),
        Bn::from_u64(15),
        Bn::from_u64(16),
        n.sub(&one),
        n.clone(),
        n.add(&one),
        n.shl(1),
        doubling,
        two_255,
    ]
}

/// Run `property` on both NIST prime curves.
macro_rules! on_prime_curves {
    ($property:ident $(, $arg:expr)*) => {{
        $property(p256() $(, $arg)*);
        $property(p384() $(, $arg)*);
    }};
}

#[test]
fn comb_scalar_mul_base_matches_oracle() {
    fn property<const N: usize>(c: &PrimeCurve<N>, g: &mut prop::Gen) {
        let (o, base) = (oracle_of(c), to_oracle(&c.generator()));
        let mut scalars = edge_scalars(&c.order);
        scalars.push(bn_from(&g.bytes(c.byte_len)));
        scalars.push(bn_from(&g.bytes(c.byte_len)).rem(&c.order));
        for k in &scalars {
            assert_eq!(
                to_oracle(&c.scalar_mul_base(k)),
                o.scalar_mul(&base, k),
                "k = {k:?}"
            );
        }
    }
    prop::check("comb_scalar_mul_base_matches_oracle", 16, |g| {
        on_prime_curves!(property, g)
    });
}

/// Every entry of the comb on its own: `k = d * 16^i` reads exactly one.
/// The oracle walks the same lattice by repeated addition, so the whole
/// table costs it one group operation per entry.
#[test]
fn comb_every_table_entry_matches_oracle() {
    fn property<const N: usize>(c: &PrimeCurve<N>) {
        let o = oracle_of(c);
        let mut row_base = to_oracle(&c.generator());
        for i in 0..c.order.bit_len().div_ceil(4) {
            let mut entry = None;
            for d in 1..=15u64 {
                entry = o.add_points(&entry, &row_base);
                let k = Bn::from_u64(d).shl(4 * i);
                assert_eq!(to_oracle(&c.scalar_mul_base(&k)), entry, "{d} * 16^{i}");
            }
            row_base = o.add_points(&entry, &row_base);
        }
    }
    on_prime_curves!(property);
}

#[test]
fn wnaf_scalar_mul_matches_oracle() {
    fn property<const N: usize>(c: &PrimeCurve<N>, g: &mut prop::Gen) {
        let o = oracle_of(c);
        let point = c.scalar_mul_base(&bn_from(&g.bytes(c.byte_len)));
        let mut scalars = edge_scalars(&c.order);
        scalars.push(bn_from(&g.bytes(c.byte_len)));
        scalars.push(bn_from(&g.bytes(c.byte_len + 8)));
        for k in &scalars {
            assert_eq!(
                to_oracle(&c.scalar_mul(&point, k)),
                o.scalar_mul(&to_oracle(&point), k),
                "k = {k:?}"
            );
        }
        assert!(c.scalar_mul(&AffinePoint::infinity(), &scalars[3]).infinity);
    }
    prop::check("wnaf_scalar_mul_matches_oracle", 16, |g| {
        on_prime_curves!(property, g)
    });
}

#[test]
fn prime_curve_group_order_identities() {
    fn property<const N: usize>(c: &PrimeCurve<N>) {
        let g = c.generator();
        let n_minus_1 = c.order.sub(&Bn::one());
        assert!(c.scalar_mul_base(&c.order).infinity);
        assert!(c.scalar_mul(&g, &c.order).infinity);
        assert_eq!(c.scalar_mul_base(&n_minus_1), negated(c, &g));
        assert_eq!(c.scalar_mul(&g, &n_minus_1), negated(c, &g));
    }
    on_prime_curves!(property);
}

#[test]
fn double_scalar_mul_matches_oracle() {
    fn property<const N: usize>(c: &PrimeCurve<N>, g: &mut prop::Gen) {
        let o = oracle_of(c);
        let base = c.generator();
        let random_point = c.scalar_mul_base(&bn_from(&g.bytes(c.byte_len)));
        let edges = edge_scalars(&c.order);
        let (zero, n, doubling) = (&edges[0], &edges[6], &edges[9]);
        let r1 = bn_from(&g.bytes(c.byte_len)).rem(&c.order);
        let r2 = bn_from(&g.bytes(c.byte_len)).rem(&c.order);
        let cancels = c.order.sub(&r1);
        let check = |u1: &Bn, u2: &Bn, q: &AffinePoint| {
            let want = o.add_points(
                &o.scalar_mul(&to_oracle(&base), u1),
                &o.scalar_mul(&to_oracle(q), u2),
            );
            assert_eq!(
                to_oracle(&c.double_scalar_mul(u1, u2, q)),
                want,
                "u1 = {u1:?}, u2 = {u2:?}, q = {q:?}"
            );
        };
        for q in [&random_point, &base, &negated(c, &base)] {
            check(&r1, &r2, q);
            check(zero, &r2, q);
            check(&r1, zero, q);
            check(zero, zero, q);
            // The same scalar on both: with Q = G the two halves meet in
            // the doubling branch, with Q = -G they cancel step by step.
            check(&r1, &r1, q);
            check(&r1, &cancels, q);
            // The exceptional last step of either half on its own.
            check(n, &r2, q);
            check(doubling, zero, q);
            check(zero, doubling, q);
            check(&r1, n, q);
        }
        check(&r1, &r2, &AffinePoint::infinity());
    }
    prop::check("double_scalar_mul_matches_oracle", 16, |g| {
        on_prime_curves!(property, g)
    });
}

// ---- GF(2^m) ----

#[test]
fn gf2m_field_axioms() {
    prop::check("gf2m_field_axioms", 64, |g| {
        let f = Gf2m::new(283, &[12, 7, 5, 0]);
        let mask = (1u64 << (283 % 64)) - 1;
        let mut a = g.words(5);
        let mut b = g.words(5);
        a[4] &= mask;
        b[4] &= mask;
        // Commutativity and distributivity.
        assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        let ab = f.add(&a, &b);
        assert_eq!(f.sqr(&ab), f.add(&f.sqr(&a), &f.sqr(&b))); // Frobenius
                                                               // Inverse (nonzero a).
        if !f.is_zero(&a) {
            let inv = f.inv(&a);
            assert_eq!(f.mul(&a, &inv), f.one());
        }
    });
}

// ---- symmetric / record layer ----

#[test]
fn aes_cbc_roundtrip() {
    prop::check("aes_cbc_roundtrip", 64, |g| {
        let key: [u8; 16] = g.array();
        let iv: [u8; 16] = g.array();
        let blocks = g.usize_in(1, 32);
        let pt: Vec<u8> = (0..blocks * 16).map(|i| i as u8).collect();
        let cipher = aes::Aes128::new(&key);
        let ct = aes::cbc_encrypt(&cipher, &iv, &pt).unwrap();
        assert_eq!(aes::cbc_decrypt(&cipher, &iv, &ct).unwrap(), pt);
    });
}

#[test]
fn aes_fips197_appendix_c1() {
    let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
        .try_into()
        .unwrap();
    let aes = aes::Aes128::new(&key);
    let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
        .try_into()
        .unwrap();
    aes.encrypt_block(&mut block);
    assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    aes.decrypt_block(&mut block);
    assert_eq!(hex(&block), "00112233445566778899aabbccddeeff");
}

#[test]
fn aes_cbc_sp80038a_f21_f22() {
    let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
        .try_into()
        .unwrap();
    let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
        .try_into()
        .unwrap();
    let pt = unhex(
        "6bc1bee22e409f96e93d7e117393172a\
         ae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52ef\
         f69f2445df4f9b17ad2b417be66c3710",
    );
    let ct = unhex(
        "7649abac8119b246cee98e9b12e9197d\
         5086cb9b507219ee95db113a917678b2\
         73bed6b8e3c1743b7116e69e22229516\
         3ff1caa1681fac09120eca307586e1a7",
    );
    let aes = aes::Aes128::new(&key);
    // F.2.1 (encrypt) and F.2.2 (decrypt), allocating and in-place forms.
    assert_eq!(aes::cbc_encrypt(&aes, &iv, &pt).unwrap(), ct);
    assert_eq!(aes::cbc_decrypt(&aes, &iv, &ct).unwrap(), pt);
    let mut buf = pt.clone();
    aes::cbc_encrypt_in_place(&aes, &iv, &mut buf).unwrap();
    assert_eq!(buf, ct);
    aes::cbc_decrypt_in_place(&aes, &iv, &mut buf).unwrap();
    assert_eq!(buf, pt);
}

/// The three-implementation tests below compare the dispatching
/// functions with the portable kernels. On a CPU where `aes::*` / `Sha1` /
/// `Sha256` do not dispatch to the `x86.rs` kernels the two are the same
/// code, and the test says so on stderr (written directly, so the line
/// shows without `--nocapture`) instead of passing silently.
fn note_if_hardware_half_is_skipped(test: &str) {
    #[cfg(target_arch = "x86_64")]
    let detected = std::arch::is_x86_feature_detected!("aes")
        && std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    if !detected {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "{test}: hardware half SKIPPED — no AES-NI / SHA-NI on this CPU, \
             the dispatching functions are the portable kernels"
        );
    }
}

/// Three implementations, one answer: the dispatching CBC functions
/// (AES-NI where the CPU has it), the table functions called directly
/// and the byte-wise oracle, over random keys, at every length class an
/// 8-lane (hardware) or 2-lane (table) decrypt loop distinguishes — every
/// tail before and after the first and second full group, around 64
/// blocks, and a long run — in place and allocating.
#[test]
fn aes_matches_bytewise_oracle() {
    note_if_hardware_half_is_skipped("aes_matches_bytewise_oracle");
    prop::check("aes_matches_bytewise_oracle", 16, |g| {
        let key: [u8; 16] = g.array();
        let iv: [u8; 16] = g.array();
        let aes = aes::Aes128::new(&key);
        let oracle = aes_oracle::OracleAes128::new(&key);
        for blocks in (1usize..=17).chain(63..=65).chain([1024]) {
            let data = g.bytes(blocks * 16);
            let mut want = data.clone();
            oracle.cbc_encrypt(&iv, &mut want);
            let mut got = data.clone();
            aes::cbc_encrypt_in_place(&aes, &iv, &mut got).unwrap();
            assert_eq!(got, want, "cbc encrypt, {blocks} blocks");
            let mut got = data.clone();
            aes::cbc_encrypt_in_place_portable(&aes, &iv, &mut got).unwrap();
            assert_eq!(got, want, "portable cbc encrypt, {blocks} blocks");
            assert_eq!(aes::cbc_encrypt(&aes, &iv, &data).unwrap(), want);
            // Random bytes as ciphertext: the decrypt side on its own.
            let mut want = data.clone();
            oracle.cbc_decrypt(&iv, &mut want);
            let mut got = data.clone();
            aes::cbc_decrypt_in_place(&aes, &iv, &mut got).unwrap();
            assert_eq!(got, want, "cbc decrypt, {blocks} blocks");
            let mut got = data.clone();
            aes::cbc_decrypt_in_place_portable(&aes, &iv, &mut got).unwrap();
            assert_eq!(got, want, "portable cbc decrypt, {blocks} blocks");
            assert_eq!(aes::cbc_decrypt(&aes, &iv, &data).unwrap(), want);
        }
    });
}

#[test]
fn hmac_sha1_rfc2202_cases_1_to_7() {
    let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b617318655057264e28bc0b6fb378c8ef146be00",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        ),
        (
            (1..=25).collect(),
            vec![0xcd; 50],
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        ),
        (
            vec![0x0c; 20],
            b"Test With Truncation".to_vec(),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        ),
    ];
    for (i, (key, data, want)) in cases.iter().enumerate() {
        let keyed = Hmac::<Sha1>::new(key);
        // A clone of the keyed midstates, fed in two pieces, is the MAC.
        let mut h = keyed.clone();
        h.update(&data[..data.len() / 2]);
        h.update(&data[data.len() / 2..]);
        assert_eq!(hex(&h.finalize_fixed()), *want, "case {}", i + 1);
        assert_eq!(hex(&Hmac::<Sha1>::mac(key, data)), *want, "case {}", i + 1);
    }
}

#[test]
fn sha_million_a() {
    let chunk = [b'a'; 1000];
    let mut h1 = Sha1::new();
    let mut h256 = Sha256::new();
    for _ in 0..1000 {
        h1.update(&chunk);
        h256.update(&chunk);
    }
    assert_eq!(
        hex(&h1.finalize_fixed()),
        "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    );
    assert_eq!(
        hex(&h256.finalize_fixed()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

/// Message lengths on both sides of the two padding boundaries (the
/// length field fits the last block up to 55 bytes, needs a block of its
/// own from 56), one-shot and split at every byte.
#[test]
fn sha_padding_boundaries() {
    let cases = [
        (
            55,
            "c1c8bbdc22796e28c0e15163d20899b65621d65a",
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
        (
            56,
            "c2db330f6083854c99d4b5bfb6e8f29f201be699",
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        ),
        (
            63,
            "03f09f5b158a7a8cdad920bddc29b81c18a551f5",
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
        ),
        (
            64,
            "0098ba824b5c16427bd7a1122a5a442a25ec644d",
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        ),
        (
            119,
            "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
        ),
        (
            120,
            "f34c1488385346a55709ba056ddd08280dd4c6d6",
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
        ),
    ];
    for (len, sha1, sha256) in cases {
        let msg = vec![b'a'; len];
        assert_eq!(hex(&Sha1::digest(&msg)), sha1, "sha1, {len} bytes");
        assert_eq!(hex(&Sha256::digest(&msg)), sha256, "sha256, {len} bytes");
        for split in 0..=len {
            let mut h1 = Sha1::new();
            h1.update(&msg[..split]);
            h1.update(&msg[split..]);
            assert_eq!(hex(&h1.finalize_fixed()), sha1, "sha1 {len} split {split}");
            let mut h256 = Sha256::new();
            h256.update(&msg[..split]);
            h256.update(&msg[split..]);
            assert_eq!(
                hex(&h256.finalize_fixed()),
                sha256,
                "sha256 {len} split {split}"
            );
        }
    }
}

const SHA1_IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
const SHA256_IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A Merkle–Damgård digest driven block by block through `compress` —
/// the rolled kernels of `sha1.rs` / `sha256.rs` called directly, with
/// the FIPS 180-4 §5.1.1 padding done here — as the reference for
/// whatever `Sha1` / `Sha256` dispatch to.
fn md_digest<const N: usize>(
    mut state: [u32; N],
    compress: fn(&mut [u32; N], &[u8; 64]),
    msg: &[u8],
) -> Vec<u8> {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    padded.resize((padded.len() + 8).next_multiple_of(64) - 8, 0);
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    for block in padded.chunks_exact(64) {
        compress(&mut state, block.try_into().unwrap());
    }
    state.iter().flat_map(|w| w.to_be_bytes()).collect()
}

fn sha1_rolled(msg: &[u8]) -> Vec<u8> {
    md_digest(SHA1_IV, qtls::crypto::sha1::compress_portable, msg)
}

fn sha256_rolled(msg: &[u8]) -> Vec<u8> {
    md_digest(SHA256_IV, qtls::crypto::sha256::compress_portable, msg)
}

/// `Sha1` / `Sha256` (SHA-NI where the CPU has it, fed runs of whole
/// blocks) against the rolled `compress` driven one block at a time:
/// random messages of 0–300 bytes split at every offset — so a run starts
/// and ends at every position relative to the block buffer — and a 16 KB
/// record in one piece.
#[test]
fn sha_matches_rolled_compress() {
    note_if_hardware_half_is_skipped("sha_matches_rolled_compress");
    prop::check("sha_matches_rolled_compress", 8, |g| {
        let msg = g.bytes_in(0, 301);
        let (want1, want256) = (sha1_rolled(&msg), sha256_rolled(&msg));
        for split in 0..=msg.len() {
            let mut h1 = Sha1::new();
            h1.update(&msg[..split]);
            h1.update(&msg[split..]);
            assert_eq!(h1.finalize_fixed()[..], want1[..], "sha1 split {split}");
            let mut h256 = Sha256::new();
            h256.update(&msg[..split]);
            h256.update(&msg[split..]);
            assert_eq!(
                h256.finalize_fixed()[..],
                want256[..],
                "sha256 split {split}"
            );
        }
        let record = g.bytes(16 * 1024);
        assert_eq!(Sha1::digest(&record)[..], sha1_rolled(&record)[..]);
        assert_eq!(Sha256::digest(&record)[..], sha256_rolled(&record)[..]);
    });
}

/// The keyed record cipher on the dispatched kernels against the same
/// record composed from the portable ones (HMAC spelled out over the
/// rolled SHA-1, TLS padding, table CBC), at sizes on both sides of the
/// 8-block decrypt group and at a full fragment; then forged records —
/// a wrong pad byte, a pad longer than the record, a wrong tag byte, a
/// lone block — are all the one `BadMac`. (That the MAC still *runs* for
/// each of them is `qtls-crypto`'s own
/// `bad_pad_and_bad_tag_are_one_error_and_both_run_the_mac`, which counts
/// tags through a test-only seam and goes through the same dispatch.)
#[test]
fn record_cipher_matches_portable_composition() {
    note_if_hardware_half_is_skipped("record_cipher_matches_portable_composition");
    prop::check("record_cipher_matches_portable_composition", 8, |g| {
        let enc_key: [u8; 16] = g.array();
        let mac_key: [u8; 20] = g.array();
        let iv: [u8; 16] = g.array();
        let aad: [u8; 11] = g.array();
        let cipher = CbcHmacSha1::new(&enc_key, &mac_key);
        let aes = aes::Aes128::new(&enc_key);
        let hmac_rolled = |msg: &[u8]| {
            let mut inner = [0x36u8; 64].to_vec();
            let mut outer = [0x5cu8; 64].to_vec();
            for (i, k) in mac_key.iter().enumerate() {
                inner[i] ^= k;
                outer[i] ^= k;
            }
            inner.extend_from_slice(msg);
            outer.extend_from_slice(&sha1_rolled(&inner));
            sha1_rolled(&outer)
        };
        let len = g.usize_in(0, 300);
        for len in [len, 16 * 1024] {
            let payload = g.bytes(len);
            let mut padded = payload.clone();
            padded.extend_from_slice(&hmac_rolled(&[&aad[..], &payload].concat()));
            let pad = 16 - padded.len() % 16;
            padded.resize(padded.len() + pad, (pad - 1) as u8);
            let mut want = padded.clone();
            aes::cbc_encrypt_in_place_portable(&aes, &iv, &mut want).unwrap();

            let mut buf = payload.clone();
            cipher.seal_in_place(&iv, &mut buf, &aad).unwrap();
            assert_eq!(buf, want, "seal, {len} bytes");
            cipher.open_in_place(&iv, &mut buf, &aad).unwrap();
            assert_eq!(buf, payload, "open, {len} bytes");

            let n = padded.len();
            let mut bad_pad = padded.clone();
            bad_pad[n - pad] ^= 0x10; // not the length byte when pad > 1
            let mut bad_pad_len = padded.clone();
            bad_pad_len[n - 1] = 0xff;
            let mut bad_tag = padded.clone();
            bad_tag[n - pad - 1] ^= 0x01;
            let forgeries = [
                ("pad byte", pad > 1, bad_pad),
                ("pad length", true, bad_pad_len),
                ("tag byte", true, bad_tag),
                ("one block, no room for a tag", true, vec![0u8; 16]),
            ];
            for (what, applies, forged) in forgeries {
                if applies {
                    let ct = aes::cbc_encrypt(&aes, &iv, &forged).unwrap();
                    assert_eq!(
                        cipher.open(&iv, &ct, &aad),
                        Err(CryptoError::BadMac),
                        "{what}, {len} bytes"
                    );
                }
            }
        }
    });
}

#[test]
fn record_protection_roundtrip() {
    prop::check("record_protection_roundtrip", 64, |g| {
        let payload = g.bytes_in(0, 2048);
        let enc_key: [u8; 16] = g.array();
        let iv: [u8; 16] = g.array();
        let cipher = CbcHmacSha1::new(&enc_key, &[7u8; 20]);
        let ct = cipher.seal(&iv, &payload, b"aad").unwrap();
        assert_eq!(cipher.open(&iv, &ct, b"aad").unwrap(), payload);
        // The in-place forms are the same transform on a caller's buffer.
        let mut buf = payload.clone();
        cipher.seal_in_place(&iv, &mut buf, b"aad").unwrap();
        assert_eq!(buf, ct);
        cipher.open_in_place(&iv, &mut buf, b"aad").unwrap();
        assert_eq!(buf, payload);
    });
}

#[test]
fn record_protection_rejects_bitflips() {
    prop::check("record_protection_rejects_bitflips", 64, |g| {
        let payload = g.bytes_in(1, 256);
        let flip_byte = g.usize_in(0, usize::MAX);
        let flip_bit = g.u64_in(0, 8) as u8;
        let cipher = CbcHmacSha1::new(&[1; 16], &[2; 20]);
        let ct = cipher.seal(&[3; 16], &payload, b"a").unwrap();
        let mut bad = ct.clone();
        let idx = flip_byte % bad.len();
        bad[idx] ^= 1 << flip_bit;
        // Whether the flip lands in content, tag or padding, the opener
        // reports the one error kind (no padding oracle).
        assert_eq!(cipher.open(&[3; 16], &bad, b"a"), Err(CryptoError::BadMac));
    });
}

/// One MAC-then-encrypt body: the keyed context, the one-shot wrappers
/// the benchmark imports, both device descriptors and the handshake
/// record layer produce the same bytes for the same key/iv/aad.
#[test]
fn every_seal_path_produces_the_same_record() {
    use qtls::crypto::{EntropySource, TestRng};
    use qtls::qat::request::{execute, execute_owned};
    use qtls::qat::{seal_in_place, CryptoOp};
    use qtls::tls::provider::{CryptoProvider, OpCounters};
    use qtls::tls::record::{ContentType, DirectionKeys, RecordLayer};
    prop::check("every_seal_path_produces_the_same_record", 16, |g| {
        let payload = g.bytes_in(0, 600);
        let enc_key: [u8; 16] = g.array();
        let mac_key = g.bytes(20);
        let rng_seed = g.u64();
        // The record layer draws its explicit IV from the rng it is
        // handed; replay that draw to learn the IV it will use.
        let mut iv = [0u8; 16];
        TestRng::new(rng_seed).fill(&mut iv);
        let mut aad = [0u8; 11];
        aad[8] = ContentType::ApplicationData as u8;
        aad[9..].copy_from_slice(&0x0303u16.to_be_bytes());

        let cipher = Arc::new(CbcHmacSha1::new(&enc_key, &mac_key));
        let reference = cipher.seal(&iv, &payload, &aad).unwrap();

        let mut oneshot = payload.clone();
        seal_in_place(&enc_key, &mac_key, &iv, &mut oneshot, &aad).unwrap();
        assert_eq!(oneshot, reference, "qtls_qat::seal_in_place");

        let encrypt = execute(&CryptoOp::CipherEncrypt {
            cipher: Arc::clone(&cipher),
            iv,
            plaintext: payload.clone(),
            aad: aad.to_vec(),
        });
        assert_eq!(encrypt.unwrap().into_bytes(), reference, "CipherEncrypt");

        let in_place = execute_owned(CryptoOp::CipherSealInPlace {
            cipher: Arc::clone(&cipher),
            iv,
            buf: payload.clone(),
            aad,
        });
        assert_eq!(
            in_place.unwrap().into_bytes(),
            reference,
            "CipherSealInPlace"
        );

        let mut layer = RecordLayer::new(0x0303);
        layer.set_write_keys(DirectionKeys { mac_key, enc_key });
        let record = layer
            .write_record(
                ContentType::ApplicationData,
                &payload,
                &CryptoProvider::Software,
                &mut OpCounters::default(),
                &mut TestRng::new(rng_seed),
            )
            .unwrap();
        assert_eq!(&record[5..21], &iv, "explicit IV");
        assert_eq!(&record[21..], &reference[..], "RecordLayer::write_record");
    });
}

#[test]
fn prf_is_prefix_consistent() {
    prop::check("prf_is_prefix_consistent", 64, |g| {
        let len_a = g.usize_in(1, 80);
        let len_b = g.usize_in(1, 80);
        let secret = g.bytes_in(1, 32);
        let short = len_a.min(len_b);
        let a = kdf::prf_tls12(&secret, b"label", b"seed", len_a);
        let b = kdf::prf_tls12(&secret, b"label", b"seed", len_b);
        assert_eq!(&a[..short], &b[..short]);
    });
}

// ---- session tickets ----

#[test]
fn ticket_roundtrip_random_master() {
    prop::check("ticket_roundtrip_random_master", 64, |g| {
        use qtls::crypto::TestRng;
        use qtls::tls::session::{SessionEntry, TicketKeys};
        let master = g.bytes_in(1, 64);
        let mut rng = TestRng::new(42);
        let keys = TicketKeys::generate(&mut rng);
        let entry = SessionEntry {
            master: master.clone(),
            suite: qtls::tls::CipherSuite::TlsRsa,
        };
        let ticket = keys
            .seal(&entry, &mut rng)
            .expect("master fits the sealed format");
        let opened = keys.open(&ticket).unwrap();
        assert_eq!(opened.master, master);
    });
}
