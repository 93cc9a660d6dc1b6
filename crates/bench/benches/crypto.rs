//! Micro-benchmarks of the software crypto substrate — the per-operation
//! costs that define the paper's `SW` baseline (and that the cost model
//! in `qtls-sim` abstracts).

use qtls_bench::harness::{Criterion, Throughput};
use qtls_bench::{criterion_group, criterion_main};
use qtls_crypto::cbc_hmac::{open_batch, seal_batch, OpenRecord, SealRecord};
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::hmac::Hmac;
use qtls_crypto::mont::{Mont52, MontCtx};
use qtls_crypto::sha1::{self, Sha1};
use qtls_crypto::sha256::{self, Sha256};
use qtls_crypto::test_keys::test_rsa_2048;
use qtls_crypto::Bn;
use qtls_crypto::{aes, kdf, CbcHmacSha1, TestRng};
use std::hint::black_box;

fn bench_rsa(c: &mut Criterion) {
    let key = test_rsa_2048();
    let mut rng = TestRng::new(1);
    let mut group = c.benchmark_group("rsa2048");
    group.sample_size(20);
    group.bench_function("sign_pkcs1_sha256", |b| {
        b.iter(|| {
            key.sign_pkcs1_sha256(black_box(b"server key exchange"))
                .unwrap()
        })
    });
    // The sign without the radix-2^52 dispatch: the portable CRT over
    // the same encoded message (the public operation recovers it from a
    // signature), so the two rows differ only by the 19-byte SHA-256.
    let em = key.public().raw(&Bn::from_bytes_be(
        &key.sign_pkcs1_sha256(b"server key exchange").unwrap(),
    ));
    group.bench_function("sign_pkcs1_sha256_portable", |b| {
        b.iter(|| key.raw_portable(black_box(&em)).to_bytes_be_padded(256))
    });
    let ct = key.public().encrypt_pkcs1(&[7u8; 48], &mut rng).unwrap();
    group.bench_function("decrypt_premaster", |b| {
        b.iter(|| key.decrypt_pkcs1(black_box(&ct)).unwrap())
    });
    let sig = key.sign_pkcs1_sha256(b"msg").unwrap();
    group.bench_function("rsa2048_verify", |b| {
        b.iter(|| {
            key.public()
                .verify_pkcs1_sha256(black_box(b"msg"), &sig)
                .unwrap()
        })
    });
    group.finish();

    // The two kernels under every exponentiation, at the CRT half's
    // width (a 1024-bit prime: 16 limbs).
    let ctx = MontCtx::new(key.primes().0.clone());
    let k = ctx.limbs();
    let a: Vec<u64> = (0..k as u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1) >> 1)
        .collect();
    let (mut out, mut wide) = (vec![0u64; k], vec![0u64; 2 * k]);
    let mut group = c.benchmark_group("mont");
    group.bench_function("mont_mul_1024", |b| {
        b.iter(|| ctx.mont_mul(black_box(&a), ctx.rr(), &mut out, &mut wide))
    });
    group.bench_function("mont_sqr_1024", |b| {
        b.iter(|| ctx.mont_sqr(black_box(&a), &mut out, &mut wide))
    });
    // The radix-2^52 kernel the sign dispatches to on a CPU with AVX-512
    // IFMA: both CRT halves' products in one call, so it is one step of
    // a whole sign where the rows above are one step of a half.
    let (p, q) = key.primes();
    if let (Some(cp), Some(cq)) = (Mont52::new(p), Mont52::new(q)) {
        let (ap, aq) = (*cp.rr(), *cq.rr());
        group.bench_function("amm52_x2_1024", |b| {
            b.iter(|| Mont52::amm_pair([&cp, &cq], black_box([&ap, &aq]), [&ap, &aq]))
        });
    }
    group.finish();
}

fn bench_ecc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecdsa_sign");
    group.sample_size(10);
    for curve in [
        NamedCurve::P256,
        NamedCurve::P384,
        NamedCurve::B283,
        NamedCurve::K283,
    ] {
        let mut rng = TestRng::new(2);
        let kp = ecc::generate_keypair(curve, &mut rng);
        group.bench_function(curve.name(), |b| {
            let mut nonce_rng = TestRng::new(3);
            b.iter(|| ecc::ecdsa_sign(curve, &kp.private, black_box(b"transcript"), &mut nonce_rng))
        });
    }
    group.finish();

    // The three scalar-multiplication shapes under keygen/sign, ECDH and
    // verify: fixed-base comb, variable-base wNAF, and the joint pass.
    let mut rng = TestRng::new(5);
    let kp = ecc::generate_keypair(NamedCurve::P256, &mut rng);
    let sig = ecc::ecdsa_sign(NamedCurve::P256, &kp.private, b"transcript", &mut rng);
    let mut group = c.benchmark_group("p256");
    group.sample_size(10);
    group.bench_function("p256_scalar_mul_base", |b| {
        b.iter(|| NamedCurve::P256.scalar_mul_base(black_box(&kp.private)))
    });
    group.bench_function("p256_scalar_mul", |b| {
        b.iter(|| {
            NamedCurve::P256
                .scalar_mul(black_box(&kp.public), &kp.private)
                .unwrap()
        })
    });
    group.bench_function("p256_ecdsa_verify", |b| {
        b.iter(|| ecc::ecdsa_verify(NamedCurve::P256, &kp.public, black_box(b"transcript"), &sig))
    });
    // A handshake's key pair: a new scalar every call, drawn from an RNG
    // made outside the clock.
    let mut seed = 0;
    group.bench_function("keygen_fresh", |b| {
        b.iter_batched(
            || {
                seed += 1;
                TestRng::new(seed)
            },
            |mut rng| ecc::generate_keypair(NamedCurve::P256, &mut rng),
        )
    });
    group.finish();

    let mut group = c.benchmark_group("ecdh");
    group.sample_size(10);
    for curve in [NamedCurve::P256, NamedCurve::P384] {
        let mut rng = TestRng::new(4);
        let alice = ecc::generate_keypair(curve, &mut rng);
        let bob = ecc::generate_keypair(curve, &mut rng);
        group.bench_function(format!("derive_{}", curve.name()), |b| {
            b.iter(|| ecc::ecdh(curve, &alice.private, black_box(&bob.public)).unwrap())
        });
    }
    // What a handshake pays: a new private scalar and a new peer point
    // every call. The row above repeats one pair, so the branch
    // predictor learns its digit pattern and the row reads low.
    let mut rng = TestRng::new(6);
    group.bench_function("p256_fresh_peer", |b| {
        b.iter_batched(
            || {
                let ours = ecc::generate_keypair(NamedCurve::P256, &mut rng);
                let peer = ecc::generate_keypair(NamedCurve::P256, &mut rng);
                (ours.private, peer.public)
            },
            |(private, peer)| ecc::ecdh(NamedCurve::P256, &private, &peer).unwrap(),
        )
    });
    group.finish();

    // One field product and one square of P-256 in a dependent chain,
    // as the point formulas run them: the `mulx`/`adx` kernels (on a CPU
    // with BMI2 and ADX) beside the portable CIOS product and the
    // portable square.
    let f = &qtls_crypto::ec::p256().field;
    let y = f
        .to_mont(&kp.public.x)
        .expect("a public point's x is below p");
    let mut group = c.benchmark_group("fp");
    let mut x = y;
    group.bench_function("p256_mul", |b| {
        b.iter(|| {
            x = f.mul(black_box(&x), &y);
            x
        })
    });
    group.bench_function("p256_mul_portable", |b| {
        b.iter(|| {
            x = f.mul_portable(black_box(&x), &y);
            x
        })
    });
    group.bench_function("p256_sqr", |b| {
        b.iter(|| {
            x = f.sqr(black_box(&x));
            x
        })
    });
    group.bench_function("p256_sqr_portable", |b| {
        b.iter(|| {
            x = f.sqr_portable(black_box(&x));
            x
        })
    });
    group.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    // The 16 KB record of the secure-data-transfer phase (§2.1), step by
    // step: the block cipher alone in each direction, the hash alone,
    // then the keyed MAC-then-encrypt context on top of them. Each
    // primitive also has a `*_portable` row that calls the table / rolled
    // kernel directly: the number every CPU without AES-NI / SHA-NI gets.
    // The seal row runs the stitched one-pass kernel where the CPU has
    // both extensions; its `*_two_pass` row is the MAC, then the cipher.
    let record = vec![0x5au8; 16 * 1024];
    let cipher = aes::Aes128::new(&[1; 16]);
    let mut group = c.benchmark_group("record_cipher");
    group.throughput(Throughput::Bytes(record.len() as u64));
    let mut buf = record.clone();
    group.bench_function("aes128_cbc_encrypt_16k", |b| {
        b.iter(|| aes::cbc_encrypt_in_place(&cipher, &[3; 16], black_box(&mut buf)).unwrap())
    });
    group.bench_function("aes128_cbc_decrypt_16k", |b| {
        b.iter(|| aes::cbc_decrypt_in_place(&cipher, &[3; 16], black_box(&mut buf)).unwrap())
    });
    group.bench_function("aes128_cbc_encrypt_16k_portable", |b| {
        b.iter(|| {
            aes::cbc_encrypt_in_place_portable(&cipher, &[3; 16], black_box(&mut buf)).unwrap()
        })
    });
    group.bench_function("aes128_cbc_decrypt_16k_portable", |b| {
        b.iter(|| {
            aes::cbc_decrypt_in_place_portable(&cipher, &[3; 16], black_box(&mut buf)).unwrap()
        })
    });
    group.bench_function("sha1_16k", |b| b.iter(|| Sha1::digest(black_box(&record))));
    // The 16-lane AVX-512 kernel, per record: sixteen records per call.
    let records: [&[u8]; 16] = [&record; 16];
    if sha1::digest_x16(&records).is_some() {
        group.bench_function("sha1_16k_x16", |b| {
            b.iter_per(16, || sha1::digest_x16(black_box(&records)))
        });
    }
    group.bench_function("sha1_16k_portable", |b| {
        b.iter(|| {
            let mut state = [0u32; 5];
            for block in black_box(&record).chunks_exact(64) {
                sha1::compress_portable(&mut state, block.try_into().unwrap());
            }
            state
        })
    });
    let ctx = CbcHmacSha1::new(&[1; 16], &[2; 20]);
    let mut buf = Vec::with_capacity(record.len() + 64);
    group.bench_function("aes128_cbc_hmac_sha1_16kb", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(black_box(&record));
            ctx.seal_in_place(&[3; 16], &mut buf, b"aad").unwrap()
        })
    });
    group.bench_function("aes128_cbc_hmac_sha1_16kb_two_pass", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(black_box(&record));
            ctx.seal_in_place_two_pass(&[3; 16], &mut buf, b"aad")
                .unwrap()
        })
    });
    // A doorbell's sixteen records in one multi-buffer pass, per record
    // (the per-record seal on a CPU without AVX-512 and VAES).
    let mut bufs: Vec<Vec<u8>> = (0..16)
        .map(|_| Vec::with_capacity(record.len() + 64))
        .collect();
    group.bench_function("aes128_cbc_hmac_sha1_16kb_x16", |b| {
        b.iter_per(16, || {
            seal_batch(bufs.iter_mut().map(|buf| {
                buf.clear();
                buf.extend_from_slice(black_box(&record));
                SealRecord {
                    cipher: &ctx,
                    iv: &[3; 16],
                    aad: b"aad",
                    buf,
                }
            }))
            .unwrap()
        })
    });
    // Opening: one record, then sixteen with their MACs in one pass.
    let sealed = ctx.seal(&[3; 16], &record, b"aad").unwrap();
    group.bench_function("cbc_hmac_sha1_open_16kb", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(black_box(&sealed));
            ctx.open_in_place(&[3; 16], &mut buf, b"aad").unwrap()
        })
    });
    group.bench_function("cbc_hmac_sha1_open_16kb_x16", |b| {
        b.iter_per(16, || {
            let mut content = 0;
            open_batch(
                bufs.iter_mut().map(|buf| {
                    buf.clear();
                    buf.extend_from_slice(black_box(&sealed));
                    OpenRecord {
                        cipher: &ctx,
                        iv: &[3; 16],
                        aad: b"aad",
                        buf: &mut buf[..],
                    }
                }),
                |_, verdict| content += verdict.unwrap(),
            );
            content
        })
    });
    group.finish();

    // Per-record fixed costs: a short MAC from the keyed midstates (the
    // 80 bytes are a keep-alive request line) and a 1 KB seal.
    let mut group = c.benchmark_group("record_fixed_cost");
    let keyed = Hmac::<Sha1>::new(&[2; 20]);
    group.bench_function("hmac_sha1_80b", |b| {
        b.iter(|| {
            let mut h = keyed.clone();
            h.update(black_box(&record[..80]));
            h.finalize_fixed()
        })
    });
    group.bench_function("cbc_hmac_sha1_seal_1k", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(black_box(&record[..1024]));
            ctx.seal_in_place(&[3; 16], &mut buf, &[4; 11]).unwrap()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("kdf");
    group.bench_function("tls12_prf_key_block", |b| {
        b.iter(|| kdf::prf_tls12(black_box(b"master"), b"key expansion", b"randoms", 104))
    });
    group.bench_function("hkdf_expand_label", |b| {
        b.iter(|| kdf::hkdf_expand_label(black_box(&[7u8; 32]), b"s hs traffic", &[1; 32], 32))
    });
    group.finish();

    let mut group = c.benchmark_group("hash");
    let data = vec![0u8; 16 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_16kb", |b| {
        b.iter(|| Sha256::digest(black_box(&data)))
    });
    group.bench_function("sha256_16kb_portable", |b| {
        b.iter(|| {
            let mut state = [0u32; 8];
            for block in black_box(&data).chunks_exact(64) {
                sha256::compress_portable(&mut state, block.try_into().unwrap());
            }
            state
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rsa, bench_ecc, bench_symmetric);
criterion_main!(benches);
