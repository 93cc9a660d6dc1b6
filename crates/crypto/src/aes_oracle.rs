//! Test-only reference AES-128: the FIPS 197 pseudocode on a byte state,
//! with the S-box *computed* from its definition (multiplicative inverse
//! in GF(2^8), then the affine map) and every MixColumns product done by
//! shift-and-add `gmul`. It shares no table and no code with `aes.rs`,
//! which is what makes the differential tests meaningful.
//!
//! Self-contained (no `crate::` paths) because it is compiled twice, and
//! only ever into test binaries: as `#[cfg(test)] mod aes_oracle` here,
//! and by `#[path]` from the root package's `tests/proptest_crypto.rs`.

/// Multiply in GF(2^8) with the AES polynomial 0x11b.
pub fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// FIPS 197 §5.1.1: `x⁻¹` (0 ↦ 0) followed by the affine transformation.
fn sbox(x: u8) -> u8 {
    // x^254 = x⁻¹ in GF(2^8).
    let mut inv = 1u8;
    for _ in 0..254 {
        inv = gmul(inv, x);
    }
    let inv = if x == 0 { 0 } else { inv };
    inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
}

/// Byte-wise AES-128 (11 round keys, column-major state).
pub struct OracleAes128 {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    round_keys: [[u8; 16]; 11],
}

impl OracleAes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let sbox: [u8; 256] = std::array::from_fn(|x| sbox(x as u8));
        let mut inv_sbox = [0u8; 256];
        for (x, &s) in sbox.iter().enumerate() {
            inv_sbox[s as usize] = x as u8;
        }
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = sbox[*b as usize];
                }
                t[0] ^= rcon;
                rcon = gmul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        OracleAes128 {
            sbox,
            inv_sbox,
            round_keys,
        }
    }

    /// Encrypt one block (FIPS 197 Fig. 5).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        xor16(block, &self.round_keys[0]);
        for r in 1..=10 {
            block.iter_mut().for_each(|x| *x = self.sbox[*x as usize]);
            shift_rows(block, false);
            if r != 10 {
                mix_columns(block, [2, 3, 1, 1]);
            }
            xor16(block, &self.round_keys[r]);
        }
    }

    /// Decrypt one block (FIPS 197 Fig. 12, the straightforward inverse).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        for r in (1..=10).rev() {
            xor16(block, &self.round_keys[r]);
            if r != 10 {
                mix_columns(block, [14, 11, 13, 9]);
            }
            shift_rows(block, true);
            block
                .iter_mut()
                .for_each(|x| *x = self.inv_sbox[*x as usize]);
        }
        xor16(block, &self.round_keys[0]);
    }

    /// CBC-encrypt whole blocks (SP 800-38A §6.2).
    pub fn cbc_encrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().unwrap();
            xor16(block, &prev);
            self.encrypt_block(block);
            prev = *block;
        }
    }

    /// CBC-decrypt whole blocks.
    pub fn cbc_decrypt(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(16) {
            let block: &mut [u8; 16] = chunk.try_into().unwrap();
            let ct = *block;
            self.decrypt_block(block);
            xor16(block, &prev);
            prev = ct;
        }
    }
}

fn xor16(a: &mut [u8; 16], b: &[u8; 16]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x ^= y;
    }
}

/// Row `r` rotates left by `r` columns (right when `inverse`); byte
/// index = col*4 + row.
fn shift_rows(b: &mut [u8; 16], inverse: bool) {
    let orig = *b;
    for row in 1..4 {
        for col in 0..4 {
            let from = if inverse { col + 4 - row } else { col + row } % 4;
            b[col * 4 + row] = orig[from * 4 + row];
        }
    }
}

/// Multiply each column by the circulant matrix whose first row is `m`.
fn mix_columns(b: &mut [u8; 16], m: [u8; 4]) {
    for col in b.chunks_exact_mut(4) {
        let c = [col[0], col[1], col[2], col[3]];
        for row in 0..4 {
            col[row] = (0..4).fold(0, |acc, j| acc ^ gmul(m[(j + 4 - row) % 4], c[j]));
        }
    }
}
