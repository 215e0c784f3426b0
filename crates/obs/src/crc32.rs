//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`). Slicing-by-8
//! over tables built at compile time; hand-rolled because the workspace
//! vendors its dependency set.
//!
//! Lives at the bottom of the workspace graph so every integrity-checked
//! artifact shares one implementation: `rrc-store` section payloads and
//! segment records.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[n][b]` is the
/// CRC of byte `b` followed by `n` zero bytes, which lets eight input
/// bytes fold into the state with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

fn step(crc: u32, byte: u8) -> u32 {
    TABLES[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8)
}

/// The CRC-32 of `bytes` (same parameters as zlib's `crc32`), eight bytes
/// per step (slicing-by-8) with a bytewise tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = step(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from the zlib implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The one-byte-per-step loop the sliced form must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| step(crc, b))
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // A fixed xorshift stream: random enough to exercise every table.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=70 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"abcdefgh".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }
}
