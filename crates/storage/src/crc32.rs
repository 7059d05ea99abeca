//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for record and
//! snapshot framing. Table-driven, eight bytes a step (slicing-by-8), the
//! tables built at compile time.

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets eight table
/// look-ups advance the register over eight input bytes at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte into the register: the bytewise algorithm, used for the tail.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize]
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (chunks, tail) = data.as_chunks::<8>();
    for chunk in chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][usize::from(chunk[4])]
            ^ TABLES[2][usize::from(chunk[5])]
            ^ TABLES[1][usize::from(chunk[6])]
            ^ TABLES[0][usize::from(chunk[7])];
    }
    for &byte in tail {
        crc = step(crc, byte);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop `crc32` used to be: the reference for the sliced one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &byte| step(crc, byte))
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"hello world");
        let mut tampered = b"hello world".to_vec();
        tampered[4] ^= 0x01;
        assert_ne!(crc32(&tampered), base);
    }

    #[test]
    fn matches_bytewise_at_every_length() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random buffers at random alignments agree with the bytewise loop.
        #[test]
        fn matches_bytewise_on_random_buffers(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            skip in 0usize..8,
        ) {
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }
}
