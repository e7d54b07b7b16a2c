//! The slice-by-8 CRC-32 against the byte-at-a-time definition.
//!
//! Segment frames are checked with [`crc32`]; a fast path that disagrees
//! with the textbook CRC on any length or alignment would make every
//! store written before it unreadable. The oracle here is the plain
//! bit-reflected IEEE CRC-32, one table lookup per byte.

use dox_store::crc32;
use proptest::collection::vec;
use proptest::prelude::*;

/// IEEE CRC-32, one byte per step: the classic table-driven loop.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| {
            (0..8).fold(i, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn the_check_value_is_the_standard_one() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn every_length_and_alignment_matches_the_bytewise_crc() {
    // A fixed pseudo-random buffer (xorshift), so the test is exact.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let buf: Vec<u8> = (0..4096 + 8)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    for align in 0..8 {
        let tail = &buf[align..];
        for len in 0..4096 {
            let bytes = &tail[..len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "length {len} at alignment {align}"
            );
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_match_the_bytewise_crc(bytes in vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }
}
