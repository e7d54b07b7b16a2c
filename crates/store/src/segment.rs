//! Segment record framing.
//!
//! A segment is a flat sequence of length-prefixed, CRC-framed records:
//!
//! ```text
//! ┌────────────┬────────────┬───────┬─────────────┬─────┬───────┐
//! │ len: u32le │ crc: u32le │ flags │ key_len:u32 │ key │ value │
//! └────────────┴────────────┴───────┴─────────────┴─────┴───────┘
//!               ╰──────── crc covers flags..value ─────────────╯
//! ```
//!
//! `len` counts everything after the `crc` field, so a reader knows the
//! full frame size from the first eight bytes. The CRC (IEEE 802.3
//! CRC-32, hand-rolled slice-by-8 — no external dependency) covers the payload, so
//! a frame is either provably intact or rejected. [`scan`] walks a
//! buffer frame by frame and stops at the first record that fails any
//! check — a short header, a length past the buffer end, a CRC
//! mismatch, or malformed framing — reporting how many bytes were valid
//! so the caller can truncate the torn tail instead of failing the
//! whole segment.

/// Frame header size: the `len` and `crc` fields.
pub const HEADER_LEN: usize = 8;

/// Fixed payload overhead: the flags byte and the `key_len` field.
const PAYLOAD_FIXED: usize = 5;

/// Flag bit marking a tombstone (deletion) record.
const FLAG_TOMBSTONE: u8 = 1;

/// Slice-by-8 IEEE CRC-32 tables, built at compile time: `CRC_TABLES[0]`
/// is the classic byte-at-a-time table, and `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the CRC by eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// IEEE 802.3 CRC-32 of `bytes`, eight bytes per step (slice-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One decoded record, borrowing from the segment buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The record key (table prefix included).
    pub key: &'a [u8],
    /// The record value; empty for tombstones.
    pub value: &'a [u8],
    /// Whether this record deletes its key.
    pub tombstone: bool,
}

/// Append the frame for `(key, value, tombstone)` to `out`; returns the
/// frame length in bytes.
pub fn encode_record(key: &[u8], value: &[u8], tombstone: bool, out: &mut Vec<u8>) -> usize {
    let payload_len = PAYLOAD_FIXED + key.len() + value.len();
    let frame_len = HEADER_LEN + payload_len;
    out.reserve(frame_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let crc_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let payload_at = out.len();
    out.push(if tombstone { FLAG_TOMBSTONE } else { 0 });
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32(&out[payload_at..]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    frame_len
}

/// Decode the record starting at the beginning of `buf`.
///
/// Returns the record and the full frame length, or `None` when the
/// frame is torn or corrupt (short header, length past the buffer, CRC
/// mismatch, unknown flags, or a key length inconsistent with `len`).
pub fn decode_record(buf: &[u8]) -> Option<(Record<'_>, usize)> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let payload_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let stored_crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if payload_len < PAYLOAD_FIXED || buf.len() < HEADER_LEN + payload_len {
        return None;
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + payload_len];
    if crc32(payload) != stored_crc {
        return None;
    }
    let flags = payload[0];
    if flags & !FLAG_TOMBSTONE != 0 {
        return None;
    }
    let key_len = u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]) as usize;
    if PAYLOAD_FIXED + key_len > payload_len {
        return None;
    }
    let key = &payload[PAYLOAD_FIXED..PAYLOAD_FIXED + key_len];
    let value = &payload[PAYLOAD_FIXED + key_len..];
    Some((
        Record {
            key,
            value,
            tombstone: flags & FLAG_TOMBSTONE != 0,
        },
        HEADER_LEN + payload_len,
    ))
}

/// The result of scanning a segment buffer.
#[derive(Debug)]
pub struct Scan<'a> {
    /// Every intact record with its frame offset and frame length.
    pub records: Vec<(u64, u32, Record<'a>)>,
    /// Bytes of `buf` covered by intact records — everything past this
    /// point is a torn or corrupt tail to quarantine.
    pub valid_len: u64,
}

/// Walk `buf` record by record, stopping at the first frame that fails
/// validation. Records *before* the failure are always preserved; the
/// failing record and everything after it are quarantined, never the
/// other way around.
pub fn scan(buf: &[u8]) -> Scan<'_> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        match decode_record(&buf[at..]) {
            Some((record, frame_len)) => {
                records.push((at as u64, frame_len as u32, record));
                at += frame_len;
            }
            None => break,
        }
    }
    Scan {
        records,
        valid_len: at as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut buf = Vec::new();
        let n = encode_record(b"k1", b"hello", false, &mut buf);
        assert_eq!(n, buf.len());
        let (rec, len) = decode_record(&buf).expect("intact frame");
        assert_eq!(len, n);
        assert_eq!(rec.key, b"k1");
        assert_eq!(rec.value, b"hello");
        assert!(!rec.tombstone);
    }

    #[test]
    fn tombstones_round_trip_with_empty_values() {
        let mut buf = Vec::new();
        encode_record(b"gone", b"", true, &mut buf);
        let (rec, _) = decode_record(&buf).expect("intact frame");
        assert!(rec.tombstone);
        assert!(rec.value.is_empty());
    }

    #[test]
    fn scan_stops_at_torn_tail_keeping_earlier_records() {
        let mut buf = Vec::new();
        encode_record(b"a", b"1", false, &mut buf);
        let keep = buf.len();
        encode_record(b"b", b"2", false, &mut buf);
        // Tear the second record: drop its last byte.
        buf.pop();
        let scan = scan(&buf);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep as u64);
        assert_eq!(scan.records[0].2.key, b"a");
    }

    #[test]
    fn scan_rejects_crc_corruption_mid_buffer() {
        let mut buf = Vec::new();
        encode_record(b"a", b"1", false, &mut buf);
        let first = buf.len();
        encode_record(b"b", b"2", false, &mut buf);
        encode_record(b"c", b"3", false, &mut buf);
        // Flip one value bit inside the second record's payload.
        buf[first + HEADER_LEN + PAYLOAD_FIXED] ^= 0x40;
        let scan = scan(&buf);
        assert_eq!(scan.records.len(), 1, "only the record before the flip");
        assert_eq!(scan.valid_len, first as u64);
    }
}
