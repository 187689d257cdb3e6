//! Test support shared by the trace decode tests and the CLI tests: a
//! trace whose extent footer lies about its counts but still verifies.

use lagalyzer_trace::{faults, IndexedTrace};

/// Unsigned LEB128, the footer's integer encoding.
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Rewrites the extent footer of a rollup-less v2 or v3 trace so that
/// every extent claims `claim` intervals and `claim` samples, and reseals
/// the footer and trailer checksums with the hash the version selects.
pub fn inflate_footer_counts(bytes: &[u8], claim: u64) -> Vec<u8> {
    const MAGIC: &[u8; 8] = b"LGLZIDX\x01";
    let extents = IndexedTrace::open(bytes.to_vec())
        .unwrap()
        .extents()
        .to_vec();
    let payload_end = bytes.len() - 8;
    assert_eq!(&bytes[payload_end - 8..payload_end], MAGIC, "no rollup");
    let footer_len =
        u64::from_le_bytes(bytes[payload_end - 16..payload_end - 8].try_into().unwrap());
    let footer_start = payload_end - footer_len as usize;
    let mut payload = Vec::new();
    push_varint(&mut payload, extents.len() as u64);
    let (mut prev_end, mut prev_start) = (0, 0);
    for e in &extents {
        for field in [
            e.offset - prev_end,
            e.len,
            u64::from(e.id.as_raw()),
            e.start.as_nanos() - prev_start,
            e.duration().as_nanos(),
            claim,
            claim,
            u64::from(e.skips),
        ] {
            push_varint(&mut payload, field);
        }
        prev_end = e.offset + e.len;
        prev_start = e.start.as_nanos();
    }
    let mut out = bytes[..footer_start].to_vec();
    out.extend_from_slice(MAGIC);
    push_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&[0; 8]); // the footer checksum, resealed below
    let total = (out.len() - footer_start) as u64 + 16;
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(MAGIC);
    let footer_end = out.len();
    out.extend_from_slice(&[0; 8]); // the trailer
    faults::reseal(&mut out, Some(footer_end));
    out
}
