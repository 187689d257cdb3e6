//! Deterministic fault injection for trace bytes.
//!
//! Test infrastructure for the salvage decoder: takes a well-formed
//! binary trace and produces a damaged variant of it — truncation, bit
//! flips, whole-record deletion or duplication, and length-field
//! inflation — without recomputing the trailer checksum, exactly like
//! real-world damage.
//!
//! Damage that a tool wrote back under fresh checksums is modelled by
//! [`reseal`], which recomputes the trailer (and a section's own checksum)
//! over whatever the bytes now hold, with the hash the file's version
//! byte selects ([`crate::checksum`]), by [`miscount`], a declared
//! record count off by one under a resealed trailer, and by
//! [`break_lz_payload`], a corpus member's LZ payload section that no
//! longer decompresses under a resealed trailer; [`with_version`]
//! re-stamps a clean trace as format v2 or v3, so every resealed-damage
//! test runs on both hashes.
//!
//! # Determinism contract
//!
//! A [`FaultInjector`] is a pure function of its seed. The same seed
//! applied to the same input bytes yields the same sequence of
//! [`Fault`]s — and therefore byte-identical corrupted outputs — on
//! every run and every platform: the generator is an inline SplitMix64
//! (no external RNG, no global state, no time or pointer entropy), and
//! [`Fault::apply`] is a pure function of `(bytes, fault)`. A failing
//! test case is reproduced by re-running with the logged seed, or by
//! applying the logged `Fault` value directly.

use crate::checksum::Algorithm;
use crate::corpus::{lz, CorpusReader};
use crate::varint;

/// One way of damaging a byte stream. Produced by [`FaultInjector`],
/// applied by [`Fault::apply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Cut the input off at byte `at` (simulates a write that died).
    Truncate {
        /// Length of the surviving prefix.
        at: usize,
    },
    /// XOR bit `bit` of the byte at `offset` (simulates bit rot).
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: usize,
        /// Bit index 0..8 within that byte.
        bit: u8,
    },
    /// Remove the `index`-th record's bytes, leaving the declared count
    /// and the checksum stale.
    DeleteRecord {
        /// Index into the record region.
        index: usize,
    },
    /// Repeat the `index`-th record's bytes immediately after itself.
    DuplicateRecord {
        /// Index into the record region.
        index: usize,
    },
    /// Rewrite the declared record count to an absurd value.
    InflateCount,
    /// Inflate the string-length prefix inside the `index`-th record
    /// (which must be a symbol record) to claim far more bytes than the
    /// input holds.
    InflateLength {
        /// Index (into the record region) of a symbol record.
        index: usize,
    },
}

impl Fault {
    /// Applies this fault to `bytes`, returning the damaged copy.
    ///
    /// Structure-dependent faults (record deletion/duplication, length
    /// inflation) fall back to returning the input unchanged when the
    /// bytes are not a well-formed binary trace — the injector only
    /// proposes them for inputs where they apply.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match *self {
            Fault::Truncate { at } => bytes[..at.min(bytes.len())].to_vec(),
            Fault::BitFlip { offset, bit } => {
                let mut out = bytes.to_vec();
                if let Some(b) = out.get_mut(offset) {
                    *b ^= 1 << (bit % 8);
                }
                out
            }
            Fault::DeleteRecord { index } => match layout(bytes) {
                Some(l) if index < l.records.len() => {
                    let (start, end) = l.records[index];
                    let mut out = Vec::with_capacity(bytes.len() - (end - start));
                    out.extend_from_slice(&bytes[..start]);
                    out.extend_from_slice(&bytes[end..]);
                    out
                }
                _ => bytes.to_vec(),
            },
            Fault::DuplicateRecord { index } => match layout(bytes) {
                Some(l) if index < l.records.len() => {
                    let (start, end) = l.records[index];
                    let mut out = Vec::with_capacity(bytes.len() + (end - start));
                    out.extend_from_slice(&bytes[..end]);
                    out.extend_from_slice(&bytes[start..end]);
                    out.extend_from_slice(&bytes[end..]);
                    out
                }
                _ => bytes.to_vec(),
            },
            Fault::InflateCount => match layout(bytes) {
                Some(l) => {
                    let (start, end) = l.count_span;
                    // Beyond the decoder's record-count cap of 2^32.
                    splice(bytes, start, end, &encode_varint(1 << 33))
                }
                None => bytes.to_vec(),
            },
            Fault::InflateLength { index } => match layout(bytes)
                .and_then(|l| l.records.get(index).copied())
                .and_then(|span| symbol_length_span(bytes, span))
            {
                // Claim far more than the string cap (2^20) so a decoder
                // that trusted the prefix would try a huge allocation.
                Some((start, end)) => splice(bytes, start, end, &encode_varint(1 << 30)),
                None => bytes.to_vec(),
            },
        }
    }
}

/// Seeded, deterministic source of [`Fault`]s (see the module docs for
/// the determinism contract).
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector; equal seeds give equal fault sequences.
    pub fn new(seed: u64) -> Self {
        FaultInjector { state: seed }
    }

    /// SplitMix64 step.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    /// Picks a fault applicable to `bytes`. Structure-dependent faults
    /// are only proposed when the input parses as a binary trace with
    /// the required records.
    pub fn choose(&mut self, bytes: &[u8]) -> Fault {
        let l = layout(bytes);
        let records = l.as_ref().map_or(0, |l| l.records.len());
        let symbols: Vec<usize> = l
            .as_ref()
            .map(|l| {
                l.records
                    .iter()
                    .enumerate()
                    .filter(|(_, &(start, _))| bytes[start] == 1)
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default();

        let mut kinds: Vec<u8> = vec![0, 1];
        if records > 0 {
            kinds.extend([2, 3]);
        }
        if l.is_some() {
            kinds.push(4);
        }
        if !symbols.is_empty() {
            kinds.push(5);
        }
        match kinds[self.below(kinds.len() as u64) as usize] {
            0 => Fault::Truncate {
                at: self.below(bytes.len().max(1) as u64) as usize,
            },
            1 => Fault::BitFlip {
                offset: self.below(bytes.len().max(1) as u64) as usize,
                bit: self.below(8) as u8,
            },
            2 => Fault::DeleteRecord {
                index: self.below(records as u64) as usize,
            },
            3 => Fault::DuplicateRecord {
                index: self.below(records as u64) as usize,
            },
            4 => Fault::InflateCount,
            _ => Fault::InflateLength {
                index: symbols[self.below(symbols.len() as u64) as usize],
            },
        }
    }

    /// Picks and applies one fault: `(damaged bytes, the fault)`.
    pub fn inject(&mut self, bytes: &[u8]) -> (Vec<u8>, Fault) {
        let fault = self.choose(bytes);
        (fault.apply(bytes), fault)
    }
}

/// Reseals a binary trace or corpus over whatever its bytes now hold, with
/// the hash its version byte selects, so damage inside the checksummed
/// regions no longer fails their checks: first, when `section_end` names
/// one, the own checksum of the end-framed `.lgz` section (the extent
/// footer or the rollup section) whose trailing magic ends at that byte;
/// then the trailer over everything between the 8-byte magic and the
/// 8-byte trailer. Inputs shorter than 16 bytes or without a binary
/// signature are left as they are.
///
/// # Panics
///
/// When `section_end` is given and no section frame ends there.
pub fn reseal(bytes: &mut [u8], section_end: Option<usize>) {
    let n = bytes.len();
    let Some(algorithm) = Algorithm::of_file(bytes).filter(|_| n >= 16) else {
        return;
    };
    if let Some(end) = section_end {
        let total = u64::from_le_bytes(bytes[end - 16..end - 8].try_into().expect("8-byte slice"));
        let start = end
            .checked_sub(total as usize)
            .expect("a section frame ends at `section_end`");
        let checked_end = end - 24;
        let sum = algorithm.hash(&bytes[start..checked_end]);
        bytes[checked_end..checked_end + 8].copy_from_slice(&sum.to_le_bytes());
    }
    let sum = algorithm.hash(&bytes[8..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// Flips one byte of corpus member `session`'s LZ payload section, the
/// first byte whose flip leaves a section that does not decompress, and
/// reseals the corpus trailer: the corpus still opens, and every decode of
/// that member fails. `None` when `bytes` is not a corpus that opens, has
/// no member `session`, or stores that member's payload raw.
pub fn break_lz_payload(bytes: &[u8], session: usize) -> Option<Vec<u8>> {
    let reader = CorpusReader::open(bytes.to_vec()).ok()?;
    let (stored, raw_len) = reader.lz_payload_section(session)?;
    let mut damaged = bytes.to_vec();
    stored.clone().find(|&at| {
        damaged[at] ^= 0x40;
        let broken = lz::decompress(&damaged[stored.clone()], raw_len).is_err();
        if !broken {
            damaged[at] ^= 0x40;
        }
        broken
    })?;
    reseal(&mut damaged, None);
    Some(damaged)
}

/// Rewrites the declared record count of a well-formed binary trace one
/// higher (`up`) or one lower, in a varint of the same width, and reseals
/// the trailer: every record and the extent footer stay intact, yet the
/// records no longer add up to the count. `None` when the bytes are not a
/// well-formed trace or the new count needs another width.
pub fn miscount(bytes: &[u8], up: bool) -> Option<Vec<u8>> {
    let (start, end) = layout(bytes)?.count_span;
    let count = varint::read_u64(&mut &bytes[start..end]).ok()?;
    let count = if up { count + 1 } else { count.checked_sub(1)? };
    let encoded = encode_varint(count);
    (encoded.len() == end - start).then(|| {
        let mut out = splice(bytes, start, end, &encoded);
        reseal(&mut out, None);
        out
    })
}

/// Re-stamps a clean v2 or v3 `.lgz` trace as format `version` (2 or 3).
/// The two layouts are identical byte for byte, so this rewrites the
/// version byte and recomputes every checksum with the hash the new
/// version selects: the extent footer's, the rollup section's content and
/// own checksums, and the trailer. The writers produce only v3; this is
/// how the tests get the v2 encoding of the same session.
///
/// # Panics
///
/// When `version` is not 2 or 3, or `bytes` is not a v2 or v3 trace.
pub fn with_version(bytes: &[u8], version: u8) -> Vec<u8> {
    assert!(matches!(version, 2 | 3), "v{version} has another layout");
    assert!(
        bytes.len() >= 16
            && bytes.starts_with(crate::binary::MAGIC_PREFIX)
            && matches!(bytes[7], 2 | 3),
        "not a v2 or v3 trace"
    );
    let mut out = bytes.to_vec();
    out[7] = version;
    let payload_end = out.len() - 8;
    let rollup_start = crate::rollup::pre_locate(&out, payload_end);
    reseal(&mut out, Some(rollup_start.unwrap_or(payload_end)));
    if let Some(start) = rollup_start {
        // The rollup payload opens with the content checksum, right after
        // the section magic and the payload length.
        let mut at = start + 8;
        varint::read_u64_at(&out, &mut at, payload_end).expect("rollup payload length");
        let content = Algorithm::of_trace_version(version).hash(&out[8..start]);
        out[at..at + 8].copy_from_slice(&content.to_le_bytes());
        reseal(&mut out, Some(payload_end));
    }
    out
}

/// Byte spans of the structural parts of a well-formed binary trace.
struct Layout {
    /// Span of the record-count varint.
    count_span: (usize, usize),
    /// Span of each record (tag byte through end of payload).
    records: Vec<(usize, usize)>,
}

/// Parses the structure of a well-formed binary trace; `None` when the
/// bytes are not one (the injector then restricts itself to byte-level
/// faults).
fn layout(bytes: &[u8]) -> Option<Layout> {
    if bytes.len() < 16 || !bytes.starts_with(b"LGLZTRC") {
        return None;
    }
    let payload = &bytes[..bytes.len() - 8];
    let mut r = &payload[8..];
    crate::binary::read_header(&mut r).ok()?;
    let count_start = payload.len() - r.len();
    let count = varint::read_u64(&mut r).ok()?;
    let count_end = payload.len() - r.len();
    if count > 1 << 20 {
        return None;
    }
    let mut records = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let start = payload.len() - r.len();
        crate::binary::read_record(&mut r).ok()?;
        records.push((start, payload.len() - r.len()));
    }
    Some(Layout {
        count_span: (count_start, count_end),
        records,
    })
}

/// Span of the string-length varint inside a symbol record at `span`.
fn symbol_length_span(bytes: &[u8], span: (usize, usize)) -> Option<(usize, usize)> {
    let (start, end) = span;
    if bytes.get(start) != Some(&1) {
        return None;
    }
    let body = &bytes[start + 1..end];
    let mut r = body;
    varint::read_u32(&mut r).ok()?; // symbol id
    let len_start = start + 1 + (body.len() - r.len());
    let before = r.len();
    varint::read_u64(&mut r).ok()?; // string length
    let len_end = len_start + (before - r.len());
    Some((len_start, len_end))
}

fn encode_varint(v: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    varint::write_u64(&mut buf, v).expect("writing to a Vec cannot fail");
    buf
}

/// Replaces `bytes[start..end]` with `replacement`.
fn splice(bytes: &[u8], start: usize, end: usize, replacement: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() - (end - start) + replacement.len());
    out.extend_from_slice(&bytes[..start]);
    out.extend_from_slice(replacement);
    out.extend_from_slice(&bytes[end..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_model::prelude::*;

    fn fixture_bytes() -> Vec<u8> {
        let meta = SessionMeta {
            application: "Faults".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(5),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let m = b.symbols_mut().method("app.Main", "run");
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, TimeNs::ZERO).unwrap();
        t.leaf(
            IntervalKind::Listener,
            Some(m),
            TimeNs::from_millis(1),
            TimeNs::from_millis(9),
        )
        .unwrap();
        t.exit(TimeNs::from_millis(10)).unwrap();
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        let trace = b.finish();
        let mut bytes = Vec::new();
        crate::binary::write(&trace, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn same_seed_same_faults() {
        let bytes = fixture_bytes();
        let run = |seed| {
            let mut inj = FaultInjector::new(seed);
            (0..32).map(|_| inj.inject(&bytes)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn delete_and_duplicate_change_length_by_record_size() {
        let bytes = fixture_bytes();
        let l = layout(&bytes).unwrap();
        assert!(!l.records.is_empty());
        let (start, end) = l.records[0];
        let deleted = Fault::DeleteRecord { index: 0 }.apply(&bytes);
        assert_eq!(deleted.len(), bytes.len() - (end - start));
        let duplicated = Fault::DuplicateRecord { index: 0 }.apply(&bytes);
        assert_eq!(duplicated.len(), bytes.len() + (end - start));
    }

    #[test]
    fn inflate_length_targets_a_symbol_record() {
        let bytes = fixture_bytes();
        let l = layout(&bytes).unwrap();
        let sym = l
            .records
            .iter()
            .position(|&(start, _)| bytes[start] == 1)
            .unwrap();
        let inflated = Fault::InflateLength { index: sym }.apply(&bytes);
        assert_ne!(inflated, bytes);
        // Strict decode must reject it without a huge allocation.
        assert!(crate::binary::read(inflated.as_slice()).is_err());
    }

    #[test]
    fn structural_faults_degrade_gracefully_on_garbage() {
        let garbage = b"not a trace at all".to_vec();
        for fault in [
            Fault::DeleteRecord { index: 0 },
            Fault::DuplicateRecord { index: 3 },
            Fault::InflateCount,
            Fault::InflateLength { index: 0 },
        ] {
            assert_eq!(fault.apply(&garbage), garbage);
        }
    }

    #[test]
    fn injected_faults_never_panic_salvage() {
        let bytes = fixture_bytes();
        let mut inj = FaultInjector::new(7);
        for _ in 0..256 {
            let (damaged, _fault) = inj.inject(&bytes);
            // Must return (Ok or Err), never panic.
            let _ = crate::salvage::read_bytes_salvage(&damaged);
        }
    }
}
