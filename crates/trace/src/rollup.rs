//! Persisted per-episode rollup sections: the warm-path analysis cache.
//!
//! A **rollup** is a compact, derived summary of every episode in a trace
//! — its shape token stream (over the session's symbol ids), structural
//! metrics, and a per-category lag decomposition — plus a handful of
//! pre-aggregated views (duration-band × time-bucket grids at two zoom
//! granularities, per-shape duration histograms). With a rollup present,
//! the analyses that normally decode and re-mine every episode can be
//! answered from the summaries alone; only drill-downs (e.g. wait-edge
//! culprit extraction) touch episode payloads, via
//! [`crate::IndexedTrace::par_decode_subset`].
//!
//! Rollups are persisted as *optional* sections:
//!
//! * in a v2 or v3 binary trace, between the extent footer and the trailer
//!   checksum (inside the checksummed region), using the same end-located
//!   framing as the footer so readers peel it from the back;
//! * in a `.lgzc` corpus, as a per-session section of a new kind
//!   (see [`crate::corpus`]); old readers skip unknown section kinds.
//!
//! A rollup is a cache, never a source of truth. It embeds a **content
//! checksum** — a hash of the container region it summarizes, with the
//! hash the container's version byte selects ([`crate::checksum`]): for a
//! `.lgz` trace, the running trailer hash snapshotted at the section
//! boundary (so the reader's single trailer pass validates the cache for
//! free); for a corpus session, the hash of the session payload region —
//! and readers only surface a rollup whose checksum matches the bytes
//! actually present, so a stale or tampered cache silently degrades to
//! the cold decode-and-mine path. The section's own checksum uses the
//! same hash. Any structural damage to the section likewise degrades:
//! either the section is dropped (footer still locatable) or the whole
//! footer region falls back to the established scan path.

use crate::binary::MAX_RECORDS;
use crate::checksum::Algorithm;
use crate::error::TraceError;
use crate::varint;

/// Rollup section signature; the last byte is the section format version.
pub(crate) const ROLLUP_MAGIC: &[u8; 8] = b"LGLZRUP\x01";

/// Fixed section bytes besides the varint payload: leading magic, section
/// checksum, section length, trailing magic (footer-style framing).
const SECTION_FIXED: usize = 8 + 8 + 8 + 8;

/// Number of buckets in a per-shape log2-millisecond duration histogram.
pub const SHAPE_HIST_BUCKETS: usize = 16;

/// Time-bucket counts per duration band at the persisted zoom
/// granularities (coarse overview, fine brush target).
pub const GRID_GRANULARITIES: [u32; 2] = [64, 512];

/// Number of duration bands a grid row covers (matches
/// [`crate::DurationBand`]'s four variants).
pub const GRID_BANDS: usize = 4;

/// Diagnostic classification of a persisted rollup section (see
/// [`crate::index::probe_rollup`] and `lagalyzer lint`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RollupHealth {
    /// No rollup section is present.
    Absent,
    /// A rollup is present and would be trusted by the warm path.
    Valid {
        /// Size of the whole persisted section, framing included.
        section_bytes: u64,
    },
    /// A rollup is present but would be ignored (the reason is attached):
    /// damaged framing/payload or a content checksum that no longer
    /// matches the episode bytes.
    Stale {
        /// Why the section is not trusted.
        reason: String,
        /// Size of the whole persisted section, framing included.
        section_bytes: u64,
    },
}

impl RollupHealth {
    /// One-line human-readable description (used by `lagalyzer lint`).
    pub fn describe(&self) -> String {
        match self {
            RollupHealth::Absent => "absent".into(),
            RollupHealth::Valid { section_bytes } => {
                format!("valid ({section_bytes} bytes)")
            }
            RollupHealth::Stale {
                reason,
                section_bytes,
            } => format!("stale ({reason}; {section_bytes} bytes, ignored)"),
        }
    }
}

impl std::fmt::Display for RollupHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// One episode's derived summary — everything the warm analysis path
/// needs that the extent index does not already carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpisodeSummary {
    /// True when the episode's dispatch interval has no children
    /// (excluded from pattern mining, like the cold path does).
    pub structureless: bool,
    /// True when the episode's tree contains at least one GC interval.
    pub has_gc: bool,
    /// Index into [`Rollup::shapes`] of this episode's token stream.
    pub shape: u32,
    /// Dispatch-descendant count (Table III "Descs" input).
    pub tree_size: u64,
    /// Interval-tree depth (Table III "Depth" input).
    pub tree_depth: u32,
    /// Per-category lag decomposition in nanoseconds, in canonical order:
    /// lock, wait, sleep, gc, io, native, self.
    pub breakdown: [u64; 7],
}

/// A duration-band × time-bucket episode-count grid at one granularity.
///
/// `counts` is band-major: `counts[band * buckets + bucket]`, bands in
/// [`crate::DurationBand`] order (Short never occurs — traced episodes
/// start at the filter threshold — but the row is kept so indices mirror
/// the band enum).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BandGrid {
    /// Number of time buckets across the session's end-to-end span.
    pub buckets: u32,
    /// Episode counts, band-major, `GRID_BANDS * buckets` entries.
    pub counts: Vec<u64>,
}

impl BandGrid {
    /// The count at `band` (0-based, [`crate::DurationBand`] order) and
    /// `bucket`.
    pub fn count(&self, band: usize, bucket: usize) -> u64 {
        self.counts[band * self.buckets as usize + bucket]
    }
}

/// The full rollup of one session's episodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rollup {
    /// The hash of the container region this rollup summarizes — for a
    /// `.lgz` trace the trailer hash's running state at the section start,
    /// for a corpus session the hash of the payload region, with the hash
    /// the container's version selects. Readers recompute it from the
    /// bytes present and drop the rollup on mismatch.
    pub content_checksum: u64,
    /// Deduplicated shape token streams (see
    /// `lagalyzer-core`'s shape module for the grammar), in first-use
    /// order over the session's episodes.
    pub shapes: Vec<Vec<u8>>,
    /// One summary per episode, in extent order (must be 1:1 with the
    /// extent index to be usable).
    pub summaries: Vec<EpisodeSummary>,
    /// Band × time-bucket grids, one per [`GRID_GRANULARITIES`] entry.
    pub grids: Vec<BandGrid>,
    /// Per-shape log2-ms duration histograms, 1:1 with `shapes`.
    pub shape_histograms: Vec<[u64; SHAPE_HIST_BUCKETS]>,
}

impl Rollup {
    /// A rollup the readers trust for `trace`'s episodes, one summary per
    /// episode drawn from its tree and duration; the tests write it where
    /// an analysis would write a real one.
    #[cfg(test)]
    pub(crate) fn placeholder(trace: &lagalyzer_model::SessionTrace) -> Rollup {
        let summary = |episode: &lagalyzer_model::Episode| EpisodeSummary {
            structureless: episode.tree().len() == 1,
            has_gc: false,
            shape: 0,
            tree_size: episode.tree().len() as u64,
            tree_depth: episode.tree().max_depth(),
            breakdown: [0, 0, 0, 0, 0, 0, episode.duration().as_nanos()],
        };
        Rollup {
            content_checksum: 0,
            shapes: vec![b"D".to_vec()],
            summaries: trace.episodes().iter().map(summary).collect(),
            grids: Vec::new(),
            shape_histograms: vec![[1; SHAPE_HIST_BUCKETS]],
        }
    }

    /// The log2-ms histogram bucket a duration falls into.
    pub fn hist_bucket(duration_ns: u64) -> usize {
        let ms = duration_ns / 1_000_000;
        if ms == 0 {
            0
        } else {
            ((64 - ms.leading_zeros()) as usize).min(SHAPE_HIST_BUCKETS - 1)
        }
    }

    /// The time bucket (of `buckets`) an episode starting at `start_ns`
    /// falls into, over a session spanning `span_ns`.
    pub fn time_bucket(start_ns: u64, span_ns: u64, buckets: u32) -> usize {
        let span = span_ns.max(1);
        let idx = (u128::from(start_ns) * u128::from(buckets) / u128::from(span)) as usize;
        idx.min(buckets as usize - 1)
    }

    /// Serializes the rollup payload (everything between the section
    /// magic framing).
    pub(crate) fn encode_payload(&self) -> Result<Vec<u8>, TraceError> {
        let mut out = Vec::with_capacity(64 + self.summaries.len() * 16);
        out.extend_from_slice(&self.content_checksum.to_le_bytes());
        varint::write_u64(&mut out, self.shapes.len() as u64)?;
        for shape in &self.shapes {
            varint::write_u64(&mut out, shape.len() as u64)?;
            out.extend_from_slice(shape);
        }
        varint::write_u64(&mut out, self.summaries.len() as u64)?;
        for s in &self.summaries {
            let flags = u8::from(s.structureless) | (u8::from(s.has_gc) << 1);
            out.push(flags);
            varint::write_u32(&mut out, s.shape)?;
            varint::write_u64(&mut out, s.tree_size)?;
            varint::write_u32(&mut out, s.tree_depth)?;
            for &v in &s.breakdown {
                varint::write_u64(&mut out, v)?;
            }
        }
        varint::write_u64(&mut out, self.grids.len() as u64)?;
        for grid in &self.grids {
            varint::write_u32(&mut out, grid.buckets)?;
            if grid.counts.len() != GRID_BANDS * grid.buckets as usize {
                return Err(TraceError::corrupt("rollup grid", "count/bucket mismatch"));
            }
            for &c in &grid.counts {
                varint::write_u64(&mut out, c)?;
            }
        }
        varint::write_u64(&mut out, self.shape_histograms.len() as u64)?;
        for hist in &self.shape_histograms {
            for &c in hist {
                varint::write_u64(&mut out, c)?;
            }
        }
        Ok(out)
    }

    /// Decodes a rollup payload from `bytes[*pos..end]`, advancing `pos`.
    pub(crate) fn decode_payload(
        bytes: &[u8],
        pos: &mut usize,
        end: usize,
    ) -> Result<Rollup, TraceError> {
        const MAX_SHAPE_LEN: u64 = 1 << 24;
        const MAX_GRIDS: u64 = 8;
        const MAX_BUCKETS: u32 = 1 << 16;
        if *pos + 8 > end {
            return Err(TraceError::corrupt("rollup payload", "truncated checksum"));
        }
        let content_checksum =
            u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().expect("8-byte slice"));
        *pos += 8;
        let shape_count = varint::read_u64_at(bytes, pos, end)?;
        if shape_count > MAX_RECORDS {
            return Err(TraceError::corrupt("rollup shapes", "count exceeds cap"));
        }
        let mut shapes = Vec::with_capacity(shape_count.min(4096) as usize);
        for _ in 0..shape_count {
            let len = varint::read_u64_at(bytes, pos, end)?;
            if len > MAX_SHAPE_LEN || *pos + len as usize > end {
                return Err(TraceError::corrupt("rollup shapes", "shape length"));
            }
            shapes.push(bytes[*pos..*pos + len as usize].to_vec());
            *pos += len as usize;
        }
        let summary_count = varint::read_u64_at(bytes, pos, end)?;
        if summary_count > MAX_RECORDS {
            return Err(TraceError::corrupt("rollup summaries", "count exceeds cap"));
        }
        let mut summaries = Vec::with_capacity(summary_count.min(4096) as usize);
        for _ in 0..summary_count {
            if *pos >= end {
                return Err(TraceError::corrupt("rollup summaries", "truncated"));
            }
            let flags = bytes[*pos];
            *pos += 1;
            if flags & !0b11 != 0 {
                return Err(TraceError::corrupt(
                    "rollup summaries",
                    format!("unknown flags {flags:#04x}"),
                ));
            }
            let shape = varint::read_u32_at(bytes, pos, end)?;
            if u64::from(shape) >= shape_count {
                return Err(TraceError::corrupt(
                    "rollup summaries",
                    "shape index out of range",
                ));
            }
            let tree_size = varint::read_u64_at(bytes, pos, end)?;
            let tree_depth = varint::read_u32_at(bytes, pos, end)?;
            let mut breakdown = [0u64; 7];
            for slot in &mut breakdown {
                *slot = varint::read_u64_at(bytes, pos, end)?;
            }
            summaries.push(EpisodeSummary {
                structureless: flags & 1 != 0,
                has_gc: flags & 2 != 0,
                shape,
                tree_size,
                tree_depth,
                breakdown,
            });
        }
        let grid_count = varint::read_u64_at(bytes, pos, end)?;
        if grid_count > MAX_GRIDS {
            return Err(TraceError::corrupt("rollup grids", "count exceeds cap"));
        }
        let mut grids = Vec::with_capacity(grid_count as usize);
        for _ in 0..grid_count {
            let buckets = varint::read_u32_at(bytes, pos, end)?;
            if buckets == 0 || buckets > MAX_BUCKETS {
                return Err(TraceError::corrupt("rollup grids", "bucket count"));
            }
            let mut counts = Vec::with_capacity(GRID_BANDS * buckets as usize);
            for _ in 0..GRID_BANDS * buckets as usize {
                counts.push(varint::read_u64_at(bytes, pos, end)?);
            }
            grids.push(BandGrid { buckets, counts });
        }
        let hist_count = varint::read_u64_at(bytes, pos, end)?;
        if hist_count != shape_count {
            return Err(TraceError::corrupt(
                "rollup histograms",
                "histogram/shape count mismatch",
            ));
        }
        let mut shape_histograms = Vec::with_capacity(hist_count.min(4096) as usize);
        for _ in 0..hist_count {
            let mut hist = [0u64; SHAPE_HIST_BUCKETS];
            for slot in &mut hist {
                *slot = varint::read_u64_at(bytes, pos, end)?;
            }
            shape_histograms.push(hist);
        }
        Ok(Rollup {
            content_checksum,
            shapes,
            summaries,
            grids,
            shape_histograms,
        })
    }
}

/// Encodes the full rollup section (leading magic through trailing magic),
/// mirroring the footer's end-located framing so readers peel it from the
/// back of the checksummed region; the section checksum is the trace
/// version's `algorithm`.
pub(crate) fn encode_section(rollup: &Rollup, algorithm: Algorithm) -> Result<Vec<u8>, TraceError> {
    let payload = rollup.encode_payload()?;
    let mut section = Vec::with_capacity(payload.len() + SECTION_FIXED + 4);
    section.extend_from_slice(ROLLUP_MAGIC);
    varint::write_u64(&mut section, payload.len() as u64)?;
    section.extend_from_slice(&payload);
    let checksum = algorithm.hash(&section);
    section.extend_from_slice(&checksum.to_le_bytes());
    let total = section.len() as u64 + 16;
    section.extend_from_slice(&total.to_le_bytes());
    section.extend_from_slice(ROLLUP_MAGIC);
    Ok(section)
}

/// The outcome of peeling an optional rollup section off the back of a
/// region ending at `payload_end`.
pub(crate) struct PeeledRollup {
    /// Where the region ends once the section (if any) is removed — the
    /// position footer location proceeds from.
    pub end: usize,
    /// The decoded section: `None` when no section is present, `Some(Err)`
    /// when one is present but unusable (dropped; reason attached).
    pub rollup: Option<Result<Rollup, String>>,
}

/// Locates a plausibly-framed rollup section at the back of
/// `bytes[..payload_end]` without touching its checksum or payload,
/// returning the section's start offset. The boundary is needed *before*
/// the trailer pass so the running trailer hash can be snapshotted at the
/// section start — that snapshot is the content checksum a trace rollup
/// must match (see `crate::binary::write_with_rollup`).
pub(crate) fn pre_locate(bytes: &[u8], payload_end: usize) -> Option<usize> {
    if payload_end < SECTION_FIXED + 1 || payload_end > bytes.len() {
        return None;
    }
    if &bytes[payload_end - 8..payload_end] != ROLLUP_MAGIC {
        return None;
    }
    let total = u64::from_le_bytes(
        bytes[payload_end - 16..payload_end - 8]
            .try_into()
            .expect("8-byte slice"),
    );
    if total < (SECTION_FIXED + 1) as u64 || total > payload_end as u64 {
        return None;
    }
    let section_start = payload_end - total as usize;
    if &bytes[section_start..section_start + 8] != ROLLUP_MAGIC {
        return None;
    }
    Some(section_start)
}

/// Peels an optional rollup section from `bytes[..payload_end]`, verifying
/// its checksum with the trace version's `algorithm`.
///
/// When the trailing 8 bytes are not the rollup magic there is no section
/// and `end` is unchanged. When the framing parses but the checksum or
/// payload is bad, `end` still moves past the section (the footer below
/// remains locatable) and the rollup is reported unusable. When even the
/// framing is unreadable, `end` is unchanged — footer location will then
/// fail on the rollup magic and the caller falls back to the record scan,
/// which ignores all trailing bytes.
pub(crate) fn peel(bytes: &[u8], payload_end: usize, algorithm: Algorithm) -> PeeledRollup {
    let Some(section_start) = pre_locate(bytes, payload_end) else {
        return PeeledRollup {
            end: payload_end,
            rollup: None,
        };
    };
    let checked_end = payload_end - 24;
    let stored = u64::from_le_bytes(
        bytes[checked_end..checked_end + 8]
            .try_into()
            .expect("8-byte slice"),
    );
    let computed = algorithm.hash(&bytes[section_start..checked_end]);
    if stored != computed {
        return PeeledRollup {
            end: section_start,
            rollup: Some(Err("rollup section checksum mismatch".into())),
        };
    }
    let mut pos = section_start + 8;
    let payload_len = match varint::read_u64_at(bytes, &mut pos, checked_end) {
        Ok(len) => len,
        Err(e) => {
            return PeeledRollup {
                end: section_start,
                rollup: Some(Err(format!("bad rollup payload length: {e}"))),
            }
        }
    };
    if pos + payload_len as usize != checked_end {
        return PeeledRollup {
            end: section_start,
            rollup: Some(Err(
                "rollup payload length disagrees with section length".into()
            )),
        };
    }
    let decoded = Rollup::decode_payload(bytes, &mut pos, checked_end);
    let rollup = match decoded {
        Ok(rollup) if pos == checked_end => Ok(rollup),
        Ok(_) => Err("trailing bytes after the rollup payload".into()),
        Err(e) => Err(format!("bad rollup payload: {e}")),
    };
    PeeledRollup {
        end: section_start,
        rollup: Some(rollup),
    }
}

/// Judges a peeled section once the extent footer below it has been
/// located (`footer` is its extent count, or why it is unusable): the
/// rollup to trust, if any, and the section's health. `expected` computes
/// the content checksum a trusted rollup must carry; it is called only
/// when the section decoded and the footer is usable. The one verdict
/// behind both [`crate::IndexedTrace::rollup_health`] and
/// [`crate::probe_rollup`].
pub(crate) fn judge(
    peeled: PeeledRollup,
    payload_end: usize,
    footer: Result<usize, &str>,
    expected: impl FnOnce() -> u64,
) -> (Option<Rollup>, RollupHealth) {
    let section_bytes = (payload_end - peeled.end) as u64;
    let stale = |reason: String| RollupHealth::Stale {
        reason,
        section_bytes,
    };
    match (peeled.rollup, footer) {
        (None, _) => (None, RollupHealth::Absent),
        (Some(Err(reason)), _) => (None, stale(reason)),
        (Some(Ok(_)), Err(reason)) => (None, stale(format!("extent footer unusable ({reason})"))),
        (Some(Ok(rollup)), Ok(extents)) => match validate(rollup, expected(), extents) {
            Some(rollup) => (Some(rollup), RollupHealth::Valid { section_bytes }),
            None => (None, stale("content checksum mismatch".into())),
        },
    }
}

/// Validates a decoded rollup against the bytes actually present:
/// the summary table must be 1:1 with the extent index and the content
/// checksum must equal `expected`, the hash of the region it summarizes:
/// for a `.lgz` trace `bytes[8..section_start]` (the trailer hash's
/// running state at the section boundary, which `IndexedTrace::open`
/// snapshots from its single trailer pass), for a corpus session the
/// payload region (the concatenation of its episode extent spans).
/// Returns `None` (cache miss) on any mismatch.
pub fn validate(rollup: Rollup, expected: u64, extent_count: usize) -> Option<Rollup> {
    if rollup.summaries.len() != extent_count {
        return None;
    }
    if rollup.shape_histograms.len() != rollup.shapes.len() {
        return None;
    }
    if rollup.content_checksum != expected {
        return None;
    }
    Some(rollup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rollup() -> Rollup {
        Rollup {
            content_checksum: 0xdead_beef,
            shapes: vec![b"D".to_vec(), b"D[L]".to_vec()],
            summaries: vec![
                EpisodeSummary {
                    structureless: true,
                    has_gc: false,
                    shape: 0,
                    tree_size: 0,
                    tree_depth: 0,
                    breakdown: [0, 1, 2, 3, 4, 5, 6],
                },
                EpisodeSummary {
                    structureless: false,
                    has_gc: true,
                    shape: 1,
                    tree_size: 3,
                    tree_depth: 2,
                    breakdown: [7; 7],
                },
            ],
            grids: GRID_GRANULARITIES
                .iter()
                .map(|&buckets| BandGrid {
                    buckets,
                    counts: vec![0; GRID_BANDS * buckets as usize],
                })
                .collect(),
            shape_histograms: vec![[0; SHAPE_HIST_BUCKETS], [1; SHAPE_HIST_BUCKETS]],
        }
    }

    #[test]
    fn payload_round_trips() {
        let rollup = sample_rollup();
        let payload = rollup.encode_payload().unwrap();
        let mut pos = 0;
        let back = Rollup::decode_payload(&payload, &mut pos, payload.len()).unwrap();
        assert_eq!(pos, payload.len());
        assert_eq!(back, rollup);
    }

    #[test]
    fn section_round_trips_via_peel() {
        let rollup = sample_rollup();
        let mut region = b"prefix-bytes".to_vec();
        region.extend_from_slice(&encode_section(&rollup, Algorithm::Lane4).unwrap());
        let peeled = peel(&region, region.len(), Algorithm::Lane4);
        assert_eq!(peeled.end, "prefix-bytes".len());
        assert_eq!(peeled.rollup.unwrap().unwrap(), rollup);
    }

    #[test]
    fn peel_reports_absent_without_magic() {
        let region = vec![0u8; 64];
        let peeled = peel(&region, region.len(), Algorithm::Lane4);
        assert_eq!(peeled.end, region.len());
        assert!(peeled.rollup.is_none());
    }

    #[test]
    fn corrupt_section_checksum_is_dropped_but_peeled() {
        let rollup = sample_rollup();
        for algorithm in [Algorithm::Fnv1a, Algorithm::Lane4] {
            let section = encode_section(&rollup, algorithm).unwrap();
            let mut region = b"pre".to_vec();
            let flip_at = region.len() + 12;
            region.extend_from_slice(&section);
            assert!(peel(&region, region.len(), algorithm)
                .rollup
                .unwrap()
                .is_ok());
            region[flip_at] ^= 0xff;
            let peeled = peel(&region, region.len(), algorithm);
            assert_eq!(peeled.end, 3, "footer region below must stay locatable");
            assert!(peeled.rollup.unwrap().is_err());
        }
    }

    #[test]
    fn summary_shape_index_validated() {
        let mut rollup = sample_rollup();
        rollup.summaries[1].shape = 9;
        let payload = rollup.encode_payload().unwrap();
        let mut pos = 0;
        assert!(Rollup::decode_payload(&payload, &mut pos, payload.len()).is_err());
    }

    #[test]
    fn validate_rejects_stale_checksum_and_count_mismatch() {
        let expected = Algorithm::Lane4.hash(b"0123456789");
        let mut rollup = sample_rollup();
        rollup.summaries.truncate(1);
        rollup.content_checksum = expected;
        assert!(validate(rollup.clone(), expected, 1).is_some());
        let mut stale = rollup.clone();
        stale.content_checksum ^= 1;
        assert!(validate(stale, expected, 1).is_none());
        let mut mismatched = rollup;
        mismatched.summaries.clear();
        assert!(validate(mismatched, expected, 1).is_none());
    }

    #[test]
    fn hist_and_time_buckets_stay_in_range() {
        assert_eq!(Rollup::hist_bucket(0), 0);
        assert_eq!(Rollup::hist_bucket(1_000_000), 1);
        assert_eq!(Rollup::hist_bucket(u64::MAX), SHAPE_HIST_BUCKETS - 1);
        assert_eq!(Rollup::time_bucket(0, 100, 64), 0);
        assert_eq!(Rollup::time_bucket(99, 100, 64), 63);
        assert_eq!(Rollup::time_bucket(500, 100, 64), 63, "clamped past span");
        assert_eq!(Rollup::time_bucket(0, 0, 64), 0, "zero span is safe");
    }
}
