//! Episode extent index and zero-copy parallel decode.
//!
//! The binary codec streams records strictly sequentially, so even though
//! the analyses shard across cores, ingest was a serial bottleneck. This
//! module makes the record region *indexable*: an [`EpisodeExtent`] table
//! maps every episode to the byte range of its records plus enough
//! metadata (id, start/end timestamp, interval/sample counts) to answer
//! duration-band and time-window queries without touching the episode's
//! bytes at all.
//!
//! The table is carried in a checksummed **footer** that v2 and v3 binary
//! traces append between the last record and the trailer (see the layout
//! in [`crate::binary`]). For legacy v1 traces — or a v2 trace whose footer
//! is damaged — the same table is reconstructed by a single cheap scan
//! that skims record boundaries without materializing episode bodies.
//! Salvage mode rebuilds the table with the one salvage scan (the one
//! [`binary::read_salvage`](crate::binary::read_salvage) runs), recording
//! per-extent how many skips preceded each recovered episode.
//!
//! [`IndexedTrace`] ties it together: it owns the raw bytes, borrows
//! episode payloads zero-copy by extent, decodes single episodes on
//! demand ([`IndexedTrace::decode_episode`]), and fans whole-session
//! decoding out over the worker pool ([`IndexedTrace::par_decode`]),
//! producing a [`SessionTrace`] identical to the one the serial reference
//! decoder [`binary::read`](crate::binary::read) returns. An
//! [`EpisodeFilter`] evaluated against index entries alone implements
//! skip-decode filtering: excluded episodes' bytes are never parsed.

use std::sync::OnceLock;

use lagalyzer_model::{
    DurationNs, Episode, EpisodeId, GcEvent, IntervalKind, IntervalTreeBuilder, MethodRef, Samples,
    SessionMeta, SessionTrace, SessionTraceBuilder, StackFrame, SymbolId, SymbolTable, ThreadId,
    ThreadState, TimeNs,
};

use crate::binary::{is_known_version, read_header, read_record, tag, MAGIC_PREFIX, MAX_RECORDS};
use crate::checksum::Algorithm;
use crate::corpus::PayloadBuffer;
use crate::error::TraceError;
use crate::record::SessionRecords;
use crate::rollup::RollupHealth;
use crate::salvage::SalvageReport;
use crate::source::{Payload, RollupRef, SessionSource};
use crate::varint;

/// Footer signature; the last byte is the footer format version.
pub(crate) const FOOTER_MAGIC: &[u8; 8] = b"LGLZIDX\x01";

/// Fixed footer bytes besides the varint payload: leading magic, footer
/// checksum, footer length, trailing magic.
const FOOTER_FIXED: usize = 8 + 8 + 8 + 8;

/// Coarse duration classification used by skip-decode filtering.
///
/// The band boundaries follow the paper's vocabulary: episodes under the
/// tracer-side filter threshold (3 ms) are *short*, episodes beyond the
/// perceptibility threshold (100 ms) are *perceptible*, and anything past
/// one second is *severe* lag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DurationBand {
    /// Under the tracer-side filter threshold (3 ms).
    Short,
    /// Traced but below the perceptibility threshold (3 ms – 100 ms).
    Brief,
    /// Perceptible lag (100 ms – 1 s).
    Perceptible,
    /// Severe lag (1 s and beyond).
    Severe,
}

impl DurationBand {
    /// Nanoseconds where severe lag begins.
    const SEVERE_NS: u64 = 1_000_000_000;

    /// Classifies a duration into its band.
    pub const fn of(duration: DurationNs) -> DurationBand {
        let ns = duration.as_nanos();
        if ns < DurationNs::TRACE_FILTER_DEFAULT.as_nanos() {
            DurationBand::Short
        } else if ns < DurationNs::PERCEPTIBLE_DEFAULT.as_nanos() {
            DurationBand::Brief
        } else if ns < Self::SEVERE_NS {
            DurationBand::Perceptible
        } else {
            DurationBand::Severe
        }
    }
}

/// One episode's entry in the extent index: where its records live and
/// what a filter needs to know without decoding them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpisodeExtent {
    /// Absolute byte offset of the episode's begin record.
    pub offset: u64,
    /// Byte length of the episode's record span (begin through end).
    pub len: u64,
    /// The episode id.
    pub id: EpisodeId,
    /// Dispatch timestamp (root interval start).
    pub start: TimeNs,
    /// Completion timestamp (root interval end).
    pub end: TimeNs,
    /// Interval-tree node count (saturated to `u32`).
    pub intervals: u32,
    /// Stack-sample count (saturated to `u32`).
    pub samples: u32,
    /// Salvage skips attributed to this extent: damage regions stepped
    /// over since the previous recovered episode. Always 0 on a clean
    /// trace.
    pub skips: u32,
}

impl EpisodeExtent {
    /// The extent of `episode`, whose records span `len` bytes at
    /// `offset`: its id, start, end and counts come from the episode
    /// itself, with no skips.
    pub(crate) fn of_episode(episode: &Episode, offset: u64, len: u64) -> EpisodeExtent {
        EpisodeExtent {
            offset,
            len,
            id: episode.id(),
            start: episode.start(),
            end: episode.end(),
            intervals: episode.tree().len().min(u32::MAX as usize) as u32,
            samples: episode.samples().len().min(u32::MAX as usize) as u32,
            skips: 0,
        }
    }

    /// The episode duration derivable from the indexed timestamps.
    pub fn duration(&self) -> DurationNs {
        self.end.saturating_since(self.start)
    }

    /// The duration band this episode falls into.
    pub fn band(&self) -> DurationBand {
        DurationBand::of(self.duration())
    }
}

/// A predicate over index entries: which episodes are worth decoding.
///
/// Both conditions must hold (an unset condition always holds). The
/// time window admits episodes that *overlap* the window, matching how a
/// user brushes a session timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpisodeFilter {
    min_duration: Option<DurationNs>,
    window: Option<(TimeNs, TimeNs)>,
}

impl EpisodeFilter {
    /// A filter that admits everything.
    pub fn new() -> EpisodeFilter {
        EpisodeFilter::default()
    }

    /// Requires at least this duration; combined with an earlier minimum
    /// the stricter one wins.
    #[must_use]
    pub fn min_duration(mut self, min: DurationNs) -> EpisodeFilter {
        self.min_duration = Some(match self.min_duration {
            Some(existing) => existing.max(min),
            None => min,
        });
        self
    }

    /// Requires overlap with the session-time window `[from, until]`.
    #[must_use]
    pub fn window(mut self, from: TimeNs, until: TimeNs) -> EpisodeFilter {
        self.window = Some((from, until));
        self
    }

    /// `true` when no condition is set (every episode is admitted).
    pub fn is_unrestricted(&self) -> bool {
        self.min_duration.is_none() && self.window.is_none()
    }

    /// Evaluates the filter against an episode's timestamps alone.
    pub fn admits(&self, start: TimeNs, end: TimeNs) -> bool {
        if let Some(min) = self.min_duration {
            if end.saturating_since(start) < min {
                return false;
            }
        }
        if let Some((from, until)) = self.window {
            if end < from || start > until {
                return false;
            }
        }
        true
    }

    /// Evaluates the filter against an index entry (no decoding).
    pub fn admits_extent(&self, extent: &EpisodeExtent) -> bool {
        self.admits(extent.start, extent.end)
    }

    /// Evaluates the filter against a decoded episode.
    pub fn admits_episode(&self, episode: &Episode) -> bool {
        self.admits(episode.start(), episode.end())
    }

    /// Rebuilds `trace` keeping only admitted episodes — the fallback for
    /// codecs without an extent index (the text codec). Session-level
    /// state (GC events, short-episode counts) is preserved.
    pub fn retain(&self, trace: SessionTrace) -> SessionTrace {
        if self.is_unrestricted() {
            return trace;
        }
        let mut b = SessionTraceBuilder::new(trace.meta().clone(), trace.symbols().clone());
        for episode in trace.episodes() {
            if self.admits_episode(episode) {
                // Ordering is preserved from an already-valid trace.
                let _ = b.push_episode(episode.clone());
            }
        }
        for gc in trace.gc_events() {
            b.push_gc(*gc);
        }
        b.add_short_episodes(trace.short_episode_count(), trace.short_episode_time());
        b.finish()
    }
}

/// How the extent index of an [`IndexedTrace`] was obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexHealth {
    /// A footer (v2 or v3) was present, checksummed, and decoded.
    FooterValid,
    /// A legacy (v1) trace has no footer; the index was reconstructed by
    /// a scan.
    FooterAbsent,
    /// A footer (v2 or v3) was present but unusable (the reason is
    /// attached); the index was reconstructed by a scan.
    FooterInvalid(String),
    /// Salvage mode: the index was rebuilt while scanning a damaged
    /// trace.
    SalvageScan,
}

impl IndexHealth {
    /// One-line human-readable description (used by `lagalyzer lint`).
    pub fn describe(&self) -> String {
        match self {
            IndexHealth::FooterValid => "footer valid".into(),
            IndexHealth::FooterAbsent => {
                "no footer (legacy trace, index reconstructed by scan)".into()
            }
            IndexHealth::FooterInvalid(reason) => {
                format!("footer invalid ({reason}), index reconstructed by scan")
            }
            IndexHealth::SalvageScan => "index rebuilt by salvage scan".into(),
        }
    }
}

impl std::fmt::Display for IndexHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Encodes the footer (leading magic through trailing magic) as the byte
/// block the writer appends after the last record, checksummed with the
/// file version's `algorithm`.
///
/// Layout:
///
/// ```text
/// magic        8 bytes  b"LGLZIDX\x01"
/// payload len  varint
/// payload      extent count, then per extent: offset (delta from the
///              previous extent's end; first is absolute), length, id,
///              start (delta from the previous start; first is absolute),
///              duration, interval count, sample count, skip count
/// checksum     8 bytes LE over magic..payload (FNV-1a in v2, the
///              four-lane hash in v3)
/// length       8 bytes LE total footer size (magic through magic)
/// magic        8 bytes  b"LGLZIDX\x01" (locator, scanned from the end)
/// ```
pub(crate) fn encode_footer(
    extents: &[EpisodeExtent],
    algorithm: Algorithm,
) -> Result<Vec<u8>, TraceError> {
    let mut payload = Vec::with_capacity(16 + extents.len() * 8);
    encode_extents_into(extents, &mut payload)?;
    let mut footer = Vec::with_capacity(payload.len() + FOOTER_FIXED + 4);
    footer.extend_from_slice(FOOTER_MAGIC);
    varint::write_u64(&mut footer, payload.len() as u64)?;
    footer.extend_from_slice(&payload);
    let checksum = algorithm.hash(&footer);
    footer.extend_from_slice(&checksum.to_le_bytes());
    let total = footer.len() as u64 + 16;
    footer.extend_from_slice(&total.to_le_bytes());
    footer.extend_from_slice(FOOTER_MAGIC);
    Ok(footer)
}

/// Locates and decodes the footer of a v2 or v3 trace whose
/// record-and-footer region ends at `payload_end` (i.e. just before the
/// trailer checksum, when one exists), verifying the footer's checksum
/// with the file version's `algorithm`.
///
/// Returns the footer's start offset and the decoded extent table, or a
/// human-readable reason the footer cannot be used (callers then fall
/// back to a scan).
pub(crate) fn locate_footer(
    bytes: &[u8],
    payload_end: usize,
    algorithm: Algorithm,
) -> Result<(usize, Vec<EpisodeExtent>), String> {
    if payload_end < FOOTER_FIXED + 1 || payload_end > bytes.len() {
        return Err("input too short for a footer".into());
    }
    if &bytes[payload_end - 8..payload_end] != FOOTER_MAGIC {
        return Err("no trailing footer magic".into());
    }
    let total = u64::from_le_bytes(
        bytes[payload_end - 16..payload_end - 8]
            .try_into()
            .expect("8-byte slice"),
    );
    if total < (FOOTER_FIXED + 1) as u64 || total > payload_end as u64 {
        return Err(format!("implausible footer length {total}"));
    }
    let footer_start = payload_end - total as usize;
    let checked_end = payload_end - 24;
    if &bytes[footer_start..footer_start + 8] != FOOTER_MAGIC {
        return Err("no leading footer magic".into());
    }
    let stored = u64::from_le_bytes(
        bytes[checked_end..checked_end + 8]
            .try_into()
            .expect("8-byte slice"),
    );
    let computed = algorithm.hash(&bytes[footer_start..checked_end]);
    if stored != computed {
        return Err("footer checksum mismatch".into());
    }
    let mut pos = footer_start + 8;
    let payload_len = take_u64(bytes, &mut pos, checked_end)
        .map_err(|e| format!("bad footer payload length: {e}"))?;
    if pos + payload_len as usize != checked_end {
        return Err("footer payload length disagrees with footer length".into());
    }
    let extents = decode_extents(bytes, &mut pos, checked_end, footer_start as u64)
        .map_err(|e| format!("bad extent table: {e}"))?;
    if pos != checked_end {
        return Err("trailing bytes after the last extent".into());
    }
    Ok((footer_start, extents))
}

/// Serializes an extent table (count, then delta-coded extents) into
/// `payload` — the shared wire shape of the v2 footer and the corpus
/// extent index.
pub(crate) fn encode_extents_into(
    extents: &[EpisodeExtent],
    payload: &mut Vec<u8>,
) -> Result<(), TraceError> {
    varint::write_u64(payload, extents.len() as u64)?;
    let mut prev_end = 0u64;
    let mut prev_start = 0u64;
    for e in extents {
        varint::write_u64(payload, e.offset - prev_end)?;
        varint::write_u64(payload, e.len)?;
        varint::write_u32(payload, e.id.as_raw())?;
        varint::write_u64(payload, e.start.as_nanos() - prev_start)?;
        varint::write_u64(payload, e.duration().as_nanos())?;
        varint::write_u64(payload, u64::from(e.intervals))?;
        varint::write_u64(payload, u64::from(e.samples))?;
        varint::write_u64(payload, u64::from(e.skips))?;
        prev_end = e.offset + e.len;
        prev_start = e.start.as_nanos();
    }
    Ok(())
}

/// Decodes the extent-table payload at `bytes[*pos..end]`, advancing
/// `pos` past it; extents must be ascending, non-overlapping, and
/// contained in `[0, limit)`.
pub(crate) fn decode_extents(
    bytes: &[u8],
    pos: &mut usize,
    end: usize,
    limit: u64,
) -> Result<Vec<EpisodeExtent>, TraceError> {
    let count = take_u64(bytes, pos, end)?;
    if count > MAX_RECORDS {
        return Err(TraceError::corrupt(
            "extent table",
            format!("{count} extents exceeds cap"),
        ));
    }
    let mut extents = Vec::with_capacity(count.min(4096) as usize);
    let mut prev_end = 0u64;
    let mut prev_start = 0u64;
    for _ in 0..count {
        let offset = prev_end
            .checked_add(take_u64(bytes, pos, end)?)
            .ok_or_else(|| TraceError::corrupt("extent table", "offset overflow"))?;
        let len = take_u64(bytes, pos, end)?;
        let id = EpisodeId::from_raw(take_u32(bytes, pos, end)?);
        let start = prev_start
            .checked_add(take_u64(bytes, pos, end)?)
            .ok_or_else(|| TraceError::corrupt("extent table", "timestamp overflow"))?;
        let duration = take_u64(bytes, pos, end)?;
        let intervals = take_u64(bytes, pos, end)?;
        let samples = take_u64(bytes, pos, end)?;
        let skips = take_u64(bytes, pos, end)?;
        let span_end = offset
            .checked_add(len)
            .ok_or_else(|| TraceError::corrupt("extent table", "length overflow"))?;
        if len < 2 || span_end > limit {
            return Err(TraceError::corrupt(
                "extent table",
                format!("extent {offset}+{len} outside the record region"),
            ));
        }
        let end_ts = start
            .checked_add(duration)
            .ok_or_else(|| TraceError::corrupt("extent table", "duration overflow"))?;
        extents.push(EpisodeExtent {
            offset,
            len,
            id,
            start: TimeNs::from_nanos(start),
            end: TimeNs::from_nanos(end_ts),
            intervals: intervals.min(u64::from(u32::MAX)) as u32,
            samples: samples.min(u64::from(u32::MAX)) as u32,
            skips: skips.min(u64::from(u32::MAX)) as u32,
        });
        prev_end = span_end;
        prev_start = start;
    }
    Ok(extents)
}

/// Reads one varint `u64` from `bytes[*pos..end]`, advancing `pos`.
fn take_u64(bytes: &[u8], pos: &mut usize, end: usize) -> Result<u64, TraceError> {
    varint::read_u64_at(bytes, pos, end)
}

/// Reads one varint `u32` from `bytes[*pos..end]`, advancing `pos`.
fn take_u32(bytes: &[u8], pos: &mut usize, end: usize) -> Result<u32, TraceError> {
    varint::read_u32_at(bytes, pos, end)
}

fn take_byte(
    bytes: &[u8],
    pos: &mut usize,
    end: usize,
    context: &'static str,
) -> Result<u8, TraceError> {
    if *pos >= end {
        return Err(TraceError::corrupt(context, "unexpected end of input"));
    }
    let b = bytes[*pos];
    *pos += 1;
    Ok(b)
}

fn take_bool(
    bytes: &[u8],
    pos: &mut usize,
    end: usize,
    context: &'static str,
) -> Result<bool, TraceError> {
    match take_byte(bytes, pos, end, context)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(TraceError::corrupt(context, format!("bad bool {other}"))),
    }
}

/// What a skimmed in-episode record contributes to its extent.
enum SkimEvent {
    Enter { at: u64 },
    Exit { at: u64 },
    Sample,
    End,
    NestedBegin,
    SessionLevel,
}

/// Skims one record's structure without materializing symbol strings or
/// sample stacks — just enough to validate boundaries and pull the
/// timestamps the extent needs.
fn skim_record(bytes: &[u8], pos: &mut usize, end: usize) -> Result<SkimEvent, TraceError> {
    const MAX_VEC: u64 = 1 << 24;
    match take_byte(bytes, pos, end, "record tag")? {
        tag::ENTER => {
            let kind = take_byte(bytes, pos, end, "enter record")?;
            if IntervalKind::from_tag(kind).is_none() {
                return Err(TraceError::corrupt(
                    "enter record",
                    format!("bad kind tag {kind}"),
                ));
            }
            if take_bool(bytes, pos, end, "enter record")? {
                take_u32(bytes, pos, end)?;
                take_u32(bytes, pos, end)?;
            }
            Ok(SkimEvent::Enter {
                at: take_u64(bytes, pos, end)?,
            })
        }
        tag::EXIT => Ok(SkimEvent::Exit {
            at: take_u64(bytes, pos, end)?,
        }),
        tag::SAMPLE => {
            take_u64(bytes, pos, end)?;
            let n_threads = take_u64(bytes, pos, end)?;
            if n_threads > MAX_VEC {
                return Err(TraceError::corrupt("sample record", "thread count cap"));
            }
            for _ in 0..n_threads {
                take_u32(bytes, pos, end)?;
                let state = take_byte(bytes, pos, end, "sample record")?;
                if ThreadState::from_tag(state).is_none() {
                    return Err(TraceError::corrupt(
                        "sample record",
                        format!("bad state tag {state}"),
                    ));
                }
                let n_frames = take_u64(bytes, pos, end)?;
                if n_frames > MAX_VEC {
                    return Err(TraceError::corrupt("sample record", "frame count cap"));
                }
                for _ in 0..n_frames {
                    take_u32(bytes, pos, end)?;
                    take_u32(bytes, pos, end)?;
                    take_bool(bytes, pos, end, "sample record")?;
                }
            }
            Ok(SkimEvent::Sample)
        }
        tag::EP_END => Ok(SkimEvent::End),
        tag::EP_BEGIN => Ok(SkimEvent::NestedBegin),
        tag::SYMBOL | tag::GC | tag::SHORT => Ok(SkimEvent::SessionLevel),
        other => Err(TraceError::corrupt(
            "record tag",
            format!("unknown tag {other}"),
        )),
    }
}

/// Reconstructs the extent table by scanning exactly `declared` records
/// starting at `pos`: session-level records are fully decoded into
/// `records`, episode bodies are skimmed without materialization.
///
/// Returns the extents and the byte position just past the last record.
fn scan_extents(
    bytes: &[u8],
    mut pos: usize,
    payload_end: usize,
    declared: u64,
    records: &mut SessionRecords,
) -> Result<(Vec<EpisodeExtent>, usize), TraceError> {
    let mut extents = Vec::new();
    let mut decoded = 0u64;
    while decoded < declared {
        if pos >= payload_end {
            return Err(TraceError::corrupt(
                "record count",
                format!("declared {declared}, found {decoded}"),
            ));
        }
        if bytes[pos] == tag::EP_BEGIN {
            let begin_at = pos;
            pos += 1;
            let id = take_u32(bytes, &mut pos, payload_end)?;
            take_u32(bytes, &mut pos, payload_end)?; // thread
            decoded += 1;
            let mut first_enter = None;
            let mut last_exit = 0u64;
            let mut intervals = 0u64;
            let mut samples = 0u64;
            loop {
                if decoded >= declared {
                    return Err(TraceError::corrupt(
                        "episode extent",
                        "declared records end mid-episode",
                    ));
                }
                let event = skim_record(bytes, &mut pos, payload_end)?;
                decoded += 1;
                match event {
                    SkimEvent::Enter { at } => {
                        if first_enter.is_none() {
                            first_enter = Some(at);
                        }
                        intervals += 1;
                    }
                    SkimEvent::Exit { at } => last_exit = at,
                    SkimEvent::Sample => samples += 1,
                    SkimEvent::End => break,
                    SkimEvent::NestedBegin => {
                        return Err(TraceError::corrupt(
                            "episode extent",
                            "episode begins before the previous one ended",
                        ))
                    }
                    SkimEvent::SessionLevel => {
                        return Err(TraceError::corrupt(
                            "episode extent",
                            "session record inside an episode",
                        ))
                    }
                }
            }
            let start = first_enter
                .ok_or_else(|| TraceError::corrupt("episode extent", "episode has no intervals"))?;
            extents.push(EpisodeExtent {
                offset: begin_at as u64,
                len: (pos - begin_at) as u64,
                id: EpisodeId::from_raw(id),
                start: TimeNs::from_nanos(start),
                end: TimeNs::from_nanos(last_exit),
                intervals: intervals.min(u64::from(u32::MAX)) as u32,
                samples: samples.min(u64::from(u32::MAX)) as u32,
                skips: 0,
            });
        } else {
            let mut r = &bytes[pos..payload_end];
            let record = read_record(&mut r)?;
            pos = payload_end - r.len();
            decoded += 1;
            records.absorb(record)?;
        }
    }
    Ok((extents, pos))
}

/// Everything `open` derives from the raw bytes except the bytes
/// themselves.
struct Opened {
    meta: SessionMeta,
    records: SessionRecords,
    extents: Vec<EpisodeExtent>,
    health: IndexHealth,
    declared: u64,
    /// With a valid footer, the records found outside the extents: the
    /// footer bounds the records without the scan that checks the
    /// declared count, so the count is only checked against the decoded
    /// episodes. `None` when a scan checked it.
    gap_records: Option<u64>,
    /// The validated rollup section: trusted only when the extent index
    /// came from a valid footer (the spans it was computed over) and its
    /// content checksum matches the trailer hash's running state at the
    /// section boundary.
    rollup: Option<crate::rollup::Rollup>,
    /// The section's health; `None` for a v1 trace.
    rollup_health: Option<RollupHealth>,
}

/// A binary trace opened for indexed, zero-copy access.
///
/// Owns the raw bytes; episode payloads are borrowed by extent and only
/// decoded on demand. [`par_decode`](IndexedTrace::par_decode) rebuilds
/// the full [`SessionTrace`] by fanning extents over the worker pool —
/// the result is identical to the serial reader's for any job count.
///
/// ```
/// # use lagalyzer_model::prelude::*;
/// # use lagalyzer_trace::{binary, IndexedTrace};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let meta = SessionMeta {
/// #     application: "X".into(),
/// #     session: SessionId::from_raw(0),
/// #     gui_thread: ThreadId::from_raw(0),
/// #     end_to_end: DurationNs::from_secs(1),
/// #     filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
/// # };
/// # let trace = SessionTraceBuilder::new(meta, SymbolTable::new()).finish();
/// # let mut bytes = Vec::new();
/// # binary::write(&trace, &mut bytes)?;
/// let indexed = IndexedTrace::open(bytes)?;
/// assert_eq!(indexed.len(), 0);
/// let decoded = indexed.par_decode(4)?;
/// assert_eq!(decoded.meta().application, "X");
/// # Ok(())
/// # }
/// ```
pub struct IndexedTrace {
    bytes: Vec<u8>,
    meta: SessionMeta,
    records: SessionRecords,
    extents: Vec<EpisodeExtent>,
    health: IndexHealth,
    salvage: Option<SalvageReport>,
    rollup: Option<crate::rollup::Rollup>,
    /// Judged by a strict open; a salvage-scan open leaves it to be probed
    /// from the bytes on first use.
    rollup_health: OnceLock<Option<RollupHealth>>,
    /// The declared record count and the records outside the extents,
    /// when a valid footer spared the scan that counts them.
    declared: Option<(u64, u64)>,
}

impl IndexedTrace {
    /// Opens a clean binary trace from an owned byte buffer, verifying
    /// the trailer checksum and building (or loading) the extent index.
    ///
    /// # Errors
    ///
    /// Fails on anything the strict serial reader would reject: bad
    /// magic, an unsupported version, a checksum mismatch, or malformed
    /// records. A damaged *footer* alone is not fatal — the index falls
    /// back to a scan (see [`IndexedTrace::health`]) — but bytes past the
    /// declared records that do not start with the footer magic are
    /// rejected, as the serial reader rejects them.
    pub fn open(bytes: Vec<u8>) -> Result<IndexedTrace, TraceError> {
        let opened = Self::open_parts(&bytes)?;
        Ok(Self::assemble(bytes, opened, None))
    }

    /// Opens a possibly damaged binary trace: tries the strict indexed
    /// open first, then falls back to a full salvage scan that rebuilds
    /// the extent table from whatever episodes survive.
    ///
    /// The fallback is the salvage scan behind [`binary::read_salvage`],
    /// keeping the extents it rebuilds where the reference keeps the
    /// episodes, so its report, available via
    /// [`salvage_report`](IndexedTrace::salvage_report), is the
    /// reference's. When the strict open succeeds the report is clean
    /// although no episode has been decoded: the extents are trusted, so
    /// episode bytes that no longer decode under a trailer checksum that
    /// still verifies (a resealed file) surface only when they are
    /// decoded. [`fold_verified`](IndexedTrace::fold_verified) reopens the
    /// trace through the scan in that case.
    ///
    /// [`binary::read_salvage`]: crate::binary::read_salvage
    ///
    /// # Errors
    ///
    /// Fails only on unrecoverable input: missing magic, or a header too
    /// damaged to establish the session metadata.
    pub fn open_salvage(bytes: Vec<u8>) -> Result<IndexedTrace, TraceError> {
        match Self::open_parts(&bytes) {
            Ok(opened) => {
                let report = Self::clean_report(&opened);
                Ok(Self::assemble(bytes, opened, Some(report)))
            }
            Err(_) => Self::open_scanned(bytes),
        }
    }

    /// Runs `fold` over this trace the way every command that reads a
    /// whole `.lgz` does: `fold` folds (or decodes) the source handed to it
    /// with the trace, which fails where [`binary::read`] would (see
    /// [`SessionSource::fold`]); the extents a strict open accepted decode
    /// strictly, salvage open or not. A strict open then fails with that
    /// error. A salvage open is reopened through the salvage scan and
    /// `fold` runs again, from fresh state, over the reopened trace, which
    /// comes back with the answer; its report is [`binary::read_salvage`]'s.
    ///
    /// [`binary::read`]: crate::binary::read
    /// [`binary::read_salvage`]: crate::binary::read_salvage
    ///
    /// # Errors
    ///
    /// `fold`'s error on a strict open or a trace the salvage scan opened;
    /// on a salvage open, the reopened trace's.
    pub fn fold_verified<T>(
        &self,
        mut fold: impl FnMut(&IndexedTrace, SessionSource<'_>) -> Result<T, TraceError>,
    ) -> Result<(T, Option<IndexedTrace>), TraceError> {
        let trusted = !matches!(self.health, IndexHealth::SalvageScan);
        let mut source = self.source();
        source.lenient &= !trusted;
        match fold(self, source) {
            Err(_) if self.salvage.is_some() && trusted => {
                let scanned = Self::open_scanned(self.bytes.clone())?;
                Ok((fold(&scanned, scanned.source())?, Some(scanned)))
            }
            folded => folded.map(|answer| (answer, None)),
        }
    }

    /// The salvage report of a trace the strict open accepted.
    fn clean_report(opened: &Opened) -> SalvageReport {
        SalvageReport {
            episodes_recovered: opened.extents.len() as u64,
            records_recovered: opened.declared,
            checksum_ok: Some(true),
            ..SalvageReport::default()
        }
    }

    /// Opens through the salvage scan, with the extents it rebuilds.
    fn open_scanned(bytes: Vec<u8>) -> Result<IndexedTrace, TraceError> {
        let scan = crate::binary::salvage_scan(&bytes, drop)?;
        Ok(IndexedTrace {
            meta: scan.meta,
            records: scan.records,
            extents: scan.extents,
            health: IndexHealth::SalvageScan,
            salvage: Some(scan.report),
            // Any rollup on a damaged file describes episodes that may not
            // have survived salvage — never trust it.
            rollup: None,
            rollup_health: OnceLock::new(),
            // The scan counted the records it read.
            declared: None,
            bytes,
        })
    }

    fn assemble(bytes: Vec<u8>, opened: Opened, salvage: Option<SalvageReport>) -> IndexedTrace {
        IndexedTrace {
            declared: opened.gap_records.map(|gaps| (opened.declared, gaps)),
            bytes,
            meta: opened.meta,
            records: opened.records,
            extents: opened.extents,
            health: opened.health,
            salvage,
            rollup: opened.rollup,
            rollup_health: OnceLock::from(opened.rollup_health),
        }
    }

    fn open_parts(bytes: &[u8]) -> Result<Opened, TraceError> {
        if bytes.len() < 16 {
            return Err(TraceError::corrupt("magic", "input shorter than magic"));
        }
        if &bytes[..7] != MAGIC_PREFIX {
            return Err(TraceError::corrupt("magic", format!("{:?}", &bytes[..8])));
        }
        let version = bytes[7];
        if !is_known_version(version) {
            return Err(TraceError::UnsupportedVersion {
                found: u32::from(version),
            });
        }
        let algorithm = Algorithm::of_trace_version(version);
        let payload_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[payload_end..].try_into().expect("8-byte slice"));
        // One pass serves two checks: when a rollup section is framed at
        // the back (v2 and v3), snapshot the running trailer hash at the
        // section boundary — the writer stamped that exact state into the
        // section as its content checksum, so the cache is validated
        // without a second pass over the payload.
        let section_start = if version >= 2 {
            crate::rollup::pre_locate(bytes, payload_end)
        } else {
            None
        };
        let split = section_start.unwrap_or(payload_end);
        let mut hash = algorithm.hasher();
        hash.update(&bytes[8..split]);
        let content_snapshot = section_start.map(|_| hash.finish());
        hash.update(&bytes[split..payload_end]);
        let computed = hash.finish();
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let mut r = &bytes[8..payload_end];
        let meta = read_header(&mut r)?;
        let declared = varint::read_u64(&mut r)?;
        if declared > MAX_RECORDS {
            return Err(TraceError::corrupt(
                "record count",
                format!("{declared} exceeds cap"),
            ));
        }
        let records_start = payload_end - r.len();
        let mut records = SessionRecords::default();
        let mut rollup = None;
        let mut rollup_health = None;
        let mut gap_records = None;
        let (extents, health) = if version >= 2 {
            // Peel the optional rollup section off the back first: the
            // footer (when present) sits directly below it. An unusable
            // section is simply dropped — the cache degrades, never the
            // decode.
            let peeled = crate::rollup::peel(bytes, payload_end, algorithm);
            let section_end = peeled.end;
            let footer = locate_footer(bytes, section_end, algorithm);
            let judged = crate::rollup::judge(
                peeled,
                payload_end,
                footer
                    .as_ref()
                    .map(|(_, e)| e.len())
                    .map_err(String::as_str),
                || content_snapshot.expect("a peeled section was pre-located"),
            );
            (rollup, rollup_health) = (judged.0, Some(judged.1));
            match footer {
                Ok((footer_start, extents)) => {
                    gap_records = Some(Self::decode_gaps(
                        bytes,
                        records_start,
                        footer_start,
                        &extents,
                        &mut records,
                    )?);
                    (extents, IndexHealth::FooterValid)
                }
                Err(reason) => {
                    // The scan stops after `declared` records; whatever is
                    // left before the trailer is the unusable footer, and
                    // must start like one, as the serial reader requires.
                    let (extents, end) =
                        scan_extents(bytes, records_start, payload_end, declared, &mut records)?;
                    if end != payload_end && !bytes[end..payload_end].starts_with(FOOTER_MAGIC) {
                        return Err(TraceError::corrupt("index footer", "bad footer magic"));
                    }
                    (extents, IndexHealth::FooterInvalid(reason))
                }
            }
        } else {
            let (extents, end) =
                scan_extents(bytes, records_start, payload_end, declared, &mut records)?;
            if end != payload_end {
                // The serial reader would read a bogus trailer here and
                // fail its checksum; reject the same inputs.
                return Err(TraceError::corrupt(
                    "record count",
                    "trailing bytes after the declared records",
                ));
            }
            (extents, IndexHealth::FooterAbsent)
        };
        Ok(Opened {
            meta,
            records,
            extents,
            health,
            declared,
            gap_records,
            rollup,
            rollup_health,
        })
    }

    /// Decodes the regions *between* extents (and before the first /
    /// after the last) — the writer puts only session-level records
    /// there, so with a valid footer no episode byte is ever parsed.
    /// Returns the number of records decoded.
    fn decode_gaps(
        bytes: &[u8],
        records_start: usize,
        records_end: usize,
        extents: &[EpisodeExtent],
        records: &mut SessionRecords,
    ) -> Result<u64, TraceError> {
        let mut decoded = 0;
        let mut gap_start = records_start as u64;
        let spans = extents
            .iter()
            .map(|e| (e.offset, e.offset + e.len))
            .chain(std::iter::once((records_end as u64, records_end as u64)));
        for (span_start, span_end) in spans {
            if span_start < gap_start || span_end > records_end as u64 {
                return Err(TraceError::corrupt(
                    "extent table",
                    "extent outside the record region",
                ));
            }
            let mut r = &bytes[gap_start as usize..span_start as usize];
            while !r.is_empty() {
                records.absorb(read_record(&mut r)?)?;
                decoded += 1;
            }
            gap_start = span_end;
        }
        Ok(decoded)
    }

    /// The session metadata from the header.
    pub fn meta(&self) -> &SessionMeta {
        &self.meta
    }

    /// The fully interned symbol table (session-level records are decoded
    /// at open time).
    pub fn symbols(&self) -> &SymbolTable {
        &self.records.symbols
    }

    /// The extent index, one entry per episode in dispatch order.
    pub fn extents(&self) -> &[EpisodeExtent] {
        &self.extents
    }

    /// Session-level GC events (decoded at open time).
    pub fn gc_events(&self) -> &[GcEvent] {
        &self.records.gc_events
    }

    /// Episodes below the tracer-side filter threshold (counted, not
    /// recorded individually).
    pub fn short_episode_count(&self) -> u64 {
        self.records.short_count
    }

    /// Total time spent in short (untraced) episodes.
    pub fn short_episode_time(&self) -> DurationNs {
        self.records.short_time
    }

    /// How the extent index was obtained.
    pub fn health(&self) -> &IndexHealth {
        &self.health
    }

    /// The salvage report when opened via
    /// [`open_salvage`](IndexedTrace::open_salvage); `None` for a strict
    /// open.
    pub fn salvage_report(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// The persisted rollup, when one is present **and** trustworthy: the
    /// footer validated, the summary table is 1:1 with the extent index,
    /// and the content checksum matches the episode bytes. A stale,
    /// damaged, or absent rollup yields `None` — callers fall back to the
    /// cold decode path.
    pub fn rollup(&self) -> Option<&crate::rollup::Rollup> {
        self.rollup.as_ref()
    }

    /// The rollup section's health, judged by the strict open that
    /// validated it (an open through the salvage scan probes the bytes on
    /// the first call): what [`probe_rollup`] reports for the same bytes.
    /// `None` for a v1 trace.
    pub fn rollup_health(&self) -> Option<&RollupHealth> {
        self.rollup_health
            .get_or_init(|| probe_rollup(&self.bytes))
            .as_ref()
    }

    /// Number of indexed episodes.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// `true` when the trace has no traced episodes.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Borrows episode `i`'s record bytes zero-copy.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range (extent byte ranges themselves are
    /// validated at open time).
    pub fn episode_bytes(&self, i: usize) -> &[u8] {
        let e = &self.extents[i];
        &self.bytes[e.offset as usize..(e.offset + e.len) as usize]
    }

    /// This trace as a [`SessionSource`], the single decode path shared
    /// with corpus sessions. Extent offsets index the whole file.
    pub fn source(&self) -> SessionSource<'_> {
        SessionSource {
            meta: &self.meta,
            records: &self.records,
            extents: &self.extents,
            payload: Payload::Bytes(&self.bytes),
            lenient: self.salvage.is_some(),
            rollup: RollupRef::Opened(self.rollup.as_ref()),
            declared: self.declared,
        }
    }

    /// Randomly accesses episode `i`: strictly decodes just its extent.
    ///
    /// # Errors
    ///
    /// Fails when `i` is out of range or the extent's bytes do not decode
    /// to a well-formed episode (possible only when the index disagrees
    /// with the records — e.g. a handcrafted footer).
    pub fn decode_episode(&self, i: usize) -> Result<Episode, TraceError> {
        self.source().decode_episode(i)
    }

    /// Decodes the whole session by fanning extents over `jobs` worker
    /// threads. The result is identical to the serial reference decoder's,
    /// [`binary::read`](crate::binary::read) (or, after
    /// [`open_salvage`](IndexedTrace::open_salvage),
    /// [`binary::read_salvage`](crate::binary::read_salvage)), for any job
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the first extent decode failure.
    pub fn par_decode(&self, jobs: usize) -> Result<SessionTrace, TraceError> {
        self.source().decode(jobs)
    }

    /// Like [`par_decode`](IndexedTrace::par_decode), but only decodes
    /// episodes the filter admits (see [`SessionSource::decode_filtered`]).
    ///
    /// # Errors
    ///
    /// Propagates the first (in episode order) extent decode failure.
    pub fn par_decode_filtered(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
    ) -> Result<SessionTrace, TraceError> {
        self.source().decode_filtered(jobs, filter)
    }

    /// Decodes exactly the extents named by `indices`, in the given order
    /// (see [`SessionSource::decode_subset`]); after
    /// [`open_salvage`](IndexedTrace::open_salvage) extents in the index
    /// whose bytes do not decode are skipped.
    ///
    /// # Errors
    ///
    /// On any open, an index past the extent table (`no episode N in the
    /// index`); on a strict open, also the first extent that does not
    /// decode.
    pub fn par_decode_subset(
        &self,
        jobs: usize,
        indices: &[usize],
    ) -> Result<Vec<Episode>, TraceError> {
        self.source().decode_subset(jobs, indices)
    }
}

/// Strictly decodes one episode from its extent's byte span into the
/// worker's reusable tree and sample arrays (see [`DecodeScratch`]).
fn decode_extent(
    span: &[u8],
    extent: &EpisodeExtent,
    tree: &mut IntervalTreeBuilder,
    samples: &mut Samples,
) -> Result<Episode, TraceError> {
    {
        const MAX_VEC: u64 = 1 << 24;
        let end = span.len();
        let mut pos = 0usize;
        if take_byte(span, &mut pos, end, "record tag")? != tag::EP_BEGIN {
            // Match the strict reader: a malformed first record reports
            // its own corruption, a well-formed non-begin one is a layout
            // error.
            read_record(&mut &span[..])?;
            return Err(TraceError::corrupt(
                "episode extent",
                "extent does not start with an episode begin",
            ));
        }
        let id = EpisodeId::from_raw(take_u32(span, &mut pos, end)?);
        let thread = ThreadId::from_raw(take_u32(span, &mut pos, end)?);
        if id != extent.id {
            return Err(TraceError::corrupt(
                "episode extent",
                format!(
                    "index says id {}, records say {}",
                    extent.id.as_raw(),
                    id.as_raw()
                ),
            ));
        }
        // Nodes and samples go into the worker's reusable arrays, which
        // grow with the records actually read; the extent's interval and
        // sample counts are never trusted to size them.
        loop {
            if pos >= end {
                return Err(TraceError::corrupt(
                    "episode extent",
                    "extent ends before the episode does",
                ));
            }
            match take_byte(span, &mut pos, end, "record tag")? {
                tag::ENTER => {
                    let kind_tag = take_byte(span, &mut pos, end, "enter record")?;
                    let kind = IntervalKind::from_tag(kind_tag).ok_or_else(|| {
                        TraceError::corrupt("enter record", format!("bad kind tag {kind_tag}"))
                    })?;
                    let symbol = if take_bool(span, &mut pos, end, "enter record")? {
                        Some(MethodRef {
                            class: SymbolId::from_raw(take_u32(span, &mut pos, end)?),
                            method: SymbolId::from_raw(take_u32(span, &mut pos, end)?),
                        })
                    } else {
                        None
                    };
                    let at = TimeNs::from_nanos(take_u64(span, &mut pos, end)?);
                    tree.enter(kind, symbol, at)?;
                }
                tag::EXIT => {
                    tree.exit(TimeNs::from_nanos(take_u64(span, &mut pos, end)?))?;
                }
                tag::SAMPLE => {
                    let time = TimeNs::from_nanos(take_u64(span, &mut pos, end)?);
                    let n_threads = take_u64(span, &mut pos, end)?;
                    if n_threads > MAX_VEC {
                        return Err(TraceError::corrupt("sample record", "thread count cap"));
                    }
                    samples.push_snapshot(time);
                    for _ in 0..n_threads {
                        let thread = ThreadId::from_raw(take_u32(span, &mut pos, end)?);
                        let state_tag = take_byte(span, &mut pos, end, "sample record")?;
                        let state = ThreadState::from_tag(state_tag).ok_or_else(|| {
                            TraceError::corrupt(
                                "sample record",
                                format!("bad state tag {state_tag}"),
                            )
                        })?;
                        let n_frames = take_u64(span, &mut pos, end)?;
                        if n_frames > MAX_VEC {
                            return Err(TraceError::corrupt("sample record", "frame count cap"));
                        }
                        samples.push_thread(thread, state);
                        for _ in 0..n_frames {
                            let method = MethodRef {
                                class: SymbolId::from_raw(take_u32(span, &mut pos, end)?),
                                method: SymbolId::from_raw(take_u32(span, &mut pos, end)?),
                            };
                            let native = take_bool(span, &mut pos, end, "sample record")?;
                            samples.push_frame(StackFrame { method, native });
                        }
                    }
                }
                tag::EP_END => break,
                // Salvage-derived extents may interleave session-level
                // records inside an episode span; they were absorbed at
                // open time, so decode them with the strict reader (same
                // validation, cold path) and step over them here.
                tag::SYMBOL | tag::GC | tag::SHORT => {
                    let mut r = &span[pos - 1..end];
                    read_record(&mut r)?;
                    pos = end - r.len();
                }
                tag::EP_BEGIN => {
                    return Err(TraceError::corrupt(
                        "episode extent",
                        "nested episode begin inside an extent",
                    ));
                }
                other => {
                    return Err(TraceError::corrupt(
                        "record tag",
                        format!("unknown tag {other}"),
                    ));
                }
            }
        }
        if pos != end {
            return Err(TraceError::corrupt(
                "episode extent",
                "trailing bytes after the episode end",
            ));
        }
        let finished = tree.finish_reset()?;
        Ok(Episode::from_buffer(id, thread, finished, samples)?)
    }
}

/// Per-worker decode scratch, built once per worker thread and reused
/// across every extent it decodes.
///
/// An episode's tree nodes, snapshot headers, thread headers and frames
/// are decoded into these arrays, which keep their capacity between
/// episodes; the episode then gets exact-size copies
/// ([`IntervalTreeBuilder::finish_reset`], [`Episode::from_buffer`]). So
/// after the largest episode so far a decode allocates only the copies —
/// at most six per episode, fewer without samples — and never more than
/// the records it read. A corpus member's LZ payload is decompressed into
/// the scratch's one payload buffer, which the member's later extents
/// reuse and the next member's decompression overwrites.
#[derive(Default)]
pub(crate) struct DecodeScratch<'a> {
    tree: IntervalTreeBuilder,
    samples: Samples,
    payload: PayloadBuffer<'a>,
}

impl<'a> DecodeScratch<'a> {
    /// Strictly decodes one episode from its extent of `payload` — the
    /// inner loop of every [`SessionSource`] decode. An LZ payload is
    /// decompressed first, unless the payload buffer holds it already.
    ///
    /// On error the tree and sample arrays are reset, so a reused builder
    /// can never leak a failed episode's partial state into the next
    /// decode.
    pub(crate) fn decode(
        &mut self,
        payload: Payload<'a>,
        extent: &EpisodeExtent,
    ) -> Result<Episode, TraceError> {
        let bytes = match payload {
            Payload::Bytes(bytes) => bytes,
            Payload::Lz(section) => self.payload.bytes_of(section)?,
        };
        let span = &bytes[extent.offset as usize..(extent.offset + extent.len) as usize];
        let result = decode_extent(span, extent, &mut self.tree, &mut self.samples);
        if result.is_err() {
            self.tree.reset();
            self.samples.clear();
        }
        result
    }
}

/// Cheap index-health probe for diagnostics (`lagalyzer lint`): reports
/// how an indexed open of `bytes` would obtain its extent table, without
/// decoding any records. `None` when the input is not a binary trace.
pub fn probe_health(bytes: &[u8]) -> Option<IndexHealth> {
    if bytes.len() < 16 || &bytes[..7] != MAGIC_PREFIX {
        return None;
    }
    if bytes[7] < 2 {
        return Some(IndexHealth::FooterAbsent);
    }
    let algorithm = Algorithm::of_trace_version(bytes[7]);
    let peeled = crate::rollup::peel(bytes, bytes.len() - 8, algorithm);
    match locate_footer(bytes, peeled.end, algorithm) {
        Ok(_) => Some(IndexHealth::FooterValid),
        Err(reason) => Some(IndexHealth::FooterInvalid(reason)),
    }
}

/// Cheap rollup-health probe for diagnostics (`lagalyzer lint` and the
/// `LA014` check rule): reports whether `bytes` carries a rollup section
/// and whether it would be trusted, without decoding any episode. `None`
/// when the input is not a v2 or v3 binary trace (v1 has no section
/// region).
pub fn probe_rollup(bytes: &[u8]) -> Option<RollupHealth> {
    if bytes.len() < 16 || &bytes[..7] != MAGIC_PREFIX || bytes[7] < 2 {
        return None;
    }
    let algorithm = Algorithm::of_trace_version(bytes[7]);
    let payload_end = bytes.len() - 8;
    let peeled = crate::rollup::peel(bytes, payload_end, algorithm);
    let section_end = peeled.end;
    let footer = locate_footer(bytes, section_end, algorithm);
    let judged = crate::rollup::judge(
        peeled,
        payload_end,
        footer
            .as_ref()
            .map(|(_, e)| e.len())
            .map_err(String::as_str),
        || algorithm.hash(&bytes[8..section_end]),
    );
    Some(judged.1)
}
