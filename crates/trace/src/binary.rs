//! Compact binary codec.
//!
//! Layout (all integers LEB128 unless noted):
//!
//! ```text
//! magic      8 bytes  b"LGLZTRC\x03" (the last byte is the version)
//! header     app name (len+utf8), session id, gui thread,
//!            end-to-end ns, filter threshold ns
//! records    count, then each record: 1 tag byte + payload
//! footer     v2 and v3: the episode extent index (see [`crate::index`]),
//!            self-checksummed and locatable from the end of the file
//! rollup     optional, v2 and v3: the persisted analysis cache (see
//!            [`crate::rollup`]), framed like the footer
//! trailer    8 bytes little-endian checksum over
//!            header+records+footer+rollup
//! ```
//!
//! The checksum lets the reader detect truncation and bit rot before
//! handing malformed structures to the analyses. Versions 2 and 3 share
//! this layout byte for byte; the version byte selects the hash of every
//! checksum in the file ([`crate::checksum`]): FNV-1a for v1 and v2, the
//! four-lane [`Algorithm::Lane4`] for v3. [`write()`] and
//! [`write_with_rollup`] produce v3; version 1 files (no footer) remain
//! fully readable, and [`write_legacy`] still produces them. Every version
//! reads through the same code, so a v2 file and its v3 re-encoding decode,
//! salvage and check identically.

use std::io::{Read, Write};

use lagalyzer_model::prelude::*;

use crate::checksum::{Algorithm, Hasher};
use crate::error::TraceError;
use crate::index::EpisodeExtent;
use crate::record::{trace_from_records, walk_tree, SessionRecords, TraceRecord, TreeEvent};
use crate::salvage::{build_session, Assembler, SalvageReport, Salvaged, SkipAt};
use crate::source::records_of;
use crate::varint;

/// The legacy footerless format.
const MAGIC_V1: &[u8; 8] = b"LGLZTRC\x01";

/// The current format: the v2 layout with every checksum a four-lane hash.
const MAGIC_V3: &[u8; 8] = b"LGLZTRC\x03";

/// The version-independent format signature (byte 8 of the magic is the
/// version); used by format sniffing and salvage decoding.
pub const MAGIC_PREFIX: &[u8] = b"LGLZTRC";

/// `true` for the format versions this build reads: 1 (no footer), 2 and
/// 3 (an extent footer; FNV-1a and four-lane checksums respectively).
pub(crate) fn is_known_version(version: u8) -> bool {
    (1..=3).contains(&version)
}

/// Cap on the declared record count; anything larger is corrupt.
pub(crate) const MAX_RECORDS: u64 = 1 << 32;

/// Record tag bytes.
pub(crate) mod tag {
    pub const SYMBOL: u8 = 1;
    pub const GC: u8 = 2;
    pub const SHORT: u8 = 3;
    pub const EP_BEGIN: u8 = 4;
    pub const ENTER: u8 = 5;
    pub const EXIT: u8 = 6;
    pub const SAMPLE: u8 = 7;
    pub const EP_END: u8 = 8;
}

/// Bytes the writer gathers before hashing and forwarding them.
const BLOCK: usize = 64 * 1024;

/// A writer adapter that gathers everything written through it into
/// blocks of [`BLOCK`] bytes, hashing each block as it forwards it, and
/// counts the bytes (the count gives the extent index its byte offsets).
/// Records arrive a few bytes at a time, so a write is one inlined append
/// and the hash runs over whole blocks.
struct HashingWriter<W: Write> {
    inner: W,
    block: Vec<u8>,
    hash: Hasher,
    /// Bytes hashed and forwarded so far.
    drained: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W, algorithm: Algorithm) -> Self {
        HashingWriter {
            inner,
            block: Vec::with_capacity(BLOCK),
            hash: algorithm.hasher(),
            drained: 0,
        }
    }

    /// Bytes written through the adapter so far.
    fn written(&self) -> u64 {
        self.drained + self.block.len() as u64
    }

    /// Hashes and forwards the gathered bytes, then `rest` (a write that
    /// did not fit in the block).
    #[cold]
    #[inline(never)]
    fn drain(&mut self, rest: &[u8]) -> std::io::Result<()> {
        for bytes in [&self.block[..], rest] {
            self.hash.update(bytes);
            self.inner.write_all(bytes)?;
            self.drained += bytes.len() as u64;
        }
        self.block.clear();
        Ok(())
    }

    /// The hash of everything written so far; writing may go on.
    fn checksum(&mut self) -> std::io::Result<u64> {
        self.drain(&[])?;
        Ok(self.hash.finish())
    }
}

impl<W: Write> Write for HashingWriter<W> {
    #[inline]
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_all(buf)?;
        Ok(buf.len())
    }

    #[inline]
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        if self.block.len() + buf.len() > BLOCK {
            return self.drain(buf);
        }
        self.block.extend_from_slice(buf);
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.drain(&[])?;
        self.inner.flush()
    }
}

/// A reader adapter that hashes everything it yields. The serial reader
/// pulls a few bytes at a time, so the yielded bytes are gathered and
/// hashed in blocks of [`BLOCK`] bytes, as the writer hashes them.
struct HashingReader<R> {
    inner: R,
    pending: Vec<u8>,
    hash: Hasher,
}

impl<R> HashingReader<R> {
    fn new(inner: R, algorithm: Algorithm) -> Self {
        HashingReader {
            inner,
            pending: Vec::with_capacity(BLOCK),
            hash: algorithm.hasher(),
        }
    }

    /// Counts `bytes` into the hash: bytes read past the adapter, or
    /// yielded through it.
    #[inline]
    fn absorb(&mut self, bytes: &[u8]) {
        if self.pending.len() + bytes.len() > BLOCK {
            self.hash_pending();
        }
        self.pending.extend_from_slice(bytes);
    }

    #[cold]
    #[inline(never)]
    fn hash_pending(&mut self) {
        self.hash.update(&self.pending);
        self.pending.clear();
    }

    /// The hash of everything yielded or absorbed so far.
    fn checksum(&mut self) -> u64 {
        self.hash_pending();
        self.hash.finish()
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.absorb(&buf[..n]);
        Ok(n)
    }

    #[inline]
    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_exact(buf)?;
        self.absorb(buf);
        Ok(())
    }
}

/// Serializes a trace to the binary format (v3: records followed by the
/// episode extent index footer).
///
/// A `&mut` reference may be passed for `w` (it also implements `Write`).
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write<W: Write>(trace: &SessionTrace, w: W) -> Result<(), TraceError> {
    write_impl(trace, w, true, None)
}

/// Serializes a trace in the legacy v1 layout — no extent index footer —
/// for compatibility fixtures and readers that predate the index.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_legacy<W: Write>(trace: &SessionTrace, w: W) -> Result<(), TraceError> {
    write_impl(trace, w, false, None)
}

/// Serializes a trace to the v3 binary format with a persisted rollup
/// section appended after the extent footer (inside the trailer-checksummed
/// region). The rollup's content checksum is stamped here — it is the
/// trailer hash's running state at the section boundary — so callers
/// cannot produce a rollup that disagrees with its own trace.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_with_rollup<W: Write>(
    trace: &SessionTrace,
    w: W,
    rollup: crate::rollup::Rollup,
) -> Result<(), TraceError> {
    write_impl(trace, w, true, Some(rollup))
}

fn write_impl<W: Write>(
    trace: &SessionTrace,
    w: W,
    with_footer: bool,
    rollup: Option<crate::rollup::Rollup>,
) -> Result<(), TraceError> {
    let magic = if with_footer { MAGIC_V3 } else { MAGIC_V1 };
    let algorithm = Algorithm::of_trace_version(magic[7]);
    let mut hw = HashingWriter::new(w, algorithm);
    hw.inner.write_all(magic)?;
    write_header(trace.meta(), &mut hw)?;
    let short = trace.short_episode_count() > 0;
    let session_records = trace.symbols().len() + trace.gc_events().len() + usize::from(short);
    let records = trace
        .episodes()
        .iter()
        .fold(session_records as u64, |sum, episode| {
            sum + records_of(episode.tree().len(), episode.samples().len())
        });
    varint::write_u64(&mut hw, records)?;
    for (id, name) in trace.symbols().iter() {
        hw.write_all(&[tag::SYMBOL])?;
        varint::write_u32(&mut hw, id.as_raw())?;
        varint::write_str(&mut hw, name)?;
    }
    for gc in trace.gc_events() {
        hw.write_all(&[tag::GC])?;
        varint::write_u64(&mut hw, gc.start.as_nanos())?;
        varint::write_u64(&mut hw, gc.end.as_nanos())?;
        hw.write_all(&[u8::from(gc.major)])?;
    }
    if short {
        hw.write_all(&[tag::SHORT])?;
        varint::write_u64(&mut hw, trace.short_episode_count())?;
        varint::write_u64(&mut hw, trace.short_episode_time().as_nanos())?;
    }
    let mut extents = Vec::with_capacity(if with_footer {
        trace.episodes().len()
    } else {
        0
    });
    for episode in trace.episodes() {
        let offset = 8 + hw.written();
        write_episode(episode, &mut hw)?;
        if with_footer {
            let len = 8 + hw.written() - offset;
            extents.push(EpisodeExtent::of_episode(episode, offset, len));
        }
    }
    seal(hw, algorithm, with_footer.then_some(&extents[..]), rollup)
}

/// Writes one episode's records straight from its interval arena and
/// flat sample arrays: the begin record, an enter and an exit per interval
/// in the order [`walk_tree`] visits them, the samples in stored order,
/// and the end record, [`records_of`] its counts in all. The bytes are
/// the ones the episode's lowered records encode to.
pub(crate) fn write_episode<W: Write>(episode: &Episode, w: &mut W) -> Result<(), TraceError> {
    w.write_all(&[tag::EP_BEGIN])?;
    varint::write_u32(w, episode.id().as_raw())?;
    varint::write_u32(w, episode.thread().as_raw())?;
    walk_tree(episode.tree(), &mut |event| match event {
        TreeEvent::Enter(interval) => {
            w.write_all(&[tag::ENTER, interval.kind.tag()])?;
            match interval.symbol {
                Some(m) => {
                    w.write_all(&[1])?;
                    varint::write_u32(w, m.class.as_raw())?;
                    varint::write_u32(w, m.method.as_raw())?;
                }
                None => w.write_all(&[0])?,
            }
            varint::write_u64(w, interval.start.as_nanos())
        }
        TreeEvent::Exit(at) => {
            w.write_all(&[tag::EXIT])?;
            varint::write_u64(w, at.as_nanos())
        }
    })?;
    for snapshot in episode.samples() {
        w.write_all(&[tag::SAMPLE])?;
        varint::write_u64(w, snapshot.time.as_nanos())?;
        let threads = snapshot.threads();
        varint::write_u64(w, threads.len() as u64)?;
        for thread in threads {
            varint::write_u32(w, thread.thread.as_raw())?;
            w.write_all(&[thread.state.tag()])?;
            let stack = thread.stack();
            varint::write_u64(w, stack.len() as u64)?;
            for frame in stack {
                varint::write_u32(w, frame.method.class.as_raw())?;
                varint::write_u32(w, frame.method.method.as_raw())?;
                w.write_all(&[u8::from(frame.native)])?;
            }
        }
    }
    w.write_all(&[tag::EP_END])?;
    Ok(())
}

/// Ends a trace whose records are written: the extent footer (when
/// `extents` is given), the optional rollup section, and the trailer.
fn seal<W: Write>(
    mut hw: HashingWriter<W>,
    algorithm: Algorithm,
    extents: Option<&[EpisodeExtent]>,
    rollup: Option<crate::rollup::Rollup>,
) -> Result<(), TraceError> {
    if let Some(extents) = extents {
        let footer = crate::index::encode_footer(extents, algorithm)?;
        // Through the hasher: the trailer checksum covers the footer.
        hw.write_all(&footer)?;
    }
    if let Some(mut rollup) = rollup {
        // The content checksum is the trailer hash's running state at the
        // section boundary. The reader re-derives it as a snapshot of its
        // own (single) trailer pass, so validating the cache costs no
        // second pass over the payload; a rollup-unaware rewriter that
        // recomputes the trailer still cannot keep this snapshot current.
        rollup.content_checksum = hw.checksum()?;
        let section = crate::rollup::encode_section(&rollup, algorithm)?;
        // Also through the hasher: the trailer checksum covers the rollup.
        hw.write_all(&section)?;
    }
    let checksum = hw.checksum()?;
    hw.inner.write_all(&checksum.to_le_bytes())?;
    hw.inner.flush()?;
    Ok(())
}

/// The writer [`write_impl`] replaced, kept as the reference it is held
/// to: it lowers the trace to records with [`records_from_trace`], declares
/// their number, and writes them one by one.
#[cfg(test)]
pub(crate) fn write_lowered<W: Write>(
    trace: &SessionTrace,
    w: W,
    with_footer: bool,
    rollup: Option<crate::rollup::Rollup>,
) -> Result<(), TraceError> {
    let magic = if with_footer { MAGIC_V3 } else { MAGIC_V1 };
    let algorithm = Algorithm::of_trace_version(magic[7]);
    let mut hw = HashingWriter::new(w, algorithm);
    hw.inner.write_all(magic)?;
    write_header(trace.meta(), &mut hw)?;
    let records = crate::record::records_from_trace(trace);
    varint::write_u64(&mut hw, records.len() as u64)?;
    // The writer emits one EpisodeEnd per episode, in dispatch order, so
    // the k-th end record closes `trace.episodes()[k]` — that pairing
    // supplies the extent metadata without re-deriving it from records.
    let mut extents = Vec::with_capacity(if with_footer {
        trace.episodes().len()
    } else {
        0
    });
    let mut begin_at = 0u64;
    for rec in &records {
        if with_footer && matches!(rec, TraceRecord::EpisodeBegin { .. }) {
            begin_at = 8 + hw.written();
        }
        write_record(rec, &mut hw)?;
        if with_footer && matches!(rec, TraceRecord::EpisodeEnd) {
            let episode = &trace.episodes()[extents.len()];
            extents.push(EpisodeExtent {
                offset: begin_at,
                len: 8 + hw.written() - begin_at,
                id: episode.id(),
                start: episode.start(),
                end: episode.end(),
                intervals: episode.tree().len().min(u32::MAX as usize) as u32,
                samples: episode.samples().len().min(u32::MAX as usize) as u32,
                skips: 0,
            });
        }
    }
    seal(hw, algorithm, with_footer.then_some(&extents[..]), rollup)
}

/// Deserializes a trace from the binary format.
///
/// This is the serial reference decoder: it reads the stream front to
/// back, verifies the trailer checksum and reassembles the session through
/// [`trace_from_records`]. The tools open binary traces through
/// [`IndexedTrace`](crate::IndexedTrace) instead, and the test suites
/// check that its parallel decode equals this one.
///
/// A `&mut` reference may be passed for `r` (it also implements `Read`).
///
/// # Errors
///
/// Fails on I/O errors, bad magic, checksum mismatch, malformed records, or
/// model-invariant violations.
pub fn read<R: Read>(mut r: R) -> Result<SessionTrace, TraceError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic[..7] != *MAGIC_PREFIX {
        return Err(TraceError::corrupt("magic", format!("{magic:?}")));
    }
    let version = magic[7];
    if !is_known_version(version) {
        return Err(TraceError::UnsupportedVersion {
            found: u32::from(version),
        });
    }
    let mut source = HashingReader::new(r, Algorithm::of_trace_version(version));
    let meta = read_header(&mut source)?;
    let count = varint::read_u64(&mut source)?;
    if count > MAX_RECORDS {
        return Err(TraceError::corrupt(
            "record count",
            format!("{count} exceeds cap"),
        ));
    }
    // The declared count is attacker-controlled until the checksum clears:
    // seed the capacity modestly and let growth follow actual decoded
    // records, so a corrupt count cannot force a huge allocation.
    let mut records = Vec::with_capacity(count.min(4096) as usize);
    for _ in 0..count {
        records.push(read_record(&mut source)?);
    }
    if version >= 2 {
        // The extent footer only needs to flow through the hasher here;
        // random access wants the extents themselves (`IndexedTrace`).
        let mut fmagic = [0u8; 8];
        source.read_exact(&mut fmagic)?;
        if &fmagic != crate::index::FOOTER_MAGIC {
            return Err(TraceError::corrupt("index footer", "bad footer magic"));
        }
        consume_section_body(&mut source, crate::index::FOOTER_MAGIC, "index footer")?;
    }
    // After the footer either the 8-byte trailer checksum or an optional
    // rollup section follows. Read the next 8 bytes outside the hasher to
    // decide which: a rollup's magic must be folded into the hash by hand
    // (the trailer covers the section), the trailer itself must not be.
    let mut trailer = [0u8; 8];
    source.inner.read_exact(&mut trailer)?;
    if version >= 2 && &trailer == crate::rollup::ROLLUP_MAGIC {
        source.absorb(&trailer);
        consume_section_body(&mut source, crate::rollup::ROLLUP_MAGIC, "rollup section")?;
        source.inner.read_exact(&mut trailer)?;
    }
    let computed = source.checksum();
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(TraceError::ChecksumMismatch { stored, computed });
    }
    Ok(trace_from_records(meta, records)?)
}

/// Streams the rest of a footer-framed section (payload length through
/// trailing magic) through the hasher, after the leading magic has already
/// been consumed and hashed. Shared by the extent footer and the rollup
/// section — both use the same end-located framing.
fn consume_section_body<R: Read>(
    source: &mut HashingReader<R>,
    magic: &[u8; 8],
    context: &'static str,
) -> Result<(), TraceError> {
    let payload_len = varint::read_u64(source)?;
    let skipped = std::io::copy(&mut source.by_ref().take(payload_len), &mut std::io::sink())?;
    if skipped != payload_len {
        return Err(TraceError::corrupt(context, "truncated payload"));
    }
    let mut tail = [0u8; 24];
    source.read_exact(&mut tail)?;
    // tail[0..8] is the section's own checksum — the trailer hash already
    // covers every section byte, so it needs no re-check here.
    let total = u64::from_le_bytes(tail[8..16].try_into().expect("8-byte slice"));
    if &tail[16..24] != magic {
        return Err(TraceError::corrupt(context, "bad trailing magic"));
    }
    let expected = 8 + varint::len_u64(payload_len) + payload_len + 24;
    if total != expected {
        return Err(TraceError::corrupt(
            context,
            format!("declared length {total}, consumed {expected}"),
        ));
    }
    Ok(())
}

/// What the salvage cursor found next in the byte stream.
enum SalvageEvent {
    /// A structurally valid record at byte offset `at`.
    Record { at: u64, record: TraceRecord },
    /// A region that had to be skipped.
    Skip {
        at: u64,
        context: &'static str,
        detail: String,
        bytes_skipped: u64,
    },
}

/// Walks the record region of a (possibly damaged) binary trace,
/// resynchronizing after corrupt records instead of aborting.
///
/// Construction fails only when the input is unrecoverable: missing the
/// format signature or a header too damaged to establish the session
/// metadata. Everything after the header is best-effort: corrupt records
/// yield [`SalvageEvent::Skip`] and scanning resumes at the next byte
/// that starts a decodable record.
struct SalvageCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    payload_end: usize,
    meta: SessionMeta,
    declared: Option<u64>,
    decoded: u64,
    pending: std::collections::VecDeque<SalvageEvent>,
    checksum_ok: Option<bool>,
    finished: bool,
    /// Version >= 2: the file carries (or should carry) an index footer.
    indexed: bool,
    /// The footer was located, so `payload_end` already excludes it.
    footer_located: bool,
}

impl<'a> SalvageCursor<'a> {
    fn new(bytes: &'a [u8]) -> Result<SalvageCursor<'a>, TraceError> {
        let mut pending = std::collections::VecDeque::new();
        if bytes.len() < 8 {
            return Err(TraceError::corrupt("magic", "input shorter than magic"));
        }
        if bytes[..7] != *MAGIC_PREFIX {
            return Err(TraceError::corrupt("magic", format!("{:?}", &bytes[..8])));
        }
        // An unknown version is decoded as the nearest known one: 0 as
        // v1, anything newer as v3, checksums included.
        let version = bytes[7];
        let indexed = version >= 2;
        let algorithm = Algorithm::of_trace_version(version);
        if !is_known_version(version) {
            pending.push_back(SalvageEvent::Skip {
                at: 7,
                context: "version",
                detail: format!(
                    "unsupported version {version}, decoding as v{}",
                    if indexed { 3 } else { 1 }
                ),
                bytes_skipped: 0,
            });
        }
        let mut r = &bytes[8..];
        // A header too damaged to yield the session metadata makes the
        // whole file unattributable: give up rather than invent a session.
        let meta = read_header(&mut r)?;
        let mut pos = bytes.len() - r.len();
        let declared = match varint::read_u64(&mut r) {
            Ok(n) if n <= MAX_RECORDS => Some(n),
            Ok(n) => {
                pending.push_back(SalvageEvent::Skip {
                    at: pos as u64,
                    context: "record count",
                    detail: format!("{n} exceeds cap"),
                    bytes_skipped: 0,
                });
                None
            }
            Err(e) => {
                pending.push_back(SalvageEvent::Skip {
                    at: pos as u64,
                    context: "record count",
                    detail: e.to_string(),
                    bytes_skipped: 0,
                });
                None
            }
        };
        pos = bytes.len() - r.len();
        // The trailer is the last 8 bytes — when they exist. A file cut
        // before that point has no checksum to verify.
        let (payload_end, checksum_ok) = if bytes.len() >= pos + 8 {
            let payload_end = bytes.len() - 8;
            let mut trailer = [0u8; 8];
            trailer.copy_from_slice(&bytes[payload_end..]);
            let stored = u64::from_le_bytes(trailer);
            // The hash covers header + records but not the magic (the
            // writer hashes only what flows through its HashingWriter).
            (
                payload_end,
                Some(stored == algorithm.hash(&bytes[8..payload_end])),
            )
        } else {
            pending.push_back(SalvageEvent::Skip {
                at: bytes.len() as u64,
                context: "trailer",
                detail: "input ends before checksum trailer".into(),
                bytes_skipped: 0,
            });
            (bytes.len(), None)
        };
        // An indexed trace's record region ends where the footer starts.
        // An optional rollup section sits between the footer and the
        // trailer; peel it first so a clean v2-with-rollup trace does not
        // report a damaged footer. When the footer cannot be located, the
        // record scan instead stops at the declared count or the footer
        // magic — see `next_event` — so footer bytes are never misread as
        // records.
        let (payload_end, footer_located) = if indexed {
            let peeled_end = crate::rollup::peel(bytes, payload_end, algorithm).end;
            match crate::index::locate_footer(bytes, peeled_end, algorithm) {
                Ok((footer_start, _)) => (footer_start, true),
                Err(_) => (payload_end, false),
            }
        } else {
            (payload_end, false)
        };
        Ok(SalvageCursor {
            bytes,
            pos,
            payload_end,
            meta,
            declared,
            decoded: 0,
            pending,
            checksum_ok,
            finished: false,
            indexed,
            footer_located,
        })
    }

    /// The next record or skip; `None` once the record region (and the
    /// final declared-count verdict) is exhausted.
    fn next_event(&mut self) -> Option<SalvageEvent> {
        if let Some(ev) = self.pending.pop_front() {
            return Some(ev);
        }
        if self.finished {
            return None;
        }
        // An unlocatable footer could not bound the record region up
        // front, so bound it here: the declared record count and the
        // footer magic both mark where records end. Without this, the
        // footer's varint payload would be misread as records and could
        // invent episodes that were never traced.
        if self.indexed && !self.footer_located && self.pos < self.payload_end {
            let at_footer =
                self.bytes[self.pos..self.payload_end].starts_with(crate::index::FOOTER_MAGIC);
            if at_footer || Some(self.decoded) == self.declared {
                let at = self.pos;
                self.pos = self.payload_end;
                // A verified trailer vouches for every byte, so a region
                // that starts with the footer magic is the footer (and any
                // rollup section) exactly as written: unusable as an
                // index, which the index health reports, but not damage.
                // Anything else here is not a footer at all.
                if !at_footer || self.checksum_ok != Some(true) {
                    return Some(SalvageEvent::Skip {
                        at: at as u64,
                        context: "index footer",
                        detail: "damaged index footer region".into(),
                        bytes_skipped: (self.payload_end - at) as u64,
                    });
                }
            }
        }
        if self.pos < self.payload_end {
            let at = self.pos as u64;
            let mut r = &self.bytes[self.pos..self.payload_end];
            match read_record(&mut r) {
                Ok(record) => {
                    self.pos = self.payload_end - r.len();
                    self.decoded += 1;
                    return Some(SalvageEvent::Record { at, record });
                }
                Err(e) => {
                    // Resynchronize: the next record boundary is the next
                    // byte that is a known tag and decodes cleanly. (The
                    // probe re-decodes one record per skip — fine, skips
                    // are rare and the region is slice-bounded.)
                    let mut resync = self.payload_end;
                    for p in self.pos + 1..self.payload_end {
                        if self.indexed
                            && !self.footer_located
                            && self.bytes[p..].starts_with(crate::index::FOOTER_MAGIC)
                        {
                            // Stop at the footer boundary; the guard above
                            // skips the rest on the next call.
                            resync = p;
                            break;
                        }
                        if (tag::SYMBOL..=tag::EP_END).contains(&self.bytes[p]) {
                            let mut probe = &self.bytes[p..self.payload_end];
                            if read_record(&mut probe).is_ok() {
                                resync = p;
                                break;
                            }
                        }
                    }
                    let skipped = (resync - self.pos) as u64;
                    self.pos = resync;
                    return Some(SalvageEvent::Skip {
                        at,
                        context: "record",
                        detail: e.to_string(),
                        bytes_skipped: skipped,
                    });
                }
            }
        }
        self.finished = true;
        if let Some(declared) = self.declared {
            if declared != self.decoded {
                return Some(SalvageEvent::Skip {
                    at: self.payload_end as u64,
                    context: "record count",
                    detail: format!("declared {declared}, decoded {}", self.decoded),
                    bytes_skipped: 0,
                });
            }
        }
        None
    }
}

/// What the salvage scan recovered from a binary trace, besides the
/// episodes it handed out.
pub(crate) struct SalvageScan {
    pub(crate) meta: SessionMeta,
    pub(crate) records: SessionRecords,
    /// One extent per recovered episode, each carrying the number of
    /// skips stepped over since the previous recovery.
    pub(crate) extents: Vec<EpisodeExtent>,
    pub(crate) report: SalvageReport,
}

/// The one salvage scan of a binary trace, behind both
/// [`read_salvage`] and [`IndexedTrace::open_salvage`](crate::IndexedTrace::open_salvage):
/// the cursor resynchronizes past damage, the assembler turns the records
/// it finds into episodes and session-level records, and the extent table
/// is rebuilt alongside. Each recovered episode is handed to `keep`, in
/// order.
///
/// # Errors
///
/// Fails only when the input is unrecoverable (bad magic, or a header too
/// damaged to establish the session metadata).
pub(crate) fn salvage_scan(
    bytes: &[u8],
    mut keep: impl FnMut(Episode),
) -> Result<SalvageScan, TraceError> {
    let mut cursor = SalvageCursor::new(bytes)?;
    let mut assembler = Assembler::new();
    let mut extents = Vec::new();
    let mut last_begin = 0;
    let mut skips_attributed = 0;
    while let Some(event) = cursor.next_event() {
        match event {
            SalvageEvent::Record { at, record } => {
                if matches!(record, TraceRecord::EpisodeBegin { .. }) {
                    last_begin = at;
                }
                if let Some(episode) = assembler.push(SkipAt::Byte(at), record) {
                    let skips_now = assembler.report().skips.len();
                    let len = cursor.pos as u64 - last_begin;
                    extents.push(EpisodeExtent {
                        skips: (skips_now - skips_attributed).min(u32::MAX as usize) as u32,
                        ..EpisodeExtent::of_episode(&episode, last_begin, len)
                    });
                    skips_attributed = skips_now;
                    keep(episode);
                }
            }
            SalvageEvent::Skip {
                at,
                context,
                detail,
                bytes_skipped,
            } => {
                assembler.note_bytes_skipped(bytes_skipped);
                assembler.note_skip(SkipAt::Byte(at), context, detail);
            }
        }
    }
    assembler.end_of_input(SkipAt::Byte(cursor.pos as u64));
    assembler.set_checksum(cursor.checksum_ok);
    let (records, report) = assembler.finish();
    Ok(SalvageScan {
        meta: cursor.meta,
        records,
        extents,
        report,
    })
}

/// Salvage-decodes a binary trace: recovers every intact episode, skipping
/// damaged regions, and reports what was lost.
///
/// This is the salvage reference decoder: it keeps every episode of the
/// salvage scan that [`IndexedTrace::open_salvage`](crate::IndexedTrace::open_salvage)
/// runs, so the two agree on what survives. On a clean input this returns
/// exactly what [`read`] returns, plus a report whose
/// [`SalvageReport::is_clean`] holds.
///
/// # Errors
///
/// Fails only when the input is unrecoverable (bad magic, or a header too
/// damaged to establish the session metadata).
pub fn read_salvage(bytes: &[u8]) -> Result<Salvaged, TraceError> {
    let mut episodes = Vec::new();
    let scan = salvage_scan(bytes, |episode| episodes.push(episode))?;
    Ok(Salvaged {
        trace: build_session(scan.meta, episodes, scan.records),
        report: scan.report,
    })
}

pub(crate) fn write_header<W: Write>(meta: &SessionMeta, w: &mut W) -> Result<(), TraceError> {
    varint::write_str(w, &meta.application)?;
    varint::write_u32(w, meta.session.as_raw())?;
    varint::write_u32(w, meta.gui_thread.as_raw())?;
    varint::write_u64(w, meta.end_to_end.as_nanos())?;
    varint::write_u64(w, meta.filter_threshold.as_nanos())?;
    Ok(())
}

pub(crate) fn read_header<R: Read>(r: &mut R) -> Result<SessionMeta, TraceError> {
    Ok(SessionMeta {
        application: varint::read_str(r)?,
        session: SessionId::from_raw(varint::read_u32(r)?),
        gui_thread: ThreadId::from_raw(varint::read_u32(r)?),
        end_to_end: DurationNs::from_nanos(varint::read_u64(r)?),
        filter_threshold: DurationNs::from_nanos(varint::read_u64(r)?),
    })
}

/// Writes one lowered record; [`write_lowered`]'s encoding.
#[cfg(test)]
fn write_record<W: Write>(rec: &TraceRecord, w: &mut W) -> Result<(), TraceError> {
    match rec {
        TraceRecord::Symbol { id, name } => {
            w.write_all(&[tag::SYMBOL])?;
            varint::write_u32(w, id.as_raw())?;
            varint::write_str(w, name)?;
        }
        TraceRecord::Gc(gc) => {
            w.write_all(&[tag::GC])?;
            varint::write_u64(w, gc.start.as_nanos())?;
            varint::write_u64(w, gc.end.as_nanos())?;
            w.write_all(&[u8::from(gc.major)])?;
        }
        TraceRecord::ShortEpisodes { count, total } => {
            w.write_all(&[tag::SHORT])?;
            varint::write_u64(w, *count)?;
            varint::write_u64(w, total.as_nanos())?;
        }
        TraceRecord::EpisodeBegin { id, thread } => {
            w.write_all(&[tag::EP_BEGIN])?;
            varint::write_u32(w, id.as_raw())?;
            varint::write_u32(w, thread.as_raw())?;
        }
        TraceRecord::Enter { kind, symbol, at } => {
            w.write_all(&[tag::ENTER, kind.tag()])?;
            match symbol {
                Some(m) => {
                    w.write_all(&[1])?;
                    varint::write_u32(w, m.class.as_raw())?;
                    varint::write_u32(w, m.method.as_raw())?;
                }
                None => w.write_all(&[0])?,
            }
            varint::write_u64(w, at.as_nanos())?;
        }
        TraceRecord::Exit { at } => {
            w.write_all(&[tag::EXIT])?;
            varint::write_u64(w, at.as_nanos())?;
        }
        TraceRecord::Sample(snap) => {
            w.write_all(&[tag::SAMPLE])?;
            varint::write_u64(w, snap.time.as_nanos())?;
            varint::write_u64(w, snap.threads.len() as u64)?;
            for ts in &snap.threads {
                varint::write_u32(w, ts.thread.as_raw())?;
                w.write_all(&[ts.state.tag()])?;
                varint::write_u64(w, ts.stack.len() as u64)?;
                for frame in &ts.stack {
                    varint::write_u32(w, frame.method.class.as_raw())?;
                    varint::write_u32(w, frame.method.method.as_raw())?;
                    w.write_all(&[u8::from(frame.native)])?;
                }
            }
        }
        TraceRecord::EpisodeEnd => w.write_all(&[tag::EP_END])?,
    }
    Ok(())
}

fn read_byte<R: Read>(r: &mut R) -> Result<u8, TraceError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_bool<R: Read>(r: &mut R, context: &'static str) -> Result<bool, TraceError> {
    match read_byte(r)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(TraceError::corrupt(context, format!("bad bool {other}"))),
    }
}

pub(crate) fn read_record<R: Read>(r: &mut R) -> Result<TraceRecord, TraceError> {
    const MAX_VEC: u64 = 1 << 24;
    match read_byte(r)? {
        tag::SYMBOL => Ok(TraceRecord::Symbol {
            id: SymbolId::from_raw(varint::read_u32(r)?),
            name: varint::read_str(r)?,
        }),
        tag::GC => {
            let start = TimeNs::from_nanos(varint::read_u64(r)?);
            let end = TimeNs::from_nanos(varint::read_u64(r)?);
            if end < start {
                return Err(TraceError::corrupt("gc record", "end precedes start"));
            }
            let major = read_bool(r, "gc record")?;
            Ok(TraceRecord::Gc(GcEvent { start, end, major }))
        }
        tag::SHORT => Ok(TraceRecord::ShortEpisodes {
            count: varint::read_u64(r)?,
            total: DurationNs::from_nanos(varint::read_u64(r)?),
        }),
        tag::EP_BEGIN => Ok(TraceRecord::EpisodeBegin {
            id: EpisodeId::from_raw(varint::read_u32(r)?),
            thread: ThreadId::from_raw(varint::read_u32(r)?),
        }),
        tag::ENTER => {
            let kind_tag = read_byte(r)?;
            let kind = IntervalKind::from_tag(kind_tag).ok_or_else(|| {
                TraceError::corrupt("enter record", format!("bad kind tag {kind_tag}"))
            })?;
            let symbol = if read_bool(r, "enter record")? {
                Some(MethodRef {
                    class: SymbolId::from_raw(varint::read_u32(r)?),
                    method: SymbolId::from_raw(varint::read_u32(r)?),
                })
            } else {
                None
            };
            Ok(TraceRecord::Enter {
                kind,
                symbol,
                at: TimeNs::from_nanos(varint::read_u64(r)?),
            })
        }
        tag::EXIT => Ok(TraceRecord::Exit {
            at: TimeNs::from_nanos(varint::read_u64(r)?),
        }),
        tag::SAMPLE => {
            let time = TimeNs::from_nanos(varint::read_u64(r)?);
            let n_threads = varint::read_u64(r)?;
            if n_threads > MAX_VEC {
                return Err(TraceError::corrupt("sample record", "thread count cap"));
            }
            // Bound the upfront allocation: each element still has to be
            // decoded from real input bytes, so growth is paced by the
            // input rather than by a (possibly corrupt) declared count.
            let mut threads = Vec::with_capacity(n_threads.min(1024) as usize);
            for _ in 0..n_threads {
                let thread = ThreadId::from_raw(varint::read_u32(r)?);
                let state_tag = read_byte(r)?;
                let state = ThreadState::from_tag(state_tag).ok_or_else(|| {
                    TraceError::corrupt("sample record", format!("bad state tag {state_tag}"))
                })?;
                let n_frames = varint::read_u64(r)?;
                if n_frames > MAX_VEC {
                    return Err(TraceError::corrupt("sample record", "frame count cap"));
                }
                let mut stack = Vec::with_capacity(n_frames.min(1024) as usize);
                for _ in 0..n_frames {
                    let method = MethodRef {
                        class: SymbolId::from_raw(varint::read_u32(r)?),
                        method: SymbolId::from_raw(varint::read_u32(r)?),
                    };
                    let native = read_bool(r, "sample record")?;
                    stack.push(StackFrame { method, native });
                }
                threads.push(ThreadSample::new(thread, state, stack));
            }
            Ok(TraceRecord::Sample(SampleSnapshot::new(time, threads)))
        }
        tag::EP_END => Ok(TraceRecord::EpisodeEnd),
        other => Err(TraceError::corrupt(
            "record tag",
            format!("unknown tag {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::rollup::Rollup;
    use crate::test_traces::{build_trace, episode_spec};
    use crate::text;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn fixture() -> SessionTrace {
        let meta = SessionMeta {
            application: "JEdit".into(),
            session: SessionId::from_raw(3),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(502),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let listener = b
            .symbols_mut()
            .method("org.gjt.sp.jedit.Buffer", "keyTyped");
        let native = b.symbols_mut().method("sun.java2d.loops.Blit", "Blit");

        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.enter(IntervalKind::Listener, Some(listener), ms(1))
            .unwrap();
        t.leaf(IntervalKind::Native, Some(native), ms(5), ms(20))
            .unwrap();
        t.leaf(IntervalKind::Gc, None, ms(30), ms(45)).unwrap();
        t.exit(ms(100)).unwrap();
        t.exit(ms(104)).unwrap();
        let snap = SampleSnapshot::new(
            ms(10),
            vec![
                ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Runnable,
                    vec![StackFrame::native(native), StackFrame::java(listener)],
                ),
                ThreadSample::new(ThreadId::from_raw(1), ThreadState::Waiting, vec![]),
            ],
        );
        let e = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .sample(snap)
            .build()
            .unwrap();
        b.push_episode(e).unwrap();
        b.add_short_episodes(117_615, DurationNs::from_secs(30));
        b.push_gc(GcEvent {
            start: ms(30),
            end: ms(45),
            major: true,
        });
        b.finish()
    }

    fn encode(trace: &SessionTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        write(trace, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = fixture();
        let buf = encode(&trace);
        let back = read(&mut buf.as_slice()).unwrap();
        assert_eq!(back.meta(), trace.meta());
        assert_eq!(back.episodes(), trace.episodes());
        assert_eq!(back.short_episode_count(), trace.short_episode_count());
        assert_eq!(back.short_episode_time(), trace.short_episode_time());
        assert_eq!(back.gc_events(), trace.gc_events());
    }

    #[test]
    fn binary_and_text_agree() {
        let trace = fixture();
        let bin = read(&mut encode(&trace).as_slice()).unwrap();
        let mut txt_buf = Vec::new();
        text::write(&trace, &mut txt_buf).unwrap();
        let txt = text::read(&mut txt_buf.as_slice()).unwrap();
        assert_eq!(bin.episodes(), txt.episodes());
        assert_eq!(bin.meta(), txt.meta());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode(&fixture());
        buf[0] = b'X';
        assert!(matches!(
            read(&mut buf.as_slice()),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = encode(&fixture());
        buf[7] = 99;
        assert!(matches!(
            read(&mut buf.as_slice()),
            Err(TraceError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn flipped_payload_bit_caught_by_checksum_or_decoder() {
        let trace = fixture();
        let buf = encode(&trace);
        // Flip every byte (one at a time) in the payload region and require
        // the reader to notice.
        let payload_end = buf.len() - 8;
        for i in 8..payload_end {
            let mut corrupted = buf.clone();
            corrupted[i] ^= 0x01;
            assert!(
                read(&mut corrupted.as_slice()).is_err(),
                "flip at offset {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let buf = encode(&fixture());
        for cut in [buf.len() - 1, buf.len() / 2, 9] {
            assert!(read(&mut buf[..cut].as_ref()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailer_corruption_detected() {
        let mut buf = encode(&fixture());
        let n = buf.len();
        buf[n - 1] ^= 0xff;
        assert!(matches!(
            read(&mut buf.as_slice()),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }

    /// `trace` with GC events `(start ms, length ms, major)` added.
    fn with_gc(trace: &SessionTrace, gc: &[(u64, u64, bool)]) -> SessionTrace {
        let mut b = SessionTraceBuilder::new(trace.meta().clone(), trace.symbols().clone());
        for episode in trace.episodes() {
            b.push_episode(episode.clone()).unwrap();
        }
        for &(start, len, major) in gc {
            b.push_gc(GcEvent {
                start: ms(start),
                end: ms(start + len),
                major,
            });
        }
        b.add_short_episodes(trace.short_episode_count(), trace.short_episode_time());
        b.finish()
    }

    /// `write`, `write_legacy` and `write_with_rollup` each write the
    /// bytes the record-lowering reference writes for `trace`.
    fn writers_match_reference(trace: &SessionTrace) -> Result<(), String> {
        let rollup = Rollup::placeholder(trace);
        for (name, with_footer, rollup) in [
            ("write", true, None),
            ("write_legacy", false, None),
            ("write_with_rollup", true, Some(rollup)),
        ] {
            let mut got = Vec::new();
            match (&rollup, with_footer) {
                (Some(rollup), _) => write_with_rollup(trace, &mut got, rollup.clone()),
                (None, true) => write(trace, &mut got),
                (None, false) => write_legacy(trace, &mut got),
            }
            .unwrap();
            let mut want = Vec::new();
            write_lowered(trace, &mut want, with_footer, rollup).unwrap();
            if got != want {
                let at = got.iter().zip(&want).position(|(a, b)| a != b);
                return Err(format!(
                    "{name}: {} vs {} bytes, first difference at {at:?}",
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }

    proptest! {
        /// Episodes written straight from their arrays give the bytes
        /// their lowered records give, for every writer.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn writers_match_the_lowering_reference(
            specs in proptest::collection::vec(episode_spec(), 0..10),
            short in 0u64..1_000_000,
            gc in proptest::collection::vec((0u64..20_000, 0u64..50, any::<bool>()), 0..4),
        ) {
            let trace = with_gc(&build_trace(&specs, short), &gc);
            prop_assert_eq!(writers_match_reference(&trace), Ok(()));
        }
    }

    /// The same over the simulated seed-42 suite (14 applications × 4
    /// sessions), which takes seconds in a release build.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-mode simulation of the seed-42 suite"
    )]
    fn writers_match_the_lowering_reference_on_the_seed_42_suite() {
        for profile in lagalyzer_sim::apps::standard_suite() {
            for session in 0..4 {
                let trace = lagalyzer_sim::runner::simulate_session(&profile, session, 42);
                let matched = writers_match_reference(&trace);
                assert_eq!(matched, Ok(()), "{} session {session}", profile.name);
            }
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let meta = SessionMeta {
            application: String::new(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::ZERO,
            filter_threshold: DurationNs::ZERO,
        };
        let trace = SessionTraceBuilder::new(meta, SymbolTable::new()).finish();
        let back = read(&mut encode(&trace).as_slice()).unwrap();
        assert!(back.episodes().is_empty());
    }
}
