//! Multi-session corpus container (`.lgzc`): many traces, one file.
//!
//! The analyses serve fleets of sessions, but a `.lgz` file holds exactly
//! one: N sessions cost N opens, N symbol tables, and N copies of the
//! same method names. The corpus container packs many sessions into one
//! file with a **corpus-wide deduplicated symbol table** (every string
//! stored once, per-session tables reconstructed through a dense remap),
//! a **section index** with per-section compression flags (episode
//! payloads may be stored raw or through the crate's own hand-rolled LZ
//! codec), and the per-file episode extent index promoted to a
//! **corpus-level index** — any episode of any session is addressable in
//! O(1) without decoding its neighbors.
//!
//! Layout (integers little-endian; varints are LEB128 as in `.lgz`):
//!
//! ```text
//! magic        8 bytes  b"LGLZCRP\x02" (the last byte is the version)
//! header       flags u32, session count u32, then five u64 region
//!              offsets: strings, sessions, sections, extents, data
//! strings      corpus-global deduplicated string pool: count, then
//!              len+utf8 per string (dense global symbol ids, in order)
//! sessions     per session: the .lgz header fields, index health,
//!              provenance (salvaged/damaged flags, skip + lost counts),
//!              the local→global symbol remap, GC events, short-episode
//!              counters
//! sections     one record per section: kind, session, compression
//!              flags, offset into the data region, stored len, raw len.
//!              Exactly one payload section per session (kind 0, in
//!              session order); an optional rollup cache per session
//!              (kind 1); unknown kinds are skipped by readers
//! extents      per session: the extent table (same delta-coded wire
//!              shape as the v2 footer), offsets relative to the
//!              session's decompressed payload
//! data         concatenated payload sections (episode record bytes
//!              only — session-level records are hoisted into the
//!              directory regions above)
//! trailer      8 bytes LE checksum over everything between magic and
//!              trailer
//! ```
//!
//! Versions 1 and 2 share this layout byte for byte. The version byte
//! selects the hash of the trailer and of every rollup's content checksum
//! ([`crate::checksum`]): FNV-1a for v1, the four-lane
//! [`Algorithm::Lane4`] for v2. [`pack`] and [`compact`] write v2, so
//! compacting a v1 corpus upgrades it; both versions read through the
//! same code.
//!
//! Because a session's payload is the byte-for-byte concatenation of its
//! episode extents and both containers decode through
//! [`SessionSource`], decoding a session out of a corpus is
//! byte-identical to opening its original `.lgz` and calling
//! [`IndexedTrace::par_decode`] — property-tested in
//! `tests/corpus_store.rs`. A whole corpus folds in one pass:
//! [`CorpusReader::fold`] and [`CorpusReader::par_decode`] run the sharded
//! fold every session decode runs over every member's extents as one flat
//! slot space, each member's result is its own [`SessionSource::fold`]'s,
//! and the first member that fails decides the error.
//!
//! [`CorpusReader::open`] only locates the payload sections. A decode that
//! reads a member with an LZ section decompresses it on the worker that
//! decodes it, into that worker's one payload buffer, which the member's
//! later extents reuse and the next member's decompression overwrites: a
//! decode holds at most one decompressed member per worker, and a caller
//! that reads one member decompresses only that one.
//!
//! [`pack`] and [`compact`] write through one streaming writer that takes
//! a session at a time. [`compact`] folds each session as it decodes and
//! re-encodes every decoded episode straight into the session's new
//! payload; a stored LZ section whose payload comes out unchanged is
//! copied as stored instead of being compressed again. It never holds a
//! decoded session (except one handed to a rollup builder) and holds one
//! session's decompressed payload and one session's new payload at a
//! time.

use std::ops::Range;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use lagalyzer_model::{
    fold_episodes, Analysis, DurationNs, Episode, GcEvent, Scope, SessionMeta, SessionTrace,
    SymbolId, SymbolTable, TimeNs,
};

use crate::binary::{read_header, write_header};
use crate::checksum::Algorithm;
use crate::error::TraceError;
use crate::index::{
    decode_extents, encode_extents_into, EpisodeExtent, EpisodeFilter, IndexHealth, IndexedTrace,
};
use crate::record::SessionRecords;
use crate::rollup::{Rollup, RollupHealth};
use crate::salvage::{DamageVerdict, SalvageReport};
use crate::source::{Payload, RollupRef, SessionSource, ShardedFold};
use crate::varint;

/// The version-independent corpus signature (byte 8 is the version).
pub(crate) const CORPUS_MAGIC_PREFIX: &[u8] = b"LGLZCRP";

/// The current corpus format: prefix plus version byte 2 (the v1 layout
/// with four-lane checksums).
const CORPUS_MAGIC: &[u8; 8] = b"LGLZCRP\x02";

/// Fixed header size: magic, flags, session count, five region offsets.
const HEADER_LEN: usize = 8 + 4 + 4 + 5 * 8;

/// Header flag: at least one section is LZ-compressed (advisory; the
/// authoritative bit is per-section).
const FLAG_COMPRESSED: u32 = 1;

/// Section kinds. Payload sections are mandatory (exactly one per
/// session, in session order); every other kind is optional. Section
/// index records are self-delimiting (kind, session, flags, offset,
/// stored len, raw len), so readers skip unknown kinds instead of
/// rejecting the corpus (forward-compat, DESIGN 5e).
const SECTION_PAYLOAD: u8 = 0;

/// Optional per-session rollup cache: the encoded rollup payload
/// (possibly LZ-compressed). Ignored when stale or malformed — the warm
/// path silently falls back to decoding.
const SECTION_ROLLUP: u8 = 1;

/// Per-section flag: the stored bytes are LZ-compressed.
const SECTION_FLAG_LZ: u8 = 1;

/// Caps that keep a corrupt (but checksum-valid) header from forcing
/// absurd allocations.
const MAX_SESSIONS: u64 = 1 << 20;
const MAX_STRINGS: u64 = 1 << 28;
const MAX_STRING_LEN: u64 = 1 << 20;
const MAX_RAW_SECTION: u64 = 1 << 30;

/// `true` when `bytes` carry the corpus signature (any version) — the
/// sniff the CLI uses to route a file to [`CorpusReader`] instead of the
/// single-trace codecs.
pub fn is_corpus(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..7] == CORPUS_MAGIC_PREFIX
}

/// Options for [`pack`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PackOptions {
    /// LZ-compress each session's payload section. The corpus remains
    /// byte-identical to decode; only the stored bytes differ.
    pub compress: bool,
}

/// What salvage did to a session before it was packed. Compaction carries
/// it over, so a compacted corpus still reports its history.
#[derive(Clone, Copy, Debug, Default)]
struct Provenance {
    /// Packed from a salvage-mode open: decoding is lenient, mirroring
    /// [`IndexedTrace::open_salvage`].
    salvaged: bool,
    /// Salvage actually skipped bytes or lost episodes.
    damaged: bool,
    /// Salvage skip regions.
    skips: u64,
    /// Episodes lost to salvage.
    episodes_lost: u64,
}

impl Provenance {
    /// The provenance of a trace opened with `report` (`None` for a strict
    /// open).
    fn of_report(report: Option<&SalvageReport>) -> Provenance {
        Provenance {
            salvaged: report.is_some(),
            damaged: report.is_some_and(|r| !r.is_clean()),
            skips: report.map_or(0, |r| r.skips.len() as u64),
            episodes_lost: report.map_or(0, |r| r.episodes_lost),
        }
    }
}

/// Everything the writer stores for one session: its directory entry
/// (header, index health, provenance, and the session-level records
/// hoisted out of the episode stream), its extents over its payload, and
/// its rollup.
struct PackSession<'a> {
    meta: &'a SessionMeta,
    symbols: &'a SymbolTable,
    gc_events: &'a [GcEvent],
    short_count: u64,
    short_time: DurationNs,
    health: &'a IndexHealth,
    provenance: Provenance,
    extents: &'a [EpisodeExtent],
    payload: &'a [u8],
    /// The payload's LZ token stream as the input stores it, written in
    /// place of compressing the payload again (see
    /// [`compact_with_rollups`]).
    kept: Option<&'a [u8]>,
    rollup: Option<&'a Rollup>,
}

/// A session's episodes as their records encode: the payload, and one
/// extent per episode with offsets into it.
#[derive(Default)]
struct Encoded {
    payload: Vec<u8>,
    extents: Vec<EpisodeExtent>,
}

impl Encoded {
    /// Rebases one opened trace: concatenates its episode extents into a
    /// dense payload (dropping inter-extent bytes — session-level records
    /// are hoisted, salvage garbage is simply not copied) and rewrites
    /// the extent offsets to match.
    fn of_indexed(trace: &IndexedTrace) -> Encoded {
        let total: u64 = trace.extents().iter().map(|e| e.len).sum();
        let mut encoded = Encoded {
            payload: Vec::with_capacity(total as usize),
            extents: Vec::with_capacity(trace.extents().len()),
        };
        for (i, extent) in trace.extents().iter().enumerate() {
            encoded.extents.push(EpisodeExtent {
                offset: encoded.payload.len() as u64,
                ..*extent
            });
            encoded.payload.extend_from_slice(trace.episode_bytes(i));
        }
        encoded
    }
}

/// Re-encodes decoded episodes, in order, into one payload: each after
/// the ones already in its shard, with the extent the episode itself
/// gives, and the shards joined in order.
struct Encode;

impl Analysis for Encode {
    type Shard = Encoded;
    type Output = Encoded;

    fn shard(&self, _: Scope<'_>) -> Encoded {
        Encoded::default()
    }

    fn push(&self, _: Scope<'_>, encoded: &mut Encoded, _: usize, episode: &Episode) {
        let offset = encoded.payload.len() as u64;
        crate::binary::write_episode(episode, &mut encoded.payload)
            .expect("a Vec write cannot fail");
        let len = encoded.payload.len() as u64 - offset;
        encoded
            .extents
            .push(EpisodeExtent::of_episode(episode, offset, len));
    }

    fn finish(&self, _: Scope<'_>, shards: Vec<Encoded>) -> Encoded {
        let mut shards = shards.into_iter();
        let mut encoded = shards.next().unwrap_or_default();
        for next in shards {
            let base = encoded.payload.len() as u64;
            encoded.payload.extend_from_slice(&next.payload);
            let rebased = next.extents.into_iter().map(|e| EpisodeExtent {
                offset: base + e.offset,
                ..e
            });
            encoded.extents.extend(rebased);
        }
        encoded
    }
}

/// Packs opened traces into one corpus file.
///
/// Symbols are interned **once corpus-wide**: every session's local
/// table is folded into a single deduplicated string pool, and each
/// session keeps only a dense local→global id remap — decoding restores
/// the exact per-session tables, so corpus decodes stay byte-identical
/// to per-file ones.
///
/// # Errors
///
/// Fails on a symbol table with an unresolvable id (impossible for
/// tables produced by the decoders) or an I/O-level encoding failure.
pub fn pack(traces: &[IndexedTrace], options: PackOptions) -> Result<Vec<u8>, TraceError> {
    pack_with_rollups(traces, Vec::new(), options)
}

/// Like [`pack`], but attaches externally built rollup caches: `built[i]`
/// (when `Some`) is used for session `i` if its trace does not already
/// carry a validated rollup. Content checksums are recomputed over the
/// rebased payloads at write time, so carried and supplied rollups are
/// equally trustworthy; `built` may be shorter than `traces` (missing
/// tails mean "no cache").
///
/// # Errors
///
/// Same failure modes as [`pack`].
pub fn pack_with_rollups(
    traces: &[IndexedTrace],
    mut built: Vec<Option<Rollup>>,
    options: PackOptions,
) -> Result<Vec<u8>, TraceError> {
    built.resize(traces.len(), None);
    let mut writer = CorpusWriter::new(options);
    for (trace, extra) in traces.iter().zip(&built) {
        let rebased = Encoded::of_indexed(trace);
        writer.add(&PackSession {
            meta: trace.meta(),
            symbols: trace.symbols(),
            gc_events: trace.gc_events(),
            short_count: trace.short_episode_count(),
            short_time: trace.short_episode_time(),
            health: trace.health(),
            provenance: Provenance::of_report(trace.salvage_report()),
            extents: &rebased.extents,
            payload: &rebased.payload,
            kept: None,
            rollup: trace.rollup().or(extra.as_ref()),
        })?;
    }
    writer.finish()
}

/// Re-packs an already-open corpus, dropping every byte salvage had to
/// step over. Each session is folded as it decodes, with the checks and
/// the ordering rule of every decode (a salvaged session drops what its
/// lenient decode drops), and each decoded episode is re-encoded into the
/// session's new payload, so payloads contain exactly the surviving
/// episodes' records and the global string pool is re-deduplicated from
/// the surviving sessions. Provenance (salvaged/damaged flags, skip and
/// lost counts) is carried over so a compacted corpus still reports its
/// history.
///
/// With `compress`, a session whose re-encoded payload equals its stored
/// LZ section's decompressed bytes keeps that section's stored tokens
/// instead of compressing the payload again: the compressor is
/// deterministic, so for every corpus this codebase wrote the result is
/// the bytes compression would give. Every other payload is compressed
/// when that makes it smaller, and stored raw otherwise.
///
/// Compacting an already-compact corpus is byte-identical (idempotent):
/// re-encoding canonical payloads is a fixed point.
///
/// # Errors
///
/// Propagates decode or re-encode failures.
pub fn compact(
    reader: &CorpusReader,
    jobs: usize,
    options: PackOptions,
) -> Result<Vec<u8>, TraceError> {
    compact_with_rollups(reader, jobs, options, None)
}

/// Like [`compact`], but rebuilds missing rollup caches: sessions whose
/// original entry carried a valid rollup keep it (summaries are semantic,
/// so canonical re-encoding does not invalidate them; the content
/// checksum is recomputed at write time), and each session without one is
/// decoded alone and handed to `build` (when provided) as a trace.
///
/// Compaction holds the opened corpus, the output, and one session's
/// decompressed and re-encoded payloads at a time (plus, for `build`, that
/// session's decoded trace). Each LZ section is decompressed once: the
/// rollup check, the fold and the comparison that keeps the stored tokens
/// all read that one copy.
///
/// # Errors
///
/// Same failure modes as [`compact`], and a payload section that does not
/// decompress.
pub fn compact_with_rollups(
    reader: &CorpusReader,
    jobs: usize,
    options: PackOptions,
    build: Option<&dyn Fn(&SessionTrace) -> Rollup>,
) -> Result<Vec<u8>, TraceError> {
    let mut writer = CorpusWriter::new(options);
    let mut buffer = Vec::new();
    for view in reader.sessions() {
        let payload = reader.payload_into(view.index(), &mut buffer)?;
        let source = SessionSource {
            payload: Payload::Bytes(payload),
            ..view.source()
        };
        let carried = reader
            .validated_rollup(view.index(), Some(payload))
            .0
            .as_ref();
        let (encoded, built) = match (carried, build) {
            (None, Some(build)) => {
                let trace = source.decode(jobs)?;
                let encoded = fold_episodes(&Encode, Scope::of_trace(&trace), trace.episodes(), 1);
                (encoded, Some(build(&trace)))
            }
            _ => (source.fold(jobs, &EpisodeFilter::default(), &Encode)?, None),
        };
        // What a decoded trace re-encoded and reopened holds: GC events
        // sorted by start, and no short-episode time without a count (the
        // writer emits no short-episode record then).
        let mut gc_events = source.gc_events().to_vec();
        gc_events.sort_by_key(|gc| gc.start);
        let short_count = source.short_episode_count();
        let short_time = if short_count == 0 {
            DurationNs::ZERO
        } else {
            source.short_episode_time()
        };
        let entry = reader.entry(view.index());
        let kept = (entry.compressed
            && options.compress
            && entry.stored.len() < payload.len()
            && encoded.payload == payload)
            .then(|| &reader.bytes[entry.stored.clone()]);
        writer.add(&PackSession {
            meta: source.meta(),
            symbols: source.symbols(),
            gc_events: &gc_events,
            short_count,
            short_time,
            health: &IndexHealth::FooterValid,
            provenance: entry.provenance,
            extents: &encoded.extents,
            payload: &encoded.payload,
            kept,
            rollup: carried.or(built.as_ref()),
        })?;
    }
    writer.finish()
}

/// The compaction [`compact_with_rollups`] replaced, kept as the
/// reference it is held to: it decodes the whole corpus at once,
/// re-encodes each session as a `.lgz` with the record-lowering writer,
/// reopens that file and packs what the open found, compressing every
/// payload again.
#[cfg(test)]
fn compact_reference(
    reader: &CorpusReader,
    jobs: usize,
    options: PackOptions,
    build: Option<&dyn Fn(&SessionTrace) -> Rollup>,
) -> Result<Vec<u8>, TraceError> {
    let decoded = reader.par_decode(jobs)?;
    let mut writer = CorpusWriter::new(options);
    for (i, trace) in decoded.iter().enumerate() {
        let mut buf = Vec::new();
        crate::binary::write_lowered(trace, &mut buf, true, None)?;
        let indexed = IndexedTrace::open(buf)?;
        let rebased = Encoded::of_indexed(&indexed);
        let rollup = reader
            .validated_rollup(i, None)
            .0
            .clone()
            .or_else(|| build.map(|build| build(trace)));
        writer.add(&PackSession {
            meta: indexed.meta(),
            symbols: indexed.symbols(),
            gc_events: indexed.gc_events(),
            short_count: indexed.short_episode_count(),
            short_time: indexed.short_episode_time(),
            // The re-encoded bytes are clean; the history is the original's.
            health: &IndexHealth::FooterValid,
            provenance: reader.entry(i).provenance,
            extents: &rebased.extents,
            payload: &rebased.payload,
            kept: None,
            rollup: rollup.as_ref(),
        })?;
    }
    writer.finish()
}

fn health_tag(health: &IndexHealth) -> (u8, &str) {
    match health {
        IndexHealth::FooterValid => (0, ""),
        IndexHealth::FooterAbsent => (1, ""),
        IndexHealth::FooterInvalid(reason) => (2, reason),
        IndexHealth::SalvageScan => (3, ""),
    }
}

fn health_of_tag(tag: u8, reason: String) -> Result<IndexHealth, TraceError> {
    match tag {
        0 => Ok(IndexHealth::FooterValid),
        1 => Ok(IndexHealth::FooterAbsent),
        2 => Ok(IndexHealth::FooterInvalid(reason)),
        3 => Ok(IndexHealth::SalvageScan),
        other => Err(TraceError::corrupt(
            "session directory",
            format!("bad index health tag {other}"),
        )),
    }
}

/// A corpus being written one session at a time: each added session
/// extends the string pool and the directory, section index and extent
/// regions, and its sections go to the data region, so no session is
/// held once it is added. [`finish`](CorpusWriter::finish) lays the
/// regions out behind the header.
struct CorpusWriter {
    options: PackOptions,
    algorithm: Algorithm,
    /// Corpus-global interning: one deduplicated pool; each session's
    /// directory entry holds its remap into it.
    global: SymbolTable,
    sessions: usize,
    directory: Vec<u8>,
    section_count: u64,
    sections: Vec<u8>,
    extents: Vec<u8>,
    data: Vec<u8>,
    any_compressed: bool,
}

impl CorpusWriter {
    fn new(options: PackOptions) -> CorpusWriter {
        CorpusWriter {
            options,
            algorithm: Algorithm::of_corpus_version(CORPUS_MAGIC[7]),
            global: SymbolTable::new(),
            sessions: 0,
            directory: Vec::new(),
            section_count: 0,
            sections: Vec::new(),
            extents: Vec::new(),
            data: Vec::new(),
            any_compressed: false,
        }
    }

    /// Adds the next session.
    fn add(&mut self, session: &PackSession<'_>) -> Result<(), TraceError> {
        let directory = &mut self.directory;
        write_header(session.meta, directory)?;
        let (tag, reason) = health_tag(session.health);
        directory.push(tag);
        varint::write_str(directory, reason)?;
        let provenance = session.provenance;
        directory.push(u8::from(provenance.salvaged) | (u8::from(provenance.damaged) << 1));
        varint::write_u64(directory, provenance.skips)?;
        varint::write_u64(directory, provenance.episodes_lost)?;
        varint::write_u64(directory, session.symbols.len() as u64)?;
        for (_, name) in session.symbols.iter() {
            varint::write_u32(directory, self.global.intern(name).as_raw())?;
        }
        varint::write_u64(directory, session.gc_events.len() as u64)?;
        for gc in session.gc_events {
            varint::write_u64(directory, gc.start.as_nanos())?;
            varint::write_u64(directory, gc.end.as_nanos())?;
            directory.push(u8::from(gc.major));
        }
        varint::write_u64(directory, session.short_count)?;
        varint::write_u64(directory, session.short_time.as_nanos())?;

        let payload = session.payload;
        let stored = match session.kept {
            Some(tokens) => self.append(SECTION_FLAG_LZ, tokens),
            None => self.store(payload),
        };
        self.section(SECTION_PAYLOAD, stored, payload.len())?;
        if let Some(rollup) = session.rollup {
            // The payload is exactly the concatenation of the extent
            // spans, so the content checksum is the hash of the whole
            // payload region; recompute it so a supplied rollup is
            // stamped against the bytes actually written.
            let mut rollup = rollup.clone();
            rollup.content_checksum = self.algorithm.hash(payload);
            let raw = rollup.encode_payload()?;
            let stored = self.store(&raw);
            self.section(SECTION_ROLLUP, stored, raw.len())?;
        }
        encode_extents_into(session.extents, &mut self.extents)?;
        self.sessions += 1;
        Ok(())
    }

    /// Stores `bytes` in the data region, LZ-compressed when the options
    /// ask for it and that makes them smaller (incompressible inputs are
    /// stored raw — never pay stored_len > raw_len). Returns the section's
    /// flags, offset and stored length.
    fn store(&mut self, bytes: &[u8]) -> (u8, u64, u64) {
        if self.options.compress {
            let compressed = lz::compress(bytes);
            if compressed.len() < bytes.len() {
                return self.append(SECTION_FLAG_LZ, &compressed);
            }
        }
        self.append(0, bytes)
    }

    /// Appends a section's stored bytes to the data region.
    fn append(&mut self, flags: u8, stored: &[u8]) -> (u8, u64, u64) {
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(stored);
        self.any_compressed |= flags & SECTION_FLAG_LZ != 0;
        (flags, offset, stored.len() as u64)
    }

    /// Records a section of the session being added in the section index.
    fn section(
        &mut self,
        kind: u8,
        (flags, offset, stored_len): (u8, u64, u64),
        raw_len: usize,
    ) -> Result<(), TraceError> {
        self.sections.push(kind);
        varint::write_u64(&mut self.sections, self.sessions as u64)?;
        self.sections.push(flags);
        varint::write_u64(&mut self.sections, offset)?;
        varint::write_u64(&mut self.sections, stored_len)?;
        varint::write_u64(&mut self.sections, raw_len as u64)?;
        self.section_count += 1;
        Ok(())
    }

    /// The corpus file: header, string pool, directory, section index,
    /// extents, data and trailer.
    fn finish(self) -> Result<Vec<u8>, TraceError> {
        let mut strings = Vec::new();
        varint::write_u64(&mut strings, self.global.len() as u64)?;
        for (_, name) in self.global.iter() {
            varint::write_str(&mut strings, name)?;
        }
        let mut sections = Vec::with_capacity(self.sections.len() + 10);
        varint::write_u64(&mut sections, self.section_count)?;
        sections.extend_from_slice(&self.sections);

        let strings_off = HEADER_LEN as u64;
        let sessions_off = strings_off + strings.len() as u64;
        let sections_off = sessions_off + self.directory.len() as u64;
        let extents_off = sections_off + sections.len() as u64;
        let data_off = extents_off + self.extents.len() as u64;

        let mut out = Vec::with_capacity(data_off as usize);
        out.extend_from_slice(CORPUS_MAGIC);
        let flags = if self.any_compressed {
            FLAG_COMPRESSED
        } else {
            0u32
        };
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(self.sessions as u32).to_le_bytes());
        for off in [
            strings_off,
            sessions_off,
            sections_off,
            extents_off,
            data_off,
        ] {
            out.extend_from_slice(&off.to_le_bytes());
        }
        out.extend_from_slice(&strings);
        out.extend_from_slice(&self.directory);
        out.extend_from_slice(&sections);
        out.extend_from_slice(&self.extents);
        // The data region is the bulk of the file: slide it up behind the
        // other regions in its own buffer rather than copying it.
        let front = out;
        let mut out = self.data;
        out.reserve_exact(front.len() + 8);
        out.splice(0..0, front);
        let checksum = self.algorithm.hash(&out[8..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }
}

/// A corpus member's LZ payload section, located at open: each decode
/// that reads the member decompresses it into its worker's
/// [`PayloadBuffer`].
#[derive(Clone, Copy)]
pub(crate) struct LzSection<'a> {
    stored: &'a [u8],
    raw_len: usize,
    /// The reader's tally, and which member this is.
    #[cfg(test)]
    probe: (&'a LzProbe, usize),
}

impl LzSection<'_> {
    /// `true` when `other` is this section: the same stored bytes with
    /// the same raw length, so the same decompressed payload.
    fn is(&self, other: &LzSection<'_>) -> bool {
        std::ptr::eq(self.stored, other.stored) && self.raw_len == other.raw_len
    }

    /// Decompresses the section into `buffer`, replacing its contents.
    ///
    /// # Errors
    ///
    /// [`TraceError::UnreadablePayload`] wrapping the decompression
    /// failure.
    fn decompress_into(&self, buffer: &mut Vec<u8>) -> Result<(), TraceError> {
        #[cfg(test)]
        self.probe.0.decompressed[self.probe.1].fetch_add(1, Ordering::Relaxed);
        lz::decompress_into(self.stored, self.raw_len, buffer)
            .map_err(|e| TraceError::UnreadablePayload(Box::new(e)))
    }
}

/// A worker's payload buffer: the decompressed bytes of the LZ section it
/// read last, kept for that member's next extent and overwritten, in the
/// same allocation, by the next member's.
#[derive(Default)]
pub(crate) struct PayloadBuffer<'a> {
    /// The section whose decompressed bytes `bytes` holds.
    held: Option<LzSection<'a>>,
    bytes: Vec<u8>,
}

impl<'a> PayloadBuffer<'a> {
    /// `section`'s decompressed bytes, decompressing it unless the buffer
    /// holds them already.
    ///
    /// # Errors
    ///
    /// The section does not decompress; the buffer then holds nothing.
    pub(crate) fn bytes_of(&mut self, section: LzSection<'a>) -> Result<&[u8], TraceError> {
        if !self.held.is_some_and(|held| held.is(&section)) {
            self.hold(None);
            section.decompress_into(&mut self.bytes)?;
            self.hold(Some(section));
        }
        Ok(&self.bytes)
    }

    /// Records which section the buffer holds.
    fn hold(&mut self, section: Option<LzSection<'a>>) {
        #[cfg(test)]
        LzProbe::track(self.held, section);
        self.held = section;
    }
}

#[cfg(test)]
impl Drop for PayloadBuffer<'_> {
    fn drop(&mut self) {
        self.hold(None);
    }
}

/// A reader's tally of LZ payload decompressions, for the tests: per
/// member, and how many worker buffers hold a decompressed member now and
/// at most.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct LzProbe {
    decompressed: Vec<AtomicUsize>,
    held: AtomicUsize,
    peak: AtomicUsize,
}

#[cfg(test)]
impl LzProbe {
    fn new(members: usize) -> LzProbe {
        LzProbe {
            decompressed: (0..members).map(|_| AtomicUsize::new(0)).collect(),
            ..LzProbe::default()
        }
    }

    /// Counts a buffer that starts or stops holding a member.
    fn track(before: Option<LzSection<'_>>, after: Option<LzSection<'_>>) {
        match (before, after) {
            (None, Some(section)) => {
                let probe = section.probe.0;
                let held = probe.held.fetch_add(1, Ordering::SeqCst) + 1;
                probe.peak.fetch_max(held, Ordering::SeqCst);
            }
            (Some(section), None) => {
                section.probe.0.held.fetch_sub(1, Ordering::SeqCst);
            }
            _ => {}
        }
    }

    /// Decompressions of each member so far.
    pub(crate) fn decompressed(&self) -> Vec<usize> {
        let count = |n: &AtomicUsize| n.load(Ordering::SeqCst);
        self.decompressed.iter().map(count).collect()
    }

    /// Buffers holding a member now, and the most at once since the last
    /// call.
    pub(crate) fn held(&self) -> (usize, usize) {
        let held = self.held.load(Ordering::SeqCst);
        (held, self.peak.swap(held, Ordering::SeqCst))
    }
}

/// One session's directory entry, materialized at open time except for
/// the rollup, which is validated on first use.
struct SessionEntry {
    meta: SessionMeta,
    records: SessionRecords,
    health: IndexHealth,
    provenance: Provenance,
    compressed: bool,
    /// The payload section's stored bytes in the corpus.
    stored: Range<usize>,
    /// The payload's length once decompressed (a raw section's stored
    /// length).
    raw_len: usize,
    extents: Vec<EpisodeExtent>,
    /// The session's rollup section, located (not read) at open.
    rollup_section: Option<Section>,
    /// The validated rollup and its health, set at most once by
    /// [`CorpusReader::validated_rollup`].
    rollup: OnceLock<(Option<Rollup>, RollupHealth)>,
}

/// A corpus opened for indexed, zero-copy access.
///
/// Owns the corpus bytes; raw payload sections are borrowed in place.
/// Payload and rollup sections are only located at open. A compressed
/// payload is decompressed by each decode that reads its member, on the
/// worker that decodes it and into that worker's one reused buffer, and
/// is not kept once the decode returns. A rollup section is decompressed,
/// decoded and checked against its member's payload on first use, by
/// [`SessionView::rollup_health`], [`SessionSource::rollup`] or
/// [`compact_with_rollups`], so a caller that only decodes never pays
/// for it. Sessions decode through [`SessionSource`] like
/// [`IndexedTrace`] does, so per-session results are byte-identical to
/// opening the original `.lgz` files.
pub struct CorpusReader {
    bytes: Vec<u8>,
    /// The hash the corpus version selects, for the rollups' content
    /// checksums.
    algorithm: Algorithm,
    global: SymbolTable,
    sessions: Vec<SessionEntry>,
    /// Where the data region starts; section offsets are relative to it.
    data_off: u64,
    #[cfg(test)]
    probe: LzProbe,
}

/// A borrowed view of one session inside a [`CorpusReader`].
#[derive(Clone, Copy)]
pub struct SessionView<'a> {
    reader: &'a CorpusReader,
    index: usize,
}

impl CorpusReader {
    /// Opens a corpus from an owned byte buffer (the mmap-free zero-copy
    /// open: raw payload sections are never copied out of `bytes`),
    /// verifying the trailer checksum with the hash the version byte
    /// selects and materializing the directory and the extent index.
    /// Payload and rollup sections are located, not read: an LZ payload
    /// is decompressed by the decodes that read its member.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, an unsupported version, a checksum mismatch,
    /// or a malformed directory/section/extent region. An LZ payload
    /// section that does not decompress (possible only under a resealed
    /// trailer) fails every decode of its member instead; see
    /// [`CorpusReader::verify_payloads`].
    pub fn open(bytes: Vec<u8>) -> Result<CorpusReader, TraceError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(TraceError::corrupt("corpus header", "input too short"));
        }
        if &bytes[..7] != CORPUS_MAGIC_PREFIX {
            return Err(TraceError::corrupt(
                "corpus magic",
                format!("{:?}", &bytes[..8]),
            ));
        }
        if !(1..=2).contains(&bytes[7]) {
            return Err(TraceError::UnsupportedVersion {
                found: u32::from(bytes[7]),
            });
        }
        let algorithm = Algorithm::of_corpus_version(bytes[7]);
        let payload_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[payload_end..].try_into().expect("8-byte slice"));
        let computed = algorithm.hash(&bytes[8..payload_end]);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let flags = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if flags & !FLAG_COMPRESSED != 0 {
            return Err(TraceError::corrupt(
                "corpus header",
                format!("unknown header flags {flags:#x}"),
            ));
        }
        let session_count = u64::from(u32::from_le_bytes(
            bytes[12..16].try_into().expect("4-byte slice"),
        ));
        if session_count > MAX_SESSIONS {
            return Err(TraceError::corrupt(
                "corpus header",
                format!("{session_count} sessions exceeds cap"),
            ));
        }
        let mut offsets = [0u64; 5];
        for (i, off) in offsets.iter_mut().enumerate() {
            *off = u64::from_le_bytes(
                bytes[16 + i * 8..24 + i * 8]
                    .try_into()
                    .expect("8-byte slice"),
            );
        }
        let [strings_off, sessions_off, sections_off, extents_off, data_off] = offsets;
        let bounds = [
            HEADER_LEN as u64,
            strings_off,
            sessions_off,
            sections_off,
            extents_off,
            data_off,
            payload_end as u64,
        ];
        if bounds.windows(2).any(|w| w[0] > w[1]) {
            return Err(TraceError::corrupt(
                "corpus header",
                "region offsets out of order",
            ));
        }

        let global = read_strings(&bytes[strings_off as usize..sessions_off as usize])?;
        let directory = read_directory(
            &bytes[sessions_off as usize..sections_off as usize],
            session_count,
            &global,
        )?;
        let (sections, rollup_sections) = read_sections(
            &bytes[sections_off as usize..extents_off as usize],
            session_count,
            (payload_end as u64) - data_off,
        )?;

        let mut sessions = Vec::with_capacity(directory.len());
        let extents_bytes = &bytes[..extents_off as usize + (data_off - extents_off) as usize];
        let mut pos = extents_off as usize;
        let extents_end = data_off as usize;
        for ((dir, section), rollup_section) in
            directory.into_iter().zip(&sections).zip(rollup_sections)
        {
            let extents = decode_extents(extents_bytes, &mut pos, extents_end, section.raw_len)?;
            if !section.compressed && section.stored_len != section.raw_len {
                return Err(TraceError::corrupt(
                    "section index",
                    "raw section with stored_len != raw_len",
                ));
            }
            let start = (data_off + section.offset) as usize;
            sessions.push(SessionEntry {
                meta: dir.meta,
                records: dir.records,
                health: dir.health,
                provenance: dir.provenance,
                compressed: section.compressed,
                stored: start..start + section.stored_len as usize,
                raw_len: section.raw_len as usize,
                extents,
                rollup_section,
                rollup: OnceLock::new(),
            });
        }
        if pos != extents_end {
            return Err(TraceError::corrupt(
                "corpus extent index",
                "trailing bytes after the last session's extents",
            ));
        }
        Ok(CorpusReader {
            bytes,
            algorithm,
            global,
            #[cfg(test)]
            probe: LzProbe::new(sessions.len()),
            sessions,
            data_off,
        })
    }

    /// Number of sessions in the corpus.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when the corpus holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Episodes across all sessions (the corpus extent index's size).
    pub fn total_episodes(&self) -> usize {
        self.sessions.iter().map(|entry| entry.extents.len()).sum()
    }

    /// The corpus-wide deduplicated symbol table.
    pub fn global_symbols(&self) -> &SymbolTable {
        &self.global
    }

    /// A view of session `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range (see [`CorpusReader::len`]).
    pub fn session(&self, i: usize) -> SessionView<'_> {
        assert!(i < self.sessions.len(), "no session {i} in the corpus");
        SessionView {
            reader: self,
            index: i,
        }
    }

    /// Iterates the sessions in order.
    pub fn sessions(&self) -> impl Iterator<Item = SessionView<'_>> {
        (0..self.sessions.len()).map(|i| self.session(i))
    }

    /// The corpus-wide damage verdict: the worst per-session verdict
    /// (sessions in a corpus are never `Unrecoverable` — pack refuses
    /// inputs that do not open).
    pub fn damage_verdict(&self) -> DamageVerdict {
        if self.sessions.iter().any(|s| s.provenance.damaged) {
            DamageVerdict::Damaged
        } else {
            DamageVerdict::Clean
        }
    }

    fn entry(&self, i: usize) -> &SessionEntry {
        &self.sessions[i]
    }

    /// Where session `i`'s payload section is stored in the corpus bytes,
    /// and its raw length, when it is LZ-compressed.
    pub(crate) fn lz_payload_section(&self, i: usize) -> Option<(Range<usize>, usize)> {
        let entry = self.sessions.get(i)?;
        entry
            .compressed
            .then(|| (entry.stored.clone(), entry.raw_len))
    }

    /// Session `i`'s payload: a raw section in place, or an LZ section
    /// decompressed into `buffer`.
    fn payload_into<'b>(
        &'b self,
        i: usize,
        buffer: &'b mut Vec<u8>,
    ) -> Result<&'b [u8], TraceError> {
        match self.session(i).payload() {
            Payload::Bytes(bytes) => Ok(bytes),
            Payload::Lz(section) => {
                section.decompress_into(buffer)?;
                Ok(buffer)
            }
        }
    }

    /// Decompresses every LZ payload section in turn, into one buffer,
    /// and checks each member's rollup against its payload while it is
    /// there: every byte a decode or a rollup check would read, without
    /// decoding an episode. `lagalyzer lint` runs it, since
    /// [`open`](CorpusReader::open) does not decompress.
    ///
    /// # Errors
    ///
    /// Fails on the first member, in corpus order, whose payload section
    /// does not decompress ([`TraceError::UnreadablePayload`]).
    pub fn verify_payloads(&self) -> Result<(), TraceError> {
        let mut buffer = Vec::new();
        for i in 0..self.sessions.len() {
            let payload = self.payload_into(i, &mut buffer)?;
            self.validated_rollup(i, Some(payload));
        }
        Ok(())
    }

    /// Session `i`'s rollup and its health: checked on the first call,
    /// against `payload` when the caller holds the session's payload
    /// already, and the result kept for every later one.
    fn validated_rollup(
        &self,
        i: usize,
        payload: Option<&[u8]>,
    ) -> &(Option<Rollup>, RollupHealth) {
        self.sessions[i]
            .rollup
            .get_or_init(|| self.check_rollup(i, payload))
    }

    /// Decodes session `i`'s rollup section and checks it against the
    /// session payload: `payload` when given, else the payload
    /// decompressed into a buffer dropped after the check.
    fn check_rollup(&self, i: usize, payload: Option<&[u8]>) -> (Option<Rollup>, RollupHealth) {
        let entry = &self.sessions[i];
        let content_hash = || {
            let mut buffer = Vec::new();
            let payload = match payload {
                Some(payload) => payload,
                None => self.payload_into(i, &mut buffer)?,
            };
            Ok(self.algorithm.hash(payload))
        };
        open_rollup(
            &self.bytes,
            self.data_off,
            entry.rollup_section.as_ref(),
            entry.extents.len(),
            content_hash,
        )
    }

    /// Sessions whose rollup has been validated so far.
    #[cfg(test)]
    pub(crate) fn rollups_validated(&self) -> usize {
        self.sessions
            .iter()
            .filter(|entry| entry.rollup.get().is_some())
            .count()
    }

    /// Decodes every session over `jobs` workers in one pass over the flat
    /// slot space [`fold`](CorpusReader::fold) folds, keeping each
    /// episode: byte-identical to decoding each session on its own, for
    /// any job count.
    ///
    /// # Errors
    ///
    /// As [`fold`](CorpusReader::fold). Only a non-salvaged member fails
    /// on order.
    pub fn par_decode(&self, jobs: usize) -> Result<Vec<SessionTrace>, TraceError> {
        let sources = self.sources();
        ShardedFold::new(&sources, &EpisodeFilter::default()).decode(jobs)
    }

    /// Runs `analysis` over the episodes the filter admits in every
    /// session in one pass: one output per session, in corpus order, each
    /// what that session's [`SessionSource::fold`] returns. The members'
    /// admitted extents are one flat slot space cut into shards over
    /// `jobs` workers, so a short member never strands a worker; a shard
    /// is cut at member boundaries, each piece starting from
    /// [`Analysis::shard`] with its member's scope. Each worker keeps the
    /// last LZ member it decompressed, so at most `jobs` are held at once.
    ///
    /// # Errors
    ///
    /// The first member that fails decides: on the first decode,
    /// decompression or ordering failure any shard met in it (shards in
    /// slot order), else on an ordering failure between its shards. At one
    /// job that is the first failing member's own fold error.
    pub fn fold<A: Analysis>(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
        analysis: &A,
    ) -> Result<Vec<A::Output>, TraceError> {
        let sources = self.sources();
        ShardedFold::new(&sources, filter).analyze(jobs, analysis)
    }

    /// Every session as a [`SessionSource`], in order.
    fn sources(&self) -> Vec<SessionSource<'_>> {
        self.sessions().map(|view| view.source()).collect()
    }
}

impl<'a> SessionView<'a> {
    /// The session's position in the corpus.
    pub fn index(&self) -> usize {
        self.index
    }

    /// This session as a [`SessionSource`]: its metadata, symbols, extent
    /// index (offsets relative to the session's payload), rollup and the
    /// single decode path shared with `.lgz` files. The rollup is only
    /// validated when [`SessionSource::rollup`] asks for it.
    pub fn source(&self) -> SessionSource<'a> {
        let entry = self.reader.entry(self.index);
        SessionSource {
            meta: &entry.meta,
            records: &entry.records,
            extents: &entry.extents,
            payload: self.payload(),
            lenient: entry.provenance.salvaged,
            rollup: RollupRef::Corpus(*self),
            declared: None,
        }
    }

    /// The session's payload section: its bytes in place when raw, or
    /// the LZ section a decode decompresses.
    fn payload(&self) -> Payload<'a> {
        let entry = self.reader.entry(self.index);
        let stored = &self.reader.bytes[entry.stored.clone()];
        if !entry.compressed {
            return Payload::Bytes(stored);
        }
        Payload::Lz(LzSection {
            stored,
            raw_len: entry.raw_len,
            #[cfg(test)]
            probe: (&self.reader.probe, self.index),
        })
    }

    /// The session's validated rollup, validating it on first use.
    pub(crate) fn rollup(&self) -> Option<&'a Rollup> {
        self.reader.validated_rollup(self.index, None).0.as_ref()
    }

    /// How the session's extent index was obtained when it was packed.
    pub fn health(&self) -> &'a IndexHealth {
        &self.reader.entry(self.index).health
    }

    /// `true` when the session was packed from a salvage-mode open
    /// (decoding is lenient, mirroring [`IndexedTrace::open_salvage`]).
    pub fn is_salvaged(&self) -> bool {
        self.reader.entry(self.index).provenance.salvaged
    }

    /// `true` when salvage actually skipped bytes or lost episodes.
    pub fn is_damaged(&self) -> bool {
        self.reader.entry(self.index).provenance.damaged
    }

    /// Salvage skip regions recorded when the session was packed.
    pub fn skips(&self) -> u64 {
        self.reader.entry(self.index).provenance.skips
    }

    /// Episodes lost to salvage when the session was packed.
    pub fn episodes_lost(&self) -> u64 {
        self.reader.entry(self.index).provenance.episodes_lost
    }

    /// `true` when the session's payload section is LZ-compressed.
    pub fn is_compressed(&self) -> bool {
        self.reader.entry(self.index).compressed
    }

    /// Diagnostic health of the session's rollup section (see
    /// `lagalyzer lint`). The section is decompressed, decoded and
    /// checked against the payload on the first call for this session
    /// (by this, by [`SessionSource::rollup`] or by
    /// [`CorpusReader::verify_payloads`]), not at open; a payload that
    /// does not decompress leaves it stale.
    pub fn rollup_health(&self) -> &'a RollupHealth {
        &self.reader.validated_rollup(self.index, None).1
    }

    /// The session's damage verdict.
    pub fn damage_verdict(&self) -> DamageVerdict {
        if self.is_damaged() {
            DamageVerdict::Damaged
        } else {
            DamageVerdict::Clean
        }
    }
}

/// What the section index records about one section.
struct Section {
    compressed: bool,
    offset: u64,
    stored_len: u64,
    raw_len: u64,
}

/// Parsed per-session directory entry (before extents and payload).
struct DirEntry {
    meta: SessionMeta,
    records: SessionRecords,
    health: IndexHealth,
    provenance: Provenance,
}

fn read_strings(region: &[u8]) -> Result<SymbolTable, TraceError> {
    let mut r = region;
    let count = varint::read_u64(&mut r)?;
    if count > MAX_STRINGS {
        return Err(TraceError::corrupt(
            "corpus string table",
            format!("{count} strings exceeds cap"),
        ));
    }
    let mut global = SymbolTable::with_capacity(count.min(1 << 16) as usize);
    for i in 0..count {
        let name = varint::read_str(&mut r)?;
        if name.len() as u64 > MAX_STRING_LEN {
            return Err(TraceError::corrupt(
                "corpus string table",
                "oversized string",
            ));
        }
        if global.intern_owned(name) != SymbolId::from_raw(i.min(u64::from(u32::MAX)) as u32) {
            // A duplicate would intern to an earlier id: the pool must be
            // deduplicated (that is the whole point of the corpus table).
            return Err(TraceError::corrupt(
                "corpus string table",
                "duplicate string in the deduplicated pool",
            ));
        }
    }
    if !r.is_empty() {
        return Err(TraceError::corrupt(
            "corpus string table",
            "trailing bytes after the last string",
        ));
    }
    Ok(global)
}

fn read_directory(
    region: &[u8],
    session_count: u64,
    global: &SymbolTable,
) -> Result<Vec<DirEntry>, TraceError> {
    let mut r = region;
    let mut out = Vec::with_capacity(session_count.min(1 << 12) as usize);
    for _ in 0..session_count {
        let meta = read_header(&mut r)?;
        let (health_tag, rest) = split_byte(r, "session directory")?;
        r = rest;
        let reason = varint::read_str(&mut r)?;
        let health = health_of_tag(health_tag, reason)?;
        let (flags, rest) = split_byte(r, "session directory")?;
        r = rest;
        if flags & !0b11 != 0 {
            return Err(TraceError::corrupt(
                "session directory",
                format!("unknown provenance flags {flags:#x}"),
            ));
        }
        let provenance = Provenance {
            salvaged: flags & 1 != 0,
            damaged: flags & 2 != 0,
            skips: varint::read_u64(&mut r)?,
            episodes_lost: varint::read_u64(&mut r)?,
        };
        let remap_len = varint::read_u64(&mut r)?;
        if remap_len > MAX_STRINGS {
            return Err(TraceError::corrupt(
                "session directory",
                format!("{remap_len} symbols exceeds cap"),
            ));
        }
        let mut remap_ids = Vec::with_capacity(remap_len.min(1 << 16) as usize);
        for _ in 0..remap_len {
            remap_ids.push(varint::read_u32(&mut r)?);
        }
        // Dense-pool fast path: a session whose remap is the identity
        // over the entire global pool reconstructs to a table equal to
        // the pool itself (the pool was already validated dense and
        // duplicate-free), so clone the interner instead of re-interning
        // every name. Fleets of same-workload sessions hit this for all
        // but the first session.
        let identity = remap_ids.len() == global.len()
            && remap_ids
                .iter()
                .enumerate()
                .all(|(i, &id)| id as usize == i);
        let symbols = if identity {
            global.clone()
        } else {
            let mut symbols = SymbolTable::with_capacity(remap_len.min(1 << 16) as usize);
            for (local, &raw) in remap_ids.iter().enumerate() {
                let global_id = SymbolId::from_raw(raw);
                let name = global.resolve(global_id).ok_or_else(|| {
                    TraceError::corrupt(
                        "session directory",
                        format!("remap names unknown global symbol {}", global_id.as_raw()),
                    )
                })?;
                if symbols.intern(name) != SymbolId::from_raw(local.min(u32::MAX as usize) as u32) {
                    return Err(TraceError::corrupt(
                        "session directory",
                        "remap produces a non-dense local symbol table",
                    ));
                }
            }
            symbols
        };
        let gc_count = varint::read_u64(&mut r)?;
        if gc_count > MAX_STRINGS {
            return Err(TraceError::corrupt(
                "session directory",
                format!("{gc_count} GC events exceeds cap"),
            ));
        }
        let mut gc_events = Vec::with_capacity(gc_count.min(1 << 12) as usize);
        for _ in 0..gc_count {
            let start = TimeNs::from_nanos(varint::read_u64(&mut r)?);
            let end = TimeNs::from_nanos(varint::read_u64(&mut r)?);
            if end < start {
                return Err(TraceError::corrupt(
                    "session directory",
                    "GC end precedes start",
                ));
            }
            let (major, rest) = split_byte(r, "session directory")?;
            r = rest;
            if major > 1 {
                return Err(TraceError::corrupt(
                    "session directory",
                    format!("bad bool {major}"),
                ));
            }
            gc_events.push(GcEvent {
                start,
                end,
                major: major == 1,
            });
        }
        let short_count = varint::read_u64(&mut r)?;
        let short_time = DurationNs::from_nanos(varint::read_u64(&mut r)?);
        out.push(DirEntry {
            meta,
            records: SessionRecords {
                symbols,
                gc_events,
                short_count,
                short_time,
            },
            health,
            provenance,
        });
    }
    if !r.is_empty() {
        return Err(TraceError::corrupt(
            "session directory",
            "trailing bytes after the last session",
        ));
    }
    Ok(out)
}

fn read_sections(
    region: &[u8],
    session_count: u64,
    data_len: u64,
) -> Result<(Vec<Section>, Vec<Option<Section>>), TraceError> {
    let mut r = region;
    let count = varint::read_u64(&mut r)?;
    // Payload + rollup today; headroom for future kinds without letting a
    // corrupt count force an absurd parse.
    if count > session_count.saturating_mul(8).saturating_add(8) {
        return Err(TraceError::corrupt(
            "section index",
            format!("{count} sections for {session_count} sessions exceeds cap"),
        ));
    }
    let mut payloads = Vec::with_capacity(session_count.min(1 << 12) as usize);
    let mut rollups: Vec<Option<Section>> = std::iter::repeat_with(|| None)
        .take(session_count.min(1 << 20) as usize)
        .collect();
    for _ in 0..count {
        let (kind, rest) = split_byte(r, "section index")?;
        r = rest;
        let session = varint::read_u64(&mut r)?;
        let (flags, rest) = split_byte(r, "section index")?;
        r = rest;
        let offset = varint::read_u64(&mut r)?;
        let stored_len = varint::read_u64(&mut r)?;
        let raw_len = varint::read_u64(&mut r)?;
        let end = offset
            .checked_add(stored_len)
            .ok_or_else(|| TraceError::corrupt("section index", "section length overflow"))?;
        if end > data_len || raw_len > MAX_RAW_SECTION {
            return Err(TraceError::corrupt(
                "section index",
                format!("section {offset}+{stored_len} outside the data region"),
            ));
        }
        let section = Section {
            compressed: flags & SECTION_FLAG_LZ != 0,
            offset,
            stored_len,
            raw_len,
        };
        match kind {
            SECTION_PAYLOAD => {
                if flags & !SECTION_FLAG_LZ != 0 {
                    return Err(TraceError::corrupt(
                        "section index",
                        format!("unknown section flags {flags:#x}"),
                    ));
                }
                if session != payloads.len() as u64 {
                    return Err(TraceError::corrupt(
                        "section index",
                        format!("payload section {} names session {session}", payloads.len()),
                    ));
                }
                payloads.push(section);
            }
            SECTION_ROLLUP => {
                if flags & !SECTION_FLAG_LZ != 0 {
                    return Err(TraceError::corrupt(
                        "section index",
                        format!("unknown section flags {flags:#x}"),
                    ));
                }
                let slot = rollups.get_mut(session as usize).ok_or_else(|| {
                    TraceError::corrupt(
                        "section index",
                        format!("rollup section names session {session}"),
                    )
                })?;
                if slot.is_some() {
                    return Err(TraceError::corrupt(
                        "section index",
                        format!("duplicate rollup section for session {session}"),
                    ));
                }
                *slot = Some(section);
            }
            // Unknown kinds are skipped: the record shape is
            // self-delimiting, so newer writers can add sections without
            // breaking this reader (DESIGN 5e).
            _ => {}
        }
    }
    if payloads.len() as u64 != session_count {
        return Err(TraceError::corrupt(
            "section index",
            format!(
                "{} payload sections for {session_count} sessions",
                payloads.len()
            ),
        ));
    }
    if !r.is_empty() {
        return Err(TraceError::corrupt(
            "section index",
            "trailing bytes after the last section",
        ));
    }
    Ok((payloads, rollups))
}

/// Decodes and validates one session's optional rollup section against
/// `content_hash`, the hash of its payload, which is called only once the
/// section decodes. Never fails: a malformed or stale cache, or a payload
/// that does not decompress, degrades to `(None, Stale)` and the warm path
/// silently recomputes.
fn open_rollup(
    bytes: &[u8],
    data_off: u64,
    section: Option<&Section>,
    extent_count: usize,
    content_hash: impl FnOnce() -> Result<u64, TraceError>,
) -> (Option<Rollup>, RollupHealth) {
    let Some(section) = section else {
        return (None, RollupHealth::Absent);
    };
    let section_bytes = section.stored_len;
    let stale = |reason: String| {
        (
            None,
            RollupHealth::Stale {
                reason,
                section_bytes,
            },
        )
    };
    let start = (data_off + section.offset) as usize;
    let stored = &bytes[start..start + section.stored_len as usize];
    let raw;
    let raw_bytes: &[u8] = if section.compressed {
        match lz::decompress(stored, section.raw_len as usize) {
            Ok(buf) => {
                raw = buf;
                &raw
            }
            Err(err) => return stale(format!("section does not decompress: {err}")),
        }
    } else {
        if section.stored_len != section.raw_len {
            return stale("raw section with stored_len != raw_len".into());
        }
        stored
    };
    let mut pos = 0usize;
    let rollup = match Rollup::decode_payload(raw_bytes, &mut pos, raw_bytes.len()) {
        Ok(rollup) if pos == raw_bytes.len() => rollup,
        Ok(_) => return stale("trailing bytes after the rollup payload".into()),
        Err(err) => return stale(format!("payload does not decode: {err}")),
    };
    let expected = match content_hash() {
        Ok(hash) => hash,
        Err(err) => return stale(format!("payload does not decompress: {err}")),
    };
    match crate::rollup::validate(rollup, expected, extent_count) {
        Some(rollup) => (Some(rollup), RollupHealth::Valid { section_bytes }),
        None => stale("content checksum mismatch".into()),
    }
}

fn split_byte<'a>(r: &'a [u8], context: &'static str) -> Result<(u8, &'a [u8]), TraceError> {
    r.split_first()
        .map(|(&b, rest)| (b, rest))
        .ok_or_else(|| TraceError::corrupt(context, "unexpected end of input"))
}

#[cfg(test)]
mod tests {
    use lagalyzer_model::EpisodeId;
    use proptest::prelude::*;

    use super::*;
    use crate::faults::{self, FaultInjector};
    use crate::source::tests::{parts, Parts};
    use crate::test_traces::{build_trace, episode_spec};

    /// The committed four-session golden corpus: three clean sessions
    /// with raw rollup sections and one salvaged session without one.
    const GOLDEN: &[u8] = include_bytes!("../../cli/tests/corpus/corpus.lgzc");

    /// The committed v2 corpus fixture.
    const GOLDEN_V2: &[u8] = include_bytes!("../../cli/tests/corpus/corpus-v2.lgzc");

    /// The build closure the compaction tests hand over: a rollup drawn
    /// from the trace it is given.
    fn placeholder(trace: &SessionTrace) -> Rollup {
        Rollup::placeholder(trace)
    }

    /// Compacts `reader` with every option, job count and closure, and
    /// holds each result to the materializing reference's: equal bytes,
    /// or errors with equal text. A compaction that succeeds decompresses
    /// each LZ member exactly once.
    fn compaction_matches_reference(reader: &CorpusReader) -> Result<(), String> {
        let once: Vec<usize> = reader
            .sessions()
            .map(|view| usize::from(view.is_compressed()))
            .collect();
        for compress in [false, true] {
            for jobs in [1, 3] {
                for build in [None, Some(&placeholder as &dyn Fn(&SessionTrace) -> Rollup)] {
                    let options = PackOptions { compress };
                    let before = reader.probe.decompressed();
                    let got = compact_with_rollups(reader, jobs, options, build);
                    let decompressed = since(&before, reader);
                    let want = compact_reference(reader, jobs, options, build);
                    let context =
                        format!("compress {compress} jobs {jobs} build {}", build.is_some());
                    if got.is_ok() && decompressed != once {
                        return Err(format!("{context}: decompressed {decompressed:?}"));
                    }
                    match (got, want) {
                        (Ok(got), Ok(want)) if got == want => {}
                        (Err(got), Err(want)) if got.to_string() == want.to_string() => {}
                        (got, want) => {
                            let show = |r: Result<Vec<u8>, TraceError>| {
                                r.map_or_else(|e| e.to_string(), |b| format!("{} bytes", b.len()))
                            };
                            return Err(format!("{context}: {} vs {}", show(got), show(want)));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Each member's decompressions since `before` was taken.
    fn since(before: &[usize], reader: &CorpusReader) -> Vec<usize> {
        let now = reader.probe.decompressed();
        now.iter()
            .zip(before)
            .map(|(now, then)| now - then)
            .collect()
    }

    /// Payload section `i` of a corpus: whether it is LZ, and its stored
    /// bytes.
    fn payload_section(bytes: &[u8], i: usize) -> (bool, Vec<u8>) {
        let reader = CorpusReader::open(bytes.to_vec()).unwrap();
        let entry = reader.entry(i);
        (
            entry.compressed,
            reader.bytes[entry.stored.clone()].to_vec(),
        )
    }

    /// A generated member, written and opened as `kind` says: 0 with a
    /// rollup, 1 without, 2 as a legacy v1 trace, 3 fault-injected and
    /// opened as `pack --salvage` opens it, 4 with one byte of an episode
    /// flipped under a resealed trailer and opened strictly. `None` when
    /// the damage leaves nothing to open.
    fn member(trace: &SessionTrace, kind: u8, seed: u64) -> Option<IndexedTrace> {
        let mut bytes = Vec::new();
        match kind {
            0 => crate::binary::write_with_rollup(trace, &mut bytes, Rollup::placeholder(trace)),
            2 => crate::binary::write_legacy(trace, &mut bytes),
            _ => crate::binary::write(trace, &mut bytes),
        }
        .unwrap();
        match kind {
            3 => IndexedTrace::open_salvage(FaultInjector::new(seed).inject(&bytes).0).ok(),
            4 => {
                let extents = IndexedTrace::open(bytes.clone())
                    .unwrap()
                    .extents()
                    .to_vec();
                let extent = extents.get(seed as usize % extents.len().max(1))?;
                let at = extent.offset + (seed >> 32) % extent.len;
                bytes[at as usize] ^= 1 << (seed >> 8 & 7);
                faults::reseal(&mut bytes, None);
                IndexedTrace::open(bytes).ok()
            }
            _ => IndexedTrace::open(bytes).ok(),
        }
    }

    proptest! {
        /// Compaction folds each session and keeps unchanged LZ sections,
        /// yet writes the bytes (or fails with the error) of the
        /// materializing reference, over corpora mixing members with and
        /// without rollups, legacy-v1, salvaged fault-injected and
        /// strictly opened damaged members, raw and LZ sections.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn compaction_matches_its_materializing_reference(
            members in proptest::collection::vec(
                (proptest::collection::vec(episode_spec(), 0..8), 0u8..5, any::<u64>()),
                1..5,
            ),
            packed_lz in any::<bool>(),
        ) {
            // One strictly opened damaged member at most: which of two
            // failures comes first depends on the shard layout.
            let mut damaged = 0;
            let opened: Vec<IndexedTrace> = members
                .iter()
                .filter_map(|(specs, kind, seed)| {
                    damaged += usize::from(*kind == 4);
                    let kind = if *kind == 4 && damaged > 1 { 1 } else { *kind };
                    member(&build_trace(specs, seed % 1000), kind, *seed)
                })
                .collect();
            let packed = pack(&opened, PackOptions { compress: packed_lz }).unwrap();
            let reader = CorpusReader::open(packed).unwrap();
            prop_assert_eq!(compaction_matches_reference(&reader), Ok(()));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn golden_corpora_compact_like_the_reference() {
        for bytes in [GOLDEN, GOLDEN_V2] {
            let reader = CorpusReader::open(bytes.to_vec()).unwrap();
            assert_eq!(compaction_matches_reference(&reader), Ok(()));
        }
        for (name, bytes) in corpora() {
            let reader = CorpusReader::open(bytes).unwrap();
            assert_eq!(compaction_matches_reference(&reader), Ok(()), "{name}");
        }
    }

    /// `tokens` with its leading literal run split in two: another token
    /// stream for the same bytes.
    fn split_first_literal(tokens: &[u8]) -> Vec<u8> {
        let mut pos = 0;
        let token = varint::read_u64_at(tokens, &mut pos, tokens.len()).unwrap();
        let n = (token >> 1) as usize;
        assert!(
            token & 1 == 0 && n >= 2,
            "a stream starts with a literal run"
        );
        let mut out = Vec::new();
        varint::write_u64(&mut out, 1 << 1).unwrap();
        out.push(tokens[pos]);
        varint::write_u64(&mut out, ((n - 1) as u64) << 1).unwrap();
        out.extend_from_slice(&tokens[pos + 1..]);
        out
    }

    #[test]
    fn an_unchanged_lz_section_is_kept_as_stored() {
        // A one-session corpus whose LZ section holds tokens the
        // compressor would not write for its payload.
        let golden = CorpusReader::open(GOLDEN.to_vec()).unwrap();
        let mut bytes = Vec::new();
        crate::binary::write(&golden.session(0).source().decode(1).unwrap(), &mut bytes).unwrap();
        let trace = IndexedTrace::open(bytes).unwrap();
        let rebased = Encoded::of_indexed(&trace);
        let tokens = split_first_literal(&lz::compress(&rebased.payload));
        assert_ne!(tokens, lz::compress(&rebased.payload));
        assert!(tokens.len() < rebased.payload.len());
        let mut writer = CorpusWriter::new(PackOptions { compress: true });
        writer
            .add(&PackSession {
                meta: trace.meta(),
                symbols: trace.symbols(),
                gc_events: trace.gc_events(),
                short_count: trace.short_episode_count(),
                short_time: trace.short_episode_time(),
                health: trace.health(),
                provenance: Provenance::default(),
                extents: &rebased.extents,
                payload: &rebased.payload,
                kept: Some(&tokens),
                rollup: None,
            })
            .unwrap();
        let input = writer.finish().unwrap();
        assert_eq!(payload_section(&input, 0), (true, tokens.clone()));
        // Compacted with compression, the section is copied byte for byte.
        let reader = CorpusReader::open(input).unwrap();
        let compacted = compact(&reader, 1, PackOptions { compress: true }).unwrap();
        assert_eq!(payload_section(&compacted, 0), (true, tokens));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_salvaged_member_is_compressed_again_only_when_its_payload_changes() {
        // The golden salvaged member's extents carry skips, yet its payload
        // re-encodes unchanged: compaction drops the skips and keeps the
        // stored LZ section.
        let (_, lz) = corpora().pop().unwrap();
        let golden = CorpusReader::open(GOLDEN.to_vec()).unwrap();
        let skipped = golden
            .session(3)
            .source()
            .extents()
            .iter()
            .any(|e| e.skips > 0);
        assert!(golden.session(3).is_salvaged() && skipped);
        let repacked = compact_with_rollups(
            &CorpusReader::open(lz.clone()).unwrap(),
            1,
            PackOptions { compress: true },
            Some(&placeholder),
        )
        .unwrap();
        assert!(payload_section(&lz, 3).0);
        assert_eq!(payload_section(&repacked, 3), payload_section(&lz, 3));
        let repacked = CorpusReader::open(repacked).unwrap();
        assert!(repacked
            .session(3)
            .source()
            .extents()
            .iter()
            .all(|e| e.skips == 0));
        assert!(repacked.session(3).is_salvaged());

        // A salvaged member whose episodes re-encode to other bytes (a
        // flipped sample time the decode puts back in order) is
        // compressed again.
        let mut bytes = Vec::new();
        crate::binary::write(&golden.session(0).source().decode(1).unwrap(), &mut bytes).unwrap();
        let (opened, stale, fresh) = (0..200)
            .find_map(|seed| {
                let damaged = FaultInjector::new(seed).inject(&bytes).0;
                let opened = IndexedTrace::open_salvage(damaged).ok()?;
                let stale = Encoded::of_indexed(&opened).payload;
                let fresh = opened.source().fold(1, &EpisodeFilter::default(), &Encode);
                let fresh = fresh.ok()?.payload;
                (fresh != stale).then_some((opened, stale, fresh))
            })
            .expect("a seeded fault the decode repairs");
        let input = pack(&[opened], PackOptions { compress: true }).unwrap();
        assert_eq!(payload_section(&input, 0), (true, lz::compress(&stale)));
        let reader = CorpusReader::open(input).unwrap();
        let compacted = compact(&reader, 1, PackOptions { compress: true }).unwrap();
        assert_eq!(payload_section(&compacted, 0), (true, lz::compress(&fresh)));
        assert!(CorpusReader::open(compacted)
            .unwrap()
            .session(0)
            .is_salvaged());
    }

    #[test]
    fn an_lz_corpus_compacted_without_compress_is_stored_raw() {
        let (_, lz) = corpora().pop().unwrap();
        let compacted =
            compact(&CorpusReader::open(lz).unwrap(), 1, PackOptions::default()).unwrap();
        let reader = CorpusReader::open(compacted.clone()).unwrap();
        assert_eq!(&compacted[8..12], &0u32.to_le_bytes());
        for i in 0..reader.len() {
            assert!(!reader.session(i).is_compressed());
            let rollup = reader.entry(i).rollup_section.as_ref();
            assert!(rollup.map_or(true, |section| !section.compressed));
        }
    }

    #[test]
    fn a_raw_member_compacted_with_compress_is_compressed() {
        let golden = CorpusReader::open(GOLDEN.to_vec()).unwrap();
        assert!(golden.sessions().all(|view| !view.is_compressed()));
        let compacted = compact(&golden, 1, PackOptions { compress: true }).unwrap();
        for i in 0..golden.len() {
            let reader = CorpusReader::open(compacted.clone()).unwrap();
            let payload = reader.payload_into(i, &mut Vec::new()).unwrap().to_vec();
            assert_eq!(
                payload_section(&compacted, i),
                (true, lz::compress(&payload))
            );
        }
    }

    /// The golden corpus (v1, FNV-1a), and the same sessions compacted
    /// into a v2 corpus with LZ sections (the rollups carried over).
    fn corpora() -> Vec<(&'static str, Vec<u8>)> {
        let reader = CorpusReader::open(GOLDEN.to_vec()).unwrap();
        let packed = compact(&reader, 1, PackOptions { compress: true }).unwrap();
        assert_eq!((GOLDEN[7], packed[7]), (1, 2));
        vec![("raw", GOLDEN.to_vec()), ("lz", packed)]
    }

    /// The golden corpus compacted with LZ sections, every member carrying
    /// a rollup (the salvaged member a placeholder).
    fn lz_with_rollups() -> Vec<u8> {
        let reader = CorpusReader::open(GOLDEN.to_vec()).unwrap();
        let options = PackOptions { compress: true };
        let packed = compact_with_rollups(&reader, 1, options, Some(&placeholder)).unwrap();
        let reader = CorpusReader::open(packed.clone()).unwrap();
        assert!(reader.sessions().all(|view| view.is_compressed()));
        let valid =
            |view: SessionView<'_>| matches!(view.rollup_health(), RollupHealth::Valid { .. });
        assert!(reader.sessions().all(valid));
        packed
    }

    /// Open decompresses nothing; a decode decompresses only the members
    /// it reads, each at most once per shard of worker scratch that reaches
    /// it, and holds at most one decompressed member per worker; a
    /// compaction decompresses each member once, and `verify_payloads`
    /// once for every read a decode or rollup check would make.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn payloads_decompress_on_first_decode_one_per_worker() {
        use crate::source::tests::split;
        use lagalyzer_model::parallel::shard_plan;
        let bytes = lz_with_rollups();
        let open = || CorpusReader::open(bytes.clone()).unwrap();
        let all = EpisodeFilter::default();
        let members = open().len();
        let only = |k: usize, n: usize| -> Vec<usize> {
            (0..members).map(|i| if i == k { n } else { 0 }).collect()
        };
        // The shards of `plan` that cover some of member `k`'s flat slots.
        let covering = |reader: &CorpusReader, plan: &[Range<usize>], k: usize| {
            let first: usize = (0..k).map(|i| reader.session(i).source().len()).sum();
            let end = first + reader.session(k).source().len();
            let covers = |shard: &&Range<usize>| shard.start < end && first < shard.end;
            plan.iter().filter(covers).count()
        };

        let reader = open();
        for view in reader.sessions() {
            let source = view.source();
            source.excluded_by(&all);
            assert!(!source.is_empty() && !source.meta().application.is_empty());
        }
        assert_eq!(reader.probe.decompressed(), vec![0; members], "open");

        for k in 0..members {
            let reader = open();
            let source = reader.session(k).source();
            source.decode(1).unwrap();
            assert_eq!(reader.probe.decompressed(), only(k, 1), "decode of {k}");
            assert_eq!(reader.probe.held(), (0, 1), "decode of {k}");
            // One scratch serves both extents of the subset.
            source.decode_subset(1, &[1, 0]).unwrap();
            source.decode_episode(0).unwrap();
            assert_eq!(reader.probe.decompressed(), only(k, 3), "{k}");
            for jobs in 1..=4 {
                let before = reader.probe.decompressed();
                source.fold(jobs, &all, &()).unwrap();
                let plan = shard_plan(source.len(), jobs);
                let n = since(&before, &reader)[k];
                assert!((1..=plan.len()).contains(&n), "fold of {k} at {jobs}: {n}");
                assert!(reader.probe.held().1 <= jobs);
            }
            // The rollup check hashes the payload: once, then kept.
            let reader = open();
            reader.session(k).rollup_health();
            reader.session(k).source().rollup();
            assert_eq!(reader.probe.decompressed(), only(k, 1), "rollup of {k}");
        }

        for jobs in 1..=4 {
            for corpus_fold in [false, true] {
                let reader = open();
                if corpus_fold {
                    reader.fold(jobs, &all, &()).unwrap();
                } else {
                    reader.par_decode(jobs).unwrap();
                }
                let context = format!("jobs {jobs} corpus fold {corpus_fold}");
                let (held, peak) = reader.probe.held();
                assert_eq!(held, 0, "{context}");
                assert!((1..=jobs).contains(&peak), "{context}: {peak} held at once");
                let plan = shard_plan(reader.total_episodes(), jobs);
                for (k, &n) in reader.probe.decompressed().iter().enumerate() {
                    let most = covering(&reader, &plan, k);
                    assert!(
                        (1..=most).contains(&n),
                        "{context} member {k}: {n} of {most}"
                    );
                }
            }
        }

        // Shards cut by hand: one scratch across them all, as one worker
        // claims them, decompresses each member once; a scratch per shard
        // decompresses it once per shard that covers it.
        let reader = open();
        let sources = reader.sources();
        let fold = ShardedFold::new(&sources, &all);
        for layout in 0..8 {
            let shards = split(reader.total_episodes(), layout);
            let per_shard: Vec<usize> = (0..members)
                .map(|k| covering(&reader, &shards, k))
                .collect();
            for (one_worker, want) in [(true, vec![1; members]), (false, per_shard)] {
                let before = reader.probe.decompressed();
                let folded =
                    fold.fold_split(&shards, one_worker, |_, _| (), |_, _, _| (), |_, _| ());
                folded.unwrap();
                let context = format!("layout {layout} one worker {one_worker}");
                assert_eq!(since(&before, &reader), want, "{context}");
                assert_eq!(reader.probe.held(), (0, 1), "{context}");
            }
        }

        for build in [None, Some(&placeholder as &dyn Fn(&SessionTrace) -> Rollup)] {
            let reader = open();
            compact_with_rollups(&reader, 3, PackOptions { compress: true }, build).unwrap();
            assert_eq!(reader.probe.decompressed(), vec![1; members]);
            // Again, with every rollup already validated.
            compact_with_rollups(&reader, 3, PackOptions::default(), build).unwrap();
            assert_eq!(reader.probe.decompressed(), vec![2; members]);
        }

        let reader = open();
        reader.verify_payloads().unwrap();
        assert_eq!(reader.rollups_validated(), members);
        for view in reader.sessions() {
            view.rollup_health();
        }
        assert_eq!(reader.probe.decompressed(), vec![1; members]);
        assert_eq!(reader.probe.held(), (0, 0));
    }

    /// An LZ payload section that does not decompress, under a resealed
    /// trailer, no longer fails the open: every decode of its member fails
    /// with the decompression error (a salvaged member's as a strict
    /// one's), its rollup is stale, and every other member decodes as in
    /// the undamaged corpus.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_payload_that_does_not_decompress_fails_every_decode_of_its_member() {
        let bytes = lz_with_rollups();
        let intact = CorpusReader::open(bytes.clone()).unwrap();
        let all = EpisodeFilter::default();
        for k in [0, 3] {
            let damaged = faults::break_lz_payload(&bytes, k).unwrap();
            let reader = CorpusReader::open(damaged.clone()).unwrap();
            let view = reader.session(k);
            assert_eq!(view.is_salvaged(), k == 3);
            let (stored, raw_len) = reader.lz_payload_section(k).unwrap();
            let want = lz::decompress(&damaged[stored], raw_len)
                .unwrap_err()
                .to_string();
            let fails = |what: &str, result: Result<(), TraceError>| match result {
                Err(e @ TraceError::UnreadablePayload(_)) if e.to_string() == want => {}
                other => panic!("member {k} {what}: {other:?}, want {want}"),
            };
            let source = view.source();
            let indices: Vec<usize> = (0..source.len()).rev().collect();
            for jobs in 1..=4 {
                fails("par_decode", reader.par_decode(jobs).map(drop));
                fails("corpus fold", reader.fold(jobs, &all, &()).map(drop));
                fails("decode", source.decode(jobs).map(drop));
                let short = EpisodeFilter::new().min_duration(DurationNs::from_millis(1));
                fails(
                    "decode_filtered",
                    source.decode_filtered(jobs, &short).map(drop),
                );
                fails("fold", source.fold(jobs, &all, &()));
                fails(
                    "decode_subset",
                    source.decode_subset(jobs, &indices).map(drop),
                );
            }
            for i in 0..source.len() {
                fails("decode_episode", source.decode_episode(i).map(drop));
            }
            for compress in [false, true] {
                fails(
                    "compact",
                    compact(&reader, 1, PackOptions { compress }).map(drop),
                );
            }
            fails("verify_payloads", reader.verify_payloads());
            assert!(
                matches!(view.rollup_health(), RollupHealth::Stale { reason, .. }
                    if reason.contains(&want)),
                "member {k}: {}",
                view.rollup_health()
            );
            assert_eq!(view.source().rollup(), None);
            for other in (0..reader.len()).filter(|&i| i != k) {
                let (got, want) = (reader.session(other), intact.session(other));
                assert_eq!(got.rollup_health(), want.rollup_health());
                let decoded = got.source().decode(2).unwrap();
                assert_eq!(parts(&decoded), parts(&want.source().decode(2).unwrap()));
            }
        }
    }

    #[test]
    fn open_and_decode_validate_no_rollup() {
        for (name, bytes) in corpora() {
            let reader = CorpusReader::open(bytes).unwrap();
            reader.par_decode(2).unwrap();
            for view in reader.sessions() {
                let source = view.source();
                source.decode(1).unwrap();
                source.decode_episode(0).unwrap();
                assert_eq!(source.len(), source.extents().len());
                assert!(!source.meta().application.is_empty());
                source.excluded_by(&EpisodeFilter::default());
            }
            assert_eq!(reader.rollups_validated(), 0, "{name}");
            reader.session(1).rollup_health();
            assert_eq!(reader.rollups_validated(), 1, "{name}");
        }
    }

    #[test]
    fn rollups_validated_on_first_use_equal_eager_validation() {
        for (name, bytes) in corpora() {
            let reader = CorpusReader::open(bytes).unwrap();
            assert!(
                name == "raw"
                    || reader
                        .sessions
                        .iter()
                        .any(|s| s.rollup_section.as_ref().is_some_and(|r| r.compressed)),
                "compaction stored no LZ rollup section"
            );
            let mut valid = 0;
            for view in reader.sessions() {
                let (rollup, health) = reader.check_rollup(view.index(), None);
                // Either accessor may come first; both see one result.
                if view.index() % 2 == 0 {
                    assert_eq!(view.source().rollup(), rollup.as_ref(), "{name}");
                    assert_eq!(view.rollup_health(), &health, "{name}");
                } else {
                    assert_eq!(view.rollup_health(), &health, "{name}");
                    assert_eq!(view.source().rollup(), rollup.as_ref(), "{name}");
                }
                valid += usize::from(matches!(health, RollupHealth::Valid { .. }));
            }
            assert_eq!(valid, 3, "{name}");
            assert_eq!(reader.session(3).rollup_health(), &RollupHealth::Absent);
        }
    }

    #[test]
    fn corrupted_rollup_opens_and_is_stale_on_first_use() {
        for (name, bytes) in corpora() {
            let sections: Vec<(usize, u64)> = {
                let reader = CorpusReader::open(bytes.clone()).unwrap();
                reader
                    .sessions
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| {
                        let section = s.rollup_section.as_ref()?;
                        Some((i, reader.data_off + section.offset))
                    })
                    .collect()
            };
            assert_eq!(sections.len(), 3, "{name}");
            for (session, start) in sections {
                // Flip the section's first byte (a token varint or the
                // content checksum), then reseal the trailer.
                let mut damaged = bytes.clone();
                damaged[start as usize] ^= 0xff;
                crate::faults::reseal(&mut damaged, None);
                let reader = CorpusReader::open(damaged).unwrap();
                assert_eq!(reader.rollups_validated(), 0, "{name}");
                let (rollup, health) = reader.check_rollup(session, None);
                assert!(rollup.is_none(), "{name} session {session}");
                assert!(
                    matches!(health, RollupHealth::Stale { .. }),
                    "{name} session {session}: {health}"
                );
                let view = reader.session(session);
                assert_eq!(view.rollup_health(), &health, "{name} session {session}");
                assert_eq!(view.source().rollup(), None, "{name} session {session}");
            }
        }
    }

    /// The whole traces `sources` decode to, folded as one flat slot space
    /// cut into `shards` through the sharded fold's test hook, with one
    /// scratch for every shard or one per shard.
    fn fold_flat(
        sources: &[SessionSource<'_>],
        shards: &[Range<usize>],
        one_worker: bool,
    ) -> Result<Vec<Parts>, TraceError> {
        let fold = ShardedFold::new(sources, &EpisodeFilter::default());
        fold.fold_split(
            shards,
            one_worker,
            |_, slots| Vec::with_capacity(slots),
            |run, _, episode| run.push(episode),
            |source, runs| parts(&source.trace_of(runs)),
        )
    }

    /// The one error rule: each member folded alone over `shards` cut to
    /// its own slots, in order, the first member that fails deciding.
    fn by_member(
        sources: &[SessionSource<'_>],
        shards: &[Range<usize>],
    ) -> Result<Vec<Parts>, TraceError> {
        let mut first = 0;
        (0..sources.len())
            .map(|k| {
                let end = first + sources[k].len();
                let own: Vec<Range<usize>> = shards
                    .iter()
                    .map(|r| r.start.clamp(first, end) - first..r.end.clamp(first, end) - first)
                    .filter(|r| !r.is_empty())
                    .collect();
                first = end;
                fold_flat(&sources[k..=k], &own, true).map(|mut one| one.remove(0))
            })
            .collect()
    }

    /// A corpus of a strict, a salvaged and a strict member, each with its
    /// extent table permuted. Over flat shards cut as at `--jobs` 1–4 and
    /// by hand (so the cross-shard merge and the lenient refold run
    /// whatever the machine's parallelism), the sharded fold's test hook
    /// decodes, member by member, the whole traces each member decoded
    /// alone over the same shards decodes, or fails with the first failing
    /// member's error text. So does `par_decode` at `--jobs` 1–4, and
    /// `fold` of a test-local `Ids` analysis gives their ids. Those are
    /// the whole traces the serial rule keeps, and it fails where they
    /// fail, with its error text at `--jobs 1`.
    #[test]
    fn par_decode_keeps_what_the_serial_rule_keeps_in_every_member() {
        use crate::source::tests::{assert_same, orders, serial, split, trace, Ids};
        use lagalyzer_model::parallel::shard_plan;
        let lens = [40, 36, 30];
        let open = |n: usize, salvage: bool| {
            let mut bytes = Vec::new();
            crate::binary::write(&trace(n as u32), &mut bytes).unwrap();
            let opened = if salvage {
                IndexedTrace::open_salvage(bytes)
            } else {
                IndexedTrace::open(bytes)
            };
            opened.unwrap()
        };
        let members =
            [(0, false), (1, true), (2, false)].map(|(k, lenient)| open(lens[k], lenient));
        let packed = pack(&members, PackOptions::default()).unwrap();
        let all = EpisodeFilter::default();
        let ids = |members: &Vec<Parts>| -> Vec<Vec<EpisodeId>> {
            let ids = |(_, episodes, ..): &Parts| -> Vec<EpisodeId> {
                episodes.iter().map(Episode::id).collect()
            };
            members.iter().map(ids).collect()
        };
        let in_order: Vec<usize> = (0..lens[0]).collect();
        let (lenient, last) = (orders(lens[1]), orders(lens[2]));
        for (j, order) in orders(lens[0]).iter().enumerate() {
            // With the first member in order, a later member decides.
            for first in [order, &in_order] {
                let mut reader = CorpusReader::open(packed.clone()).unwrap();
                let permuted = [first, &lenient[j], &last[(j + 5) % last.len()]];
                for (entry, order) in reader.sessions.iter_mut().zip(permuted) {
                    entry.extents = order.iter().map(|&i| entry.extents[i]).collect();
                }
                let sources = reader.sources();
                assert!(!sources[0].is_lenient() && sources[1].is_lenient());
                let reference: Result<Vec<Parts>, TraceError> = sources
                    .iter()
                    .map(|s| serial(s, &all).map(|t| parts(&t)))
                    .collect();
                let total = reader.total_episodes();
                let jobs = (1..=4).map(|jobs| shard_plan(total, jobs));
                let plans = jobs.chain((0..8).map(|layout| split(total, layout)));
                for (n, shards) in plans.enumerate() {
                    let context = format!("orders {permuted:?} shards {shards:?}");
                    let want = by_member(&sources, &shards);
                    let same = |got| assert_same(got, want.as_ref(), true, &context);
                    same(fold_flat(&sources, &shards, n % 2 == 0));
                    if n < 4 {
                        let decoded = reader.par_decode(n + 1);
                        same(decoded.map(|t| t.iter().map(parts).collect()));
                        let want = want.as_ref().map(ids);
                        let folded = reader.fold(n + 1, &all, &Ids);
                        assert_same(folded, want.as_ref().map_err(|e| *e), true, &context);
                    }
                    assert_same(want, reference.as_ref(), n == 0, &context);
                }
            }
        }
    }
}

/// A hand-rolled byte-oriented LZ codec for cold corpus sections.
///
/// The stream is a sequence of varint-prefixed tokens. A token `t` with
/// the low bit clear introduces a literal run of `t >> 1` bytes (copied
/// verbatim); with the low bit set it is a match of length `t >> 1`
/// (&ge; 4) followed by a varint back-distance into the already-produced
/// output (1 ..= 64 KiB). Overlapping matches are legal (RLE falls out of
/// `distance < length`). Compression is greedy over a 4-byte hash table;
/// decompression is bounds-checked everywhere and never reads outside
/// the stored section.
///
/// Decompression copies at wide-copy speed: the output buffer keeps 16
/// writable bytes of slack past the produced output, so a literal run or
/// a non-overlapping match of at most 16 bytes is copied as one fixed
/// 16-byte chunk and the cursor then advances by the token's real
/// length. Only overlapping matches copy byte by byte.
pub(crate) mod lz {
    use crate::error::TraceError;
    use crate::varint;

    const MIN_MATCH: usize = 4;
    const WINDOW: usize = 1 << 16;
    const HASH_BITS: u32 = 15;

    /// Writable bytes kept past the produced output, and the width of
    /// the fixed chunk a short token is copied with.
    const SLACK: usize = 16;

    /// The most output [`decompress`] allocates before any token has
    /// produced it, so a corrupt `raw_len` cannot force a huge
    /// allocation; the buffer grows as tokens fill it.
    const INITIAL_CAP: usize = 1 << 20;

    fn hash4(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte slice"));
        (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
    }

    fn push_literals(out: &mut Vec<u8>, run: &[u8]) {
        if run.is_empty() {
            return;
        }
        varint::write_u64(out, (run.len() as u64) << 1).expect("vec write");
        out.extend_from_slice(run);
    }

    /// Compresses `input` (deterministic greedy LZ).
    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut lit_start = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let candidate = table[h];
            table[h] = pos;
            if candidate != usize::MAX
                && pos - candidate <= WINDOW
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
            {
                let mut len = MIN_MATCH;
                while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                push_literals(&mut out, &input[lit_start..pos]);
                varint::write_u64(&mut out, ((len as u64) << 1) | 1).expect("vec write");
                varint::write_u64(&mut out, (pos - candidate) as u64).expect("vec write");
                pos += len;
                lit_start = pos;
            } else {
                pos += 1;
            }
        }
        push_literals(&mut out, &input[lit_start..]);
        out
    }

    /// Reads a varint, decoding the one-byte form inline; longer forms
    /// (and every error) come from [`varint::read_u64_at`].
    #[inline]
    fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
        match input.get(*pos) {
            Some(&byte) if byte < 0x80 => {
                *pos += 1;
                Ok(u64::from(byte))
            }
            _ => varint::read_u64_at(input, pos, input.len()),
        }
    }

    /// Grows `out` so that `n` more bytes plus the slack fit after the
    /// `len` produced ones. `n` never exceeds `raw_len - len`, so the
    /// buffer never exceeds `raw_len` plus the slack.
    fn make_room(out: &mut Vec<u8>, len: usize, n: usize, raw_len: usize) {
        let need = len + n + SLACK;
        if need > out.len() {
            let grown = (out.len() * 2).max(need).min(raw_len + SLACK);
            out.reserve_exact(grown - out.len());
            out.resize(grown, 0);
        }
    }

    /// Decompresses a stored section back to exactly `raw_len` bytes
    /// (the section index caps `raw_len` at 1 GiB).
    ///
    /// # Errors
    ///
    /// As [`decompress_into`].
    pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>, TraceError> {
        let mut out = Vec::new();
        decompress_into(input, raw_len, &mut out)?;
        Ok(out)
    }

    /// [`decompress`] into `out`, replacing its contents and keeping its
    /// allocation: a buffer reused across sections reallocates only for
    /// a section larger than any before. At most [`INITIAL_CAP`] bytes are
    /// set up before tokens fill them, as for a new buffer.
    ///
    /// # Errors
    ///
    /// Fails on malformed tokens, out-of-window distances, or a stream
    /// that produces more or fewer than `raw_len` bytes; `out` then holds
    /// no meaningful bytes.
    pub fn decompress_into(
        input: &[u8],
        raw_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceError> {
        let end = input.len();
        let mut pos = 0usize;
        // `out[..len]` is the output so far; at least SLACK bytes of
        // scratch follow it, which short copies overwrite freely.
        out.clear();
        out.resize(raw_len.min(INITIAL_CAP) + SLACK, 0);
        let mut len = 0usize;
        while len < raw_len {
            let token = read_varint(input, &mut pos)?;
            let n = (token >> 1) as usize;
            if n == 0 || n > raw_len - len {
                return Err(TraceError::corrupt(
                    "compressed section",
                    "token overruns the declared raw length",
                ));
            }
            if token & 1 == 0 {
                if n > end - pos {
                    return Err(TraceError::corrupt(
                        "compressed section",
                        "literal run overruns the stored bytes",
                    ));
                }
                make_room(out, len, n, raw_len);
                if n <= SLACK && end - pos >= SLACK {
                    out[len..len + SLACK].copy_from_slice(&input[pos..pos + SLACK]);
                } else {
                    out[len..len + n].copy_from_slice(&input[pos..pos + n]);
                }
                pos += n;
            } else {
                if n < MIN_MATCH {
                    return Err(TraceError::corrupt(
                        "compressed section",
                        format!("match shorter than {MIN_MATCH}"),
                    ));
                }
                let distance = read_varint(input, &mut pos)? as usize;
                if distance == 0 || distance > len || distance > WINDOW {
                    return Err(TraceError::corrupt(
                        "compressed section",
                        "match distance outside the produced output",
                    ));
                }
                make_room(out, len, n, raw_len);
                let start = len - distance;
                if distance < n {
                    // Overlapping: each byte may be one this match wrote.
                    for k in 0..n {
                        out[len + k] = out[start + k];
                    }
                } else if n <= SLACK {
                    // The whole chunk is loaded before it is stored, so
                    // its first `n` bytes are produced output even when
                    // the source runs into the destination.
                    let chunk: [u8; SLACK] =
                        out[start..start + SLACK].try_into().expect("16-byte slice");
                    out[len..len + SLACK].copy_from_slice(&chunk);
                } else {
                    out.copy_within(start..start + n, len);
                }
            }
            len += n;
        }
        if pos != end {
            return Err(TraceError::corrupt(
                "compressed section",
                "trailing bytes after the last token",
            ));
        }
        out.truncate(len);
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use proptest::prelude::*;

        use super::*;

        /// The byte-at-a-time decoder [`decompress`] replaced, kept as
        /// the oracle the wide-copy decoder is held to.
        fn decompress_reference(input: &[u8], raw_len: usize) -> Result<Vec<u8>, TraceError> {
            let end = input.len();
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(raw_len.min(1 << 20));
            while out.len() < raw_len {
                let token = varint::read_u64_at(input, &mut pos, end)?;
                let n = (token >> 1) as usize;
                if n == 0 || out.len() + n > raw_len {
                    return Err(TraceError::corrupt(
                        "compressed section",
                        "token overruns the declared raw length",
                    ));
                }
                if token & 1 == 0 {
                    if pos + n > end {
                        return Err(TraceError::corrupt(
                            "compressed section",
                            "literal run overruns the stored bytes",
                        ));
                    }
                    out.extend_from_slice(&input[pos..pos + n]);
                    pos += n;
                } else {
                    if n < MIN_MATCH {
                        return Err(TraceError::corrupt(
                            "compressed section",
                            format!("match shorter than {MIN_MATCH}"),
                        ));
                    }
                    let distance = varint::read_u64_at(input, &mut pos, end)? as usize;
                    if distance == 0 || distance > out.len() || distance > WINDOW {
                        return Err(TraceError::corrupt(
                            "compressed section",
                            "match distance outside the produced output",
                        ));
                    }
                    let start = out.len() - distance;
                    for k in 0..n {
                        let byte = out[start + k];
                        out.push(byte);
                    }
                }
            }
            if pos != end {
                return Err(TraceError::corrupt(
                    "compressed section",
                    "trailing bytes after the last token",
                ));
            }
            Ok(out)
        }

        #[test]
        fn round_trips() {
            for input in [
                &b""[..],
                &b"a"[..],
                &b"abc"[..],
                &b"abcdabcdabcdabcd"[..],
                &[0u8; 1000][..],
            ] {
                let packed = compress(input);
                let back = decompress(&packed, input.len()).unwrap();
                assert_eq!(back, input);
            }
            // A long pseudo-random-ish buffer with embedded repeats.
            let mut big = Vec::new();
            for i in 0..10_000u32 {
                big.extend_from_slice(&(i.wrapping_mul(2_654_435_761)).to_le_bytes());
                if i % 7 == 0 {
                    big.extend_from_slice(b"org.example.DispatchThread.run");
                }
            }
            let packed = compress(&big);
            assert!(packed.len() < big.len(), "repeats must compress");
            assert_eq!(decompress(&packed, big.len()).unwrap(), big);
        }

        #[test]
        fn rle_compresses_through_overlap() {
            let zeros = vec![0u8; 100_000];
            let packed = compress(&zeros);
            assert!(
                packed.len() < 64,
                "RLE should collapse, got {}",
                packed.len()
            );
            assert_eq!(decompress(&packed, zeros.len()).unwrap(), zeros);
        }

        #[test]
        fn malformed_streams_rejected() {
            // Wrong raw_len (stream produces fewer bytes).
            let packed = compress(b"hello world");
            assert!(decompress(&packed, 100).is_err());
            // Declares a match before any output exists.
            let mut bogus = Vec::new();
            varint::write_u64(&mut bogus, (8u64 << 1) | 1).unwrap();
            varint::write_u64(&mut bogus, 1).unwrap();
            assert!(decompress(&bogus, 8).is_err());
            // Truncated literal run.
            let mut cut = Vec::new();
            varint::write_u64(&mut cut, 10u64 << 1).unwrap();
            cut.extend_from_slice(b"abc");
            assert!(decompress(&cut, 10).is_err());
        }

        /// Asserts that both decoders give equal bytes, or errors with
        /// equal text.
        fn same_as_reference(input: &[u8], raw_len: usize) -> Result<bool, String> {
            match (
                decompress(input, raw_len),
                decompress_reference(input, raw_len),
            ) {
                (Ok(fast), Ok(slow)) if fast == slow => Ok(true),
                (Err(fast), Err(slow)) if fast.to_string() == slow.to_string() => Ok(false),
                (fast, slow) => Err(format!("decompress {fast:?} vs reference {slow:?}")),
            }
        }

        /// One token of a generated stream, well formed or not.
        #[derive(Clone, Debug)]
        enum Token {
            /// A literal token declaring `declared` bytes, followed by
            /// `bytes` (declaring more overruns the stored bytes at the
            /// end of a stream).
            Literal { declared: u64, bytes: Vec<u8> },
            /// A match token of `len` bytes at back-distance `distance`.
            Match { len: u64, distance: u64 },
            /// A token varint padded with `pad` extra bytes: over-long,
            /// and past ten bytes in all.
            Padded { token: u64, pad: usize },
        }

        /// The stream's bytes and the output length its tokens declare.
        fn encode(tokens: &[Token]) -> (Vec<u8>, usize) {
            let mut out = Vec::new();
            let mut declared = 0u64;
            for token in tokens {
                match token {
                    Token::Literal { declared: n, bytes } => {
                        varint::write_u64(&mut out, n << 1).unwrap();
                        out.extend_from_slice(bytes);
                        declared += n;
                    }
                    Token::Match { len, distance } => {
                        varint::write_u64(&mut out, (len << 1) | 1).unwrap();
                        varint::write_u64(&mut out, *distance).unwrap();
                        declared += len;
                    }
                    Token::Padded { token, pad } => {
                        varint::write_u64(&mut out, *token).unwrap();
                        *out.last_mut().unwrap() |= 0x80;
                        out.extend(std::iter::repeat(0x80).take(pad - 1));
                        out.push(0);
                        declared += token >> 1;
                    }
                }
            }
            (out, declared as usize)
        }

        fn literal(bytes: &[u8]) -> Token {
            Token::Literal {
                declared: bytes.len() as u64,
                bytes: bytes.to_vec(),
            }
        }

        /// Tokens that decode after a leading literal of at least 16
        /// bytes: every distance is within the output, and a match
        /// overlaps itself whenever its distance is below its length.
        fn valid_token() -> impl Strategy<Value = Token> {
            use proptest::collection::vec;
            prop_oneof![
                vec(any::<u8>(), 1..40).prop_map(|bytes| literal(&bytes)),
                (4u64..40, 1u64..17).prop_map(|(len, distance)| Token::Match { len, distance }),
            ]
        }

        /// Tokens that fail, or derail the tokens after them.
        fn malformed_token() -> impl Strategy<Value = Token> {
            use proptest::collection::vec;
            prop_oneof![
                Just(literal(b"")),
                (0u64..4, 1u64..17).prop_map(|(len, distance)| Token::Match { len, distance }),
                (vec(any::<u8>(), 0..8), 1u64..24).prop_map(|(bytes, extra)| {
                    Token::Literal {
                        declared: bytes.len() as u64 + extra,
                        bytes,
                    }
                }),
                (
                    4u64..40,
                    prop_oneof![Just(0u64), 50u64..200, 65_530u64..65_545, Just(u64::MAX)],
                )
                    .prop_map(|(len, distance)| Token::Match { len, distance }),
                (0u64..80, 1usize..12).prop_map(|(token, pad)| Token::Padded { token, pad }),
            ]
        }

        /// `true` in one case out of `odds`.
        fn rarely(odds: u32) -> impl Strategy<Value = bool> {
            prop_oneof![odds - 1 => Just(false), 1 => Just(true)]
        }

        proptest! {
            #[test]
            #[cfg_attr(miri, ignore)]
            fn decompress_matches_reference(
                prefix in proptest::collection::vec(any::<u8>(), 16..48),
                tokens in proptest::collection::vec(valid_token(), 0..24),
                bad in (rarely(3), any::<usize>(), malformed_token()),
                data in proptest::collection::vec(0u8..4, 0..600),
                packed in any::<bool>(),
                flip in (rarely(4), any::<usize>(), 1u8..=255),
                trailing in (rarely(4), proptest::collection::vec(any::<u8>(), 1..3)),
                raw_delta in (rarely(4), -3i64..4),
            ) {
                // A generated token stream led by a literal, or a real
                // compressor output (small alphabet: many matches and
                // runs); each damage below is applied in a minority of
                // cases, so about a third of the streams decode.
                let (mut stream, declared) = if packed {
                    (compress(&data), data.len())
                } else {
                    let mut stream = vec![literal(&prefix)];
                    stream.extend(tokens);
                    let (insert, at, token) = bad;
                    if insert {
                        stream.insert(at % (stream.len() + 1), token);
                    }
                    encode(&stream)
                };
                let (mutate, at, mask) = flip;
                if mutate && !stream.is_empty() {
                    let i = at % stream.len();
                    stream[i] ^= mask;
                }
                if trailing.0 {
                    stream.extend_from_slice(&trailing.1);
                }
                let raw_len = if raw_delta.0 {
                    (declared as i64 + raw_delta.1).max(0) as usize
                } else {
                    declared
                };
                let outcome = same_as_reference(&stream, raw_len);
                prop_assert!(outcome.is_ok(), "{:?}", outcome);
            }
        }

        #[test]
        fn fixed_streams_match_reference() {
            let long: Vec<u8> = (0..70_000u32).map(|i| (i % 251) as u8).collect();
            let m = |len, distance| Token::Match { len, distance };
            let hello = compress(b"hello world");
            let cases: Vec<(&str, Vec<u8>, usize, bool)> = vec![
                ("empty", Vec::new(), 0, true),
                ("empty but raw_len 1", Vec::new(), 1, false),
                ("zero-length literal", encode(&[literal(b"")]).0, 1, false),
                ("zero-length match", encode(&[m(0, 1)]).0, 1, false),
                (
                    "overrunning literal",
                    encode(&[Token::Literal {
                        declared: 20,
                        bytes: b"ab".to_vec(),
                    }])
                    .0,
                    20,
                    false,
                ),
                (
                    "match shorter than 4",
                    encode(&[literal(b"abcd"), m(3, 1)]).0,
                    7,
                    false,
                ),
                (
                    "distance 0",
                    encode(&[literal(b"abcd"), m(4, 0)]).0,
                    8,
                    false,
                ),
                (
                    "distance past the output",
                    encode(&[literal(b"abcd"), m(4, 5)]).0,
                    8,
                    false,
                ),
                (
                    "distance past 64 KiB",
                    encode(&[literal(&long), m(4, 65_537)]).0,
                    70_004,
                    false,
                ),
                (
                    "distance at 64 KiB",
                    encode(&[literal(&long), m(4, 65_536)]).0,
                    70_004,
                    true,
                ),
                (
                    "run of one byte",
                    encode(&[literal(b"a"), m(100, 1)]).0,
                    101,
                    true,
                ),
                (
                    "17-byte literal and match",
                    encode(&[literal(&long[..17]), m(17, 17), literal(&long[..20])]).0,
                    54,
                    true,
                ),
                (
                    "overlap by one byte",
                    encode(&[literal(b"abcde"), m(6, 5)]).0,
                    11,
                    true,
                ),
                (
                    "overlap, 16 bytes",
                    encode(&[literal(&long[..15]), m(16, 15)]).0,
                    31,
                    true,
                ),
                (
                    "overlap, distance < 16",
                    encode(&[literal(b"ab"), m(30, 2)]).0,
                    32,
                    true,
                ),
                (
                    "overlap, distance >= 16",
                    encode(&[literal(&long[..20]), m(40, 20)]).0,
                    60,
                    true,
                ),
                (
                    "short match into itself",
                    encode(&[literal(b"abcdefgh"), m(5, 8)]).0,
                    13,
                    true,
                ),
                (
                    "long match",
                    encode(&[literal(&long[..40]), m(30, 40)]).0,
                    70,
                    true,
                ),
                ("over-long varint", vec![0x88, 0x00], 4, false),
                ("eleven-byte varint", vec![0xff; 11], 4, false),
                ("truncated varint", vec![0x80], 1, false),
                ("truncated distance", vec![0x09], 4, false),
                ("trailing bytes", [&hello[..], &[0]].concat(), 11, false),
                ("raw_len too short", hello.clone(), 5, false),
                ("raw_len too long", hello.clone(), 100, false),
                ("exact", hello, 11, true),
            ];
            for (name, stream, raw_len, ok) in cases {
                assert_eq!(same_as_reference(&stream, raw_len), Ok(ok), "{name}");
            }
        }

        #[test]
        fn round_trips_past_the_initial_allocation() {
            let target = INITIAL_CAP + INITIAL_CAP / 4 + 3;
            let mut big = Vec::with_capacity(target + 64);
            let mut x = 0x9e37_79b9u32;
            while big.len() < target {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                big.extend_from_slice(&x.to_le_bytes()[..(x % 4) as usize + 1]);
                if x % 5 == 0 {
                    big.extend_from_slice(b"java.awt.EventDispatchThread.pumpEvents");
                }
                if x % 11 == 0 {
                    big.extend(std::iter::repeat(b'z').take((x % 40) as usize));
                }
            }
            let packed = compress(&big);
            assert_eq!(decompress(&packed, big.len()).unwrap(), big);
            assert_eq!(same_as_reference(&packed, big.len()), Ok(true));
        }
    }
}
