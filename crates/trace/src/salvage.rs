//! Salvage-mode decoding: recover as much of a damaged trace as possible.
//!
//! The strict decoders ([`crate::binary::read`], [`crate::text::read`])
//! abort on the first malformed byte, which loses a whole session to a
//! single flipped bit or a truncated write. The salvage path instead drops
//! the episode that was in flight when damage was hit, resynchronizes on
//! the next structurally valid record boundary, and keeps going. The
//! result is a [`Salvaged`] value: the recovered session plus a
//! [`SalvageReport`] describing every region that had to be skipped.
//!
//! Binary traces have one salvage scan, in [`crate::binary`]: the tools run
//! it through [`IndexedTrace::open_salvage`], which keeps the extents it
//! rebuilds, and through [`IndexedTrace::fold_verified`] when a trusted
//! open's episodes do not decode, and [`crate::binary::read_salvage`] is
//! the reference that keeps its episodes. Text traces salvage through
//! [`crate::text::read_salvage`]. Both codecs assemble episodes with the
//! same lenient assembler. [`decode_bytes_salvage`] is the materializing
//! whole-file salvage decode of either codec that the tests hold the
//! tools' verified folds to.
//!
//! Guarantees (property-tested in `tests/salvage.rs`):
//!
//! - salvage decoding never panics and never allocates more than the
//!   input it was given (length fields are bounds-checked);
//! - every recovered episode is byte-identical to the corresponding
//!   episode of the undamaged original;
//! - on a clean trace, salvage produces exactly the strict decode result
//!   and a report with no skips.

use std::fmt;

use lagalyzer_model::{
    Episode, EpisodeBuilder, EpisodeId, IntervalTreeBuilder, SampleSnapshot, SessionMeta,
    SessionTrace, SessionTraceBuilder, SymbolId, ThreadId, TimeNs,
};

use crate::error::TraceError;
use crate::index::IndexedTrace;
use crate::record::{SessionRecords, TraceRecord};

/// Where in the input a skip happened: a byte offset for the binary
/// codec, a 1-based line number for the text codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipAt {
    /// Byte offset into a binary trace.
    Byte(u64),
    /// 1-based line number in a text trace.
    Line(u64),
}

impl fmt::Display for SkipAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipAt::Byte(off) => write!(f, "byte {off}"),
            SkipAt::Line(no) => write!(f, "line {no}"),
        }
    }
}

/// One region of the input that salvage decoding had to give up on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageSkip {
    /// Where the damage was detected.
    pub at: SkipAt,
    /// What was being decoded (mirrors [`TraceError::Corrupt`] contexts).
    pub context: &'static str,
    /// Human-readable detail of what went wrong.
    pub detail: String,
    /// Episodes dropped because of this skip (0 or 1: the in-flight one).
    pub episodes_lost: u64,
}

impl fmt::Display for SalvageSkip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.at, self.context, self.detail)?;
        if self.episodes_lost > 0 {
            write!(f, " ({} episode(s) lost)", self.episodes_lost)?;
        }
        Ok(())
    }
}

/// Everything salvage decoding skipped, lost, and recovered.
///
/// `episodes_lost` counts episodes whose begin record was seen but which
/// could not be delivered (damage mid-episode, out-of-order starts, a
/// truncated tail). Episodes whose begin record was itself destroyed
/// leave only stray child records behind and cannot be counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Every skipped region, in input order.
    pub skips: Vec<SalvageSkip>,
    /// Episodes delivered into the recovered session.
    pub episodes_recovered: u64,
    /// Episodes seen but dropped (sum of per-skip counts).
    pub episodes_lost: u64,
    /// Records structurally decoded (including ones later dropped as
    /// strays of a damaged episode).
    pub records_recovered: u64,
    /// Bytes stepped over while resynchronizing (binary codec).
    pub bytes_skipped: u64,
    /// Lines stepped over (text codec: malformed or non-UTF-8 lines).
    pub lines_skipped: u64,
    /// Trailer checksum verdict: `Some(true)` verified, `Some(false)`
    /// mismatch, `None` when absent (text codec, truncated trailer).
    pub checksum_ok: Option<bool>,
}

/// Three-way salvage verdict shared by every consumer that must agree on
/// what "damaged" means — `lagalyzer lint`, `lagalyzer check`, and the
/// provenance plumbing. Centralizing the classification (and the exit
/// codes derived from it) here keeps the CLI subcommands from drifting
/// apart in how they read a [`SalvageReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DamageVerdict {
    /// No skips and no checksum mismatch: salvage equals strict decode.
    Clean,
    /// The trace decoded, but records were skipped or the trailer
    /// checksum did not verify.
    Damaged,
    /// The input could not be decoded at all (no codec signature, or a
    /// header too damaged to establish session metadata).
    Unrecoverable,
}

impl DamageVerdict {
    /// Classifies a salvage report (never [`DamageVerdict::Unrecoverable`]:
    /// if a report exists, something was recovered).
    pub fn of_report(report: &SalvageReport) -> Self {
        if report.skips.is_empty() && report.checksum_ok != Some(false) {
            DamageVerdict::Clean
        } else {
            DamageVerdict::Damaged
        }
    }

    /// The process exit code the CLI scripting contract assigns to this
    /// verdict: 0 clean, 2 salvaged-with-damage, 3 unrecoverable (1 is
    /// reserved for usage/I-O errors and never produced here).
    pub const fn exit_code(self) -> u8 {
        match self {
            DamageVerdict::Clean => 0,
            DamageVerdict::Damaged => 2,
            DamageVerdict::Unrecoverable => 3,
        }
    }

    /// Short human-readable name used in reports.
    pub const fn describe(self) -> &'static str {
        match self {
            DamageVerdict::Clean => "clean",
            DamageVerdict::Damaged => "damaged",
            DamageVerdict::Unrecoverable => "unrecoverable",
        }
    }
}

impl SalvageReport {
    /// `true` when the input decoded without any damage: no skips and no
    /// checksum mismatch. A clean salvage equals the strict decode.
    pub fn is_clean(&self) -> bool {
        DamageVerdict::of_report(self) == DamageVerdict::Clean
    }

    /// Renders the report as human-readable text (used by `lagalyzer
    /// lint`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str("clean: no damage detected\n");
        } else {
            out.push_str("damaged trace\n");
        }
        out.push_str(&format!(
            "episodes recovered  {}\nepisodes lost       {}\nrecords recovered   {}\n",
            self.episodes_recovered, self.episodes_lost, self.records_recovered
        ));
        if self.bytes_skipped > 0 {
            out.push_str(&format!("bytes skipped       {}\n", self.bytes_skipped));
        }
        if self.lines_skipped > 0 {
            out.push_str(&format!("lines skipped       {}\n", self.lines_skipped));
        }
        match self.checksum_ok {
            Some(true) => out.push_str("checksum            ok\n"),
            Some(false) => out.push_str("checksum            MISMATCH\n"),
            None => out.push_str("checksum            absent\n"),
        }
        if !self.skips.is_empty() {
            out.push_str("skips:\n");
            for skip in &self.skips {
                out.push_str(&format!("  {skip}\n"));
            }
        }
        out
    }
}

/// A trace recovered by salvage decoding, with the damage report.
#[derive(Debug)]
pub struct Salvaged {
    /// The recovered session (possibly missing episodes, see `report`).
    pub trace: SessionTrace,
    /// What was skipped and lost on the way.
    pub report: SalvageReport,
}

/// Symbol ids are expected to be dense; a corrupt id further than this
/// beyond the current table is treated as damage instead of padded.
const MAX_SYMBOL_PAD: usize = 1 << 12;

/// An episode being assembled from its records.
struct Inflight {
    id: EpisodeId,
    thread: ThreadId,
    tree: IntervalTreeBuilder,
    samples: Vec<SampleSnapshot>,
}

/// Assembles a possibly damaged record stream into episodes and
/// session-level state, never failing: damage is recorded in the
/// [`SalvageReport`] and the surrounding episode is dropped.
///
/// Invariant: `seeking` implies no episode is in flight. While seeking
/// (after a skip or a stray record), episode-body records are ignored
/// until the next `EpisodeBegin` (or an `EpisodeEnd`, which closes the
/// damaged episode's scope).
pub(crate) struct Assembler {
    records: SessionRecords,
    current: Option<Inflight>,
    seeking: bool,
    last_start: Option<TimeNs>,
    report: SalvageReport,
}

impl Assembler {
    pub(crate) fn new() -> Self {
        Assembler {
            records: SessionRecords::default(),
            current: None,
            seeking: false,
            last_start: None,
            report: SalvageReport::default(),
        }
    }

    pub(crate) fn report(&self) -> &SalvageReport {
        &self.report
    }

    fn skip_entry(&mut self, at: SkipAt, context: &'static str, detail: String, lost: u64) {
        self.report.episodes_lost += lost;
        self.report.skips.push(SalvageSkip {
            at,
            context,
            detail,
            episodes_lost: lost,
        });
    }

    /// Notes damage detected by the decoder (not by this assembler):
    /// drops the in-flight episode and starts seeking.
    pub(crate) fn note_skip(&mut self, at: SkipAt, context: &'static str, detail: String) {
        let lost = u64::from(self.current.take().is_some());
        self.seeking = true;
        self.skip_entry(at, context, detail, lost);
    }

    pub(crate) fn note_bytes_skipped(&mut self, n: u64) {
        self.report.bytes_skipped += n;
    }

    pub(crate) fn note_lines_skipped(&mut self, n: u64) {
        self.report.lines_skipped += n;
    }

    pub(crate) fn set_checksum(&mut self, ok: Option<bool>) {
        self.report.checksum_ok = ok;
    }

    fn stray(&mut self, at: SkipAt, context: &'static str) {
        self.seeking = true;
        self.skip_entry(at, context, "record outside an episode".into(), 0);
    }

    fn drop_current(&mut self, at: SkipAt, context: &'static str, detail: String) {
        self.current = None;
        self.seeking = true;
        self.skip_entry(at, context, detail, 1);
    }

    /// Records a symbol definition, repairing gaps so ids stay dense.
    ///
    /// First definition of an id wins. A lost definition (id beyond the
    /// table) is padded with unique `<lost-symbol-N>` placeholders so
    /// later ids still resolve by position; a duplicate name under a new
    /// id also gets a placeholder to preserve density.
    fn define_symbol(&mut self, at: SkipAt, id: SymbolId, name: &str) {
        let symbols = &mut self.records.symbols;
        let idx = id.index();
        if idx < symbols.len() {
            return;
        }
        if idx > symbols.len() + MAX_SYMBOL_PAD {
            let detail = format!(
                "id {} far beyond table of {} symbols",
                id.as_raw(),
                symbols.len()
            );
            self.skip_entry(at, "symbol record", detail, 0);
            return;
        }
        while symbols.len() < idx {
            let placeholder = format!("<lost-symbol-{}>", symbols.len());
            symbols.intern(&placeholder);
        }
        if symbols.lookup(name).is_some() {
            symbols.intern(&format!("<lost-symbol-{idx}>"));
        } else {
            symbols.intern(name);
        }
    }

    /// Applies one structurally decoded record; returns a finished
    /// episode when this record completed one. Never fails.
    pub(crate) fn push(&mut self, at: SkipAt, record: TraceRecord) -> Option<Episode> {
        self.report.records_recovered += 1;
        match record {
            TraceRecord::Symbol { id, name } => {
                self.define_symbol(at, id, &name);
                None
            }
            TraceRecord::Gc(gc) => {
                if gc.end < gc.start {
                    self.skip_entry(at, "gc record", "end precedes start".into(), 0);
                } else {
                    self.records.gc_events.push(gc);
                }
                None
            }
            TraceRecord::ShortEpisodes { count, total } => {
                self.records.add_short(count, total);
                None
            }
            TraceRecord::EpisodeBegin { id, thread } => {
                if self.current.take().is_some() {
                    self.skip_entry(
                        at,
                        "episode",
                        "new episode begins before previous one ended".into(),
                        1,
                    );
                }
                self.seeking = false;
                self.current = Some(Inflight {
                    id,
                    thread,
                    tree: IntervalTreeBuilder::new(),
                    samples: Vec::new(),
                });
                None
            }
            TraceRecord::Enter {
                kind,
                symbol,
                at: t,
            } => {
                self.interval(at, "enter record", |tree| {
                    tree.enter(kind, symbol, t).map(|_| ())
                });
                None
            }
            TraceRecord::Exit { at: t } => {
                self.interval(at, "exit record", |tree| tree.exit(t).map(|_| ()));
                None
            }
            TraceRecord::Sample(snap) => {
                if self.seeking {
                    return None;
                }
                match self.current.as_mut() {
                    Some(cur) => cur.samples.push(snap),
                    None => self.stray(at, "sample record"),
                }
                None
            }
            TraceRecord::EpisodeEnd => self.finish_episode(at),
        }
    }

    /// Shared gating for `Enter`/`Exit`: ignore while seeking, report a
    /// stray outside an episode, drop the episode on a tree violation.
    fn interval<F>(&mut self, at: SkipAt, context: &'static str, apply: F)
    where
        F: FnOnce(&mut IntervalTreeBuilder) -> Result<(), lagalyzer_model::ModelError>,
    {
        if self.seeking {
            return;
        }
        let Some(cur) = self.current.as_mut() else {
            self.stray(at, context);
            return;
        };
        if let Err(e) = apply(&mut cur.tree) {
            self.drop_current(at, context, e.to_string());
        }
    }

    fn finish_episode(&mut self, at: SkipAt) -> Option<Episode> {
        if self.seeking {
            // The end of the episode that was dropped mid-flight: its
            // scope is over, stop suppressing.
            self.seeking = false;
            return None;
        }
        let Some(cur) = self.current.take() else {
            self.stray(at, "end record");
            // `stray` starts seeking, but this end is its own scope.
            self.seeking = false;
            return None;
        };
        let built = cur.tree.finish().and_then(|tree| {
            EpisodeBuilder::new(cur.id, cur.thread)
                .tree(tree)
                .samples(cur.samples)
                .build()
        });
        let episode = match built {
            Ok(ep) => ep,
            Err(e) => {
                self.skip_entry(at, "episode", e.to_string(), 1);
                return None;
            }
        };
        if let Some(last) = self.last_start {
            if episode.start() < last {
                self.skip_entry(
                    at,
                    "episode",
                    format!(
                        "starts at {} before previous episode at {}",
                        episode.start().as_nanos(),
                        last.as_nanos()
                    ),
                    1,
                );
                return None;
            }
        }
        self.last_start = Some(episode.start());
        self.report.episodes_recovered += 1;
        Some(episode)
    }

    /// Call when the record stream is exhausted: an unterminated final
    /// episode is dropped and reported.
    pub(crate) fn end_of_input(&mut self, at: SkipAt) {
        if self.current.take().is_some() {
            self.seeking = false;
            self.skip_entry(at, "episode", "input ends mid-episode".into(), 1);
        }
    }

    /// Consumes the assembler into the session-level records and the
    /// report.
    pub(crate) fn finish(self) -> (SessionRecords, SalvageReport) {
        (self.records, self.report)
    }
}

/// Builds the recovered [`SessionTrace`] out of the assembler's outputs.
pub(crate) fn build_session(
    meta: SessionMeta,
    episodes: Vec<Episode>,
    mut records: SessionRecords,
) -> SessionTrace {
    let mut b = SessionTraceBuilder::new(meta, std::mem::take(&mut records.symbols));
    for episode in episodes {
        // Ordering was enforced during assembly, so this cannot fail;
        // drop defensively rather than panic or propagate.
        let _ = b.push_episode(episode);
    }
    records.finish(b)
}

/// Salvage-decodes a whole trace from bytes into memory, sniffing binary
/// vs text like [`crate::read_bytes`]: a binary trace through
/// [`IndexedTrace::open_salvage`] and
/// [`IndexedTrace::fold_verified`], returned too for its extents and index
/// health, a text trace through [`crate::text::read_salvage`]. Every
/// episode is decoded, so the report is [`read_bytes_salvage`]'s even when
/// a verified trailer checksum covers episode bytes that no longer decode
/// or records that do not add up to the declared count.
///
/// This is the materializing reference the tests hold the tools' folds
/// to; the tools themselves fold the trace and keep no episode.
///
/// # Errors
///
/// Fails only when the input is unrecoverable, like
/// [`read_bytes_salvage`].
pub fn decode_bytes_salvage(
    bytes: Vec<u8>,
    jobs: usize,
) -> Result<(Salvaged, Option<IndexedTrace>), TraceError> {
    if !bytes.starts_with(crate::binary::MAGIC_PREFIX) {
        return Ok((read_bytes_salvage(&bytes)?, None));
    }
    let opened = IndexedTrace::open_salvage(bytes)?;
    let (trace, rescanned) = opened.fold_verified(|_, source| source.decode(jobs))?;
    let indexed = rescanned.unwrap_or(opened);
    let report = indexed
        .salvage_report()
        .cloned()
        .expect("a salvage open always carries a report");
    Ok((Salvaged { trace, report }, Some(indexed)))
}

/// Salvage-decodes a trace from bytes, sniffing binary vs text like
/// [`crate::read_bytes`]. This is the serial reference:
/// [`decode_bytes_salvage`] is the indexed one.
///
/// # Errors
///
/// Fails only when the input is unrecoverable: neither codec's signature,
/// or a binary header too damaged to establish the session metadata.
pub fn read_bytes_salvage(bytes: &[u8]) -> Result<Salvaged, TraceError> {
    if bytes.starts_with(crate::binary::MAGIC_PREFIX) {
        crate::binary::read_salvage(bytes)
    } else if bytes.starts_with(crate::text::SIGNATURE_PREFIX.as_bytes()) {
        crate::text::read_salvage(bytes)
    } else {
        Err(TraceError::corrupt(
            "format",
            "neither binary nor text trace signature",
        ))
    }
}
