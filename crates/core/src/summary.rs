//! Per-episode summaries: the one input of every session analysis.
//!
//! Pattern mining (§II-C/D), the Table III row (§IV), the duration
//! histogram and outlier detection all read the same few facts per
//! episode: its shape, tree size and depth, duration and id. A [`Summary`]
//! holds those facts. [`Summaries`] holds one session's summaries in
//! dispatch order, the per-session shape table their `shape` indices point
//! into, and the session-level counters Table III needs.
//!
//! Summaries come from one of two places, and everything downstream of
//! them is the same code:
//!
//! * a rollup supplies them through [`Summaries::of_rollup`]: a validated
//!   rollup from disk without decoding a payload (see [`crate::warm`]), or
//!   one a [`crate::rollup::RollupBuilder`] folded in memory while the
//!   episodes were decoded (the CLI's cold path);
//! * a decoded session is summarized in one pass by
//!   [`Summaries::of_session`], the materializing reference.
//!
//! Lag breakdowns are not part of a summary. Rollup-backed summaries read
//! them from the rollup; a decoded session's are computed from its
//! episodes, and only for the episodes outlier attribution reads.

use std::borrow::Cow;

use lagalyzer_model::{
    DurationNs, Episode, EpisodeId, GcEvent, SessionMeta, SessionTrace, SymbolTable,
};
use lagalyzer_trace::index::EpisodeExtent;
use lagalyzer_trace::rollup::{EpisodeSummary, Rollup};
use lagalyzer_trace::SessionSource;

use crate::histogram::DurationHistogram;
use crate::intern::{ShapeId, ShapeInterner};
use crate::outliers::{culprit_of, Culprit, LagBreakdown};
use crate::parallel;
use crate::patterns::{PatternSet, PatternTable};
use crate::rollup::Row;
use crate::session::{AnalysisConfig, AnalysisSession};
use crate::shape::write_shape_tokens;

/// One episode's analysis facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// The episode's trace id.
    pub id: EpisodeId,
    /// Wall-clock duration of the episode.
    pub duration: DurationNs,
    /// Index of the episode's shape token stream (as produced by
    /// [`write_shape_tokens`]) in the session's shape table.
    pub shape: u32,
    /// `descendant_count(root)` of the interval tree (Table III "Descs").
    pub tree_size: usize,
    /// `max_depth()` of the interval tree (Table III "Depth").
    pub tree_depth: u32,
    /// True when the dispatch interval has no children: counted, never
    /// grouped into a pattern.
    pub structureless: bool,
    /// True when the tree contains a GC interval.
    pub has_gc: bool,
}

/// Summarizes one session's episodes, deduplicating their shape token
/// streams into the session's shape table in first-use order.
#[derive(Clone, Debug, Default)]
pub struct Summarizer {
    interner: ShapeInterner,
    /// Reused token buffer: summarizing allocates only for new shapes.
    scratch: Vec<u8>,
}

impl Summarizer {
    /// A summarizer with an empty shape table.
    pub fn new() -> Summarizer {
        Summarizer::default()
    }

    /// Summarizes `episode`, interning its shape. This is the one place a
    /// per-episode summary is computed.
    pub fn summarize(&mut self, episode: &Episode) -> Summary {
        let tree = episode.tree();
        self.scratch.clear();
        let has_gc = write_shape_tokens(tree, &mut self.scratch);
        let (shape, _) = self.interner.intern(&self.scratch);
        Summary {
            id: episode.id(),
            duration: episode.duration(),
            shape: shape.index() as u32,
            tree_size: tree.descendant_count(tree.root()),
            tree_depth: tree.max_depth(),
            structureless: episode.is_structureless(),
            has_gc,
        }
    }

    /// The shape table: token streams indexed by [`Summary::shape`].
    pub fn into_shapes(self) -> Vec<Vec<u8>> {
        self.interner.into_shapes()
    }

    /// Interns `other`'s shapes here in `other`'s index order, which is its
    /// first-use order, and returns the index each one has here.
    pub(crate) fn absorb(&mut self, other: &Summarizer) -> Vec<u32> {
        (0..other.interner.len())
            .map(|i| {
                let tokens = other.interner.tokens(ShapeId::from_index(i));
                self.interner.intern(tokens).0.index() as u32
            })
            .collect()
    }
}

/// One session's summaries, in the (filtered) session's episode order,
/// with the shape table and session facts the analyses read.
#[derive(Clone, Debug)]
pub struct Summaries<'a> {
    pub(crate) meta: &'a SessionMeta,
    pub(crate) symbols: &'a SymbolTable,
    /// Token streams indexed by [`Summary::shape`]: owned when summarized
    /// from decoded episodes, borrowed from a rollup on the warm path.
    pub(crate) shapes: Cow<'a, [Vec<u8>]>,
    pub(crate) episodes: Vec<Summary>,
    pub(crate) short_count: u64,
    pub(crate) short_time: DurationNs,
    pub(crate) excluded: u64,
    pub(crate) config: AnalysisConfig,
    pub(crate) salvaged: bool,
    pub(crate) detail: Detail<'a>,
}

/// Where the facts a summary does not carry come from: an episode's lag
/// breakdown, and the episode itself for a wait-graph culprit.
#[derive(Clone, Debug)]
pub(crate) enum Detail<'a> {
    /// The decoded episodes, in summary order; breakdowns are computed on
    /// demand.
    Decoded(&'a [Episode]),
    /// A rollup: breakdowns are read from it, and episodes are re-decoded
    /// from their positions for culprits.
    Rollup {
        rollup: &'a Rollup,
        rows: RollupRows<'a>,
    },
}

/// The session facts [`Summaries`] carry next to the per-episode
/// summaries.
#[derive(Clone, Copy, Debug)]
pub struct SessionFacts<'a> {
    /// The session metadata.
    pub meta: &'a SessionMeta,
    /// The session's symbol table.
    pub symbols: &'a SymbolTable,
    /// The session-level GC events, in record order.
    pub gc_events: &'a [GcEvent],
    /// Episodes below the tracer-side filter threshold.
    pub short_count: u64,
    /// Total time spent in those short episodes.
    pub short_time: DurationNs,
    /// Episodes an ingest filter excluded.
    pub excluded: u64,
    /// The analysis configuration.
    pub config: AnalysisConfig,
    /// True when the session was salvaged from a damaged file.
    pub salvaged: bool,
}

impl<'a> SessionFacts<'a> {
    /// The facts of an opened session, with nothing excluded and not
    /// salvaged.
    pub fn of_source(source: &SessionSource<'a>, config: AnalysisConfig) -> SessionFacts<'a> {
        SessionFacts {
            meta: source.meta(),
            symbols: source.symbols(),
            gc_events: source.gc_events(),
            short_count: source.short_episode_count(),
            short_time: source.short_episode_time(),
            excluded: 0,
            config,
            salvaged: false,
        }
    }

    /// The facts of a decoded trace, with nothing excluded and not
    /// salvaged.
    pub fn of_trace(trace: &'a SessionTrace, config: AnalysisConfig) -> SessionFacts<'a> {
        SessionFacts {
            meta: trace.meta(),
            symbols: trace.symbols(),
            gc_events: trace.gc_events(),
            short_count: trace.short_episode_count(),
            short_time: trace.short_episode_time(),
            excluded: 0,
            config,
            salvaged: false,
        }
    }
}

/// Which episodes a rollup-backed [`Summaries`] analyzes, and where each
/// one's rollup summary is.
#[derive(Clone, Debug)]
pub enum RollupRows<'a> {
    /// A persisted rollup, one summary per extent: the analyzed episodes
    /// are the extents at positions `admitted` (ascending), which supply
    /// their ids and durations.
    Persisted {
        /// The session's extent index.
        extents: &'a [EpisodeExtent],
        /// The analyzed extents' positions.
        admitted: Vec<usize>,
    },
    /// A rollup folded from exactly the analyzed episodes: summary `i`
    /// describes `rows[i]`'s episode.
    Folded(&'a [Row]),
}

impl RollupRows<'_> {
    /// The rollup summary index of analyzed episode `i`.
    fn summary(&self, i: usize) -> usize {
        match self {
            RollupRows::Persisted { admitted, .. } => admitted[i],
            RollupRows::Folded(_) => i,
        }
    }
}

impl<'a> Summaries<'a> {
    /// Summarizes a decoded session in one pass.
    pub fn of_session(session: &'a AnalysisSession) -> Summaries<'a> {
        let trace = session.trace();
        let mut summarizer = Summarizer::new();
        let episodes = trace
            .episodes()
            .iter()
            .map(|e| summarizer.summarize(e))
            .collect();
        Summaries {
            meta: trace.meta(),
            symbols: trace.symbols(),
            shapes: Cow::Owned(summarizer.into_shapes()),
            episodes,
            short_count: trace.short_episode_count(),
            short_time: trace.short_episode_time(),
            excluded: session.excluded_episodes(),
            config: *session.config(),
            salvaged: session.is_salvaged(),
            detail: Detail::Decoded(trace.episodes()),
        }
    }

    /// Summaries read from a rollup, persisted or folded in memory: the
    /// one constructor the warm and the cold path share, so everything
    /// from the summaries on is the same code.
    pub fn of_rollup(
        facts: SessionFacts<'a>,
        rollup: &'a Rollup,
        rows: RollupRows<'a>,
    ) -> Summaries<'a> {
        let summary = |s: &EpisodeSummary, id: EpisodeId, duration: DurationNs| Summary {
            id,
            duration,
            shape: s.shape,
            tree_size: s.tree_size as usize,
            tree_depth: s.tree_depth,
            structureless: s.structureless,
            has_gc: s.has_gc,
        };
        let episodes = match &rows {
            RollupRows::Persisted { extents, admitted } => admitted
                .iter()
                .map(|&pos| {
                    let extent = &extents[pos];
                    summary(&rollup.summaries[pos], extent.id, extent.duration())
                })
                .collect(),
            RollupRows::Folded(rows) => rows
                .iter()
                .zip(&rollup.summaries)
                .map(|(row, s)| summary(s, row.id, row.duration))
                .collect(),
        };
        Summaries {
            meta: facts.meta,
            symbols: facts.symbols,
            shapes: Cow::Borrowed(&rollup.shapes),
            episodes,
            short_count: facts.short_count,
            short_time: facts.short_time,
            excluded: facts.excluded,
            config: facts.config,
            salvaged: facts.salvaged,
            detail: Detail::Rollup { rollup, rows },
        }
    }

    /// The session metadata.
    pub fn meta(&self) -> &'a SessionMeta {
        self.meta
    }

    /// The session's symbol table (the shape tokens' symbol ids index it).
    pub fn symbols(&self) -> &'a SymbolTable {
        self.symbols
    }

    /// The summaries, one per analyzed episode.
    pub fn episodes(&self) -> &[Summary] {
        &self.episodes
    }

    /// The shape table [`Summary::shape`] indexes.
    pub fn shapes(&self) -> &[Vec<u8>] {
        &self.shapes
    }

    /// The analysis configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Where analyzed episode `i` is decoded from: its extent position in
    /// the session's source, or its index among a decoded trace's
    /// episodes (the positions a subset decode takes).
    pub fn position(&self, i: usize) -> usize {
        match &self.detail {
            Detail::Decoded(_) => i,
            Detail::Rollup { rows, .. } => match rows {
                RollupRows::Persisted { admitted, .. } => admitted[i],
                RollupRows::Folded(rows) => rows[i].position,
            },
        }
    }

    /// Episodes an ingest-time filter excluded before summarizing.
    pub fn excluded(&self) -> u64 {
        self.excluded
    }

    /// Mines the pattern set on up to `jobs` worker threads.
    ///
    /// Summaries are sharded into contiguous index ranges and accumulated
    /// into per-shard [`PatternTable`]s by their shape index; the tables
    /// merge by index in shard order and the merged table renders each
    /// shape's signature once. Every accumulator is exact, so the result is
    /// identical for any `jobs`.
    pub fn mine_patterns_with_jobs(&self, jobs: usize) -> PatternSet {
        let threshold = self.config.perceptible_threshold;
        let tables = parallel::map_shards(self.episodes.len(), jobs, |range| {
            let mut table = PatternTable::new();
            table.accumulate(&self.episodes[range.clone()], range.start, threshold);
            table
        });
        let mut merged = PatternTable::new();
        if self.salvaged {
            merged.mark_salvaged();
        }
        for table in tables {
            merged.merge(table);
        }
        merged.into_pattern_set(&self.shapes, self.symbols)
    }

    /// The lag breakdown of episode `i`: read from the rollup, or computed
    /// from the decoded episode.
    pub(crate) fn breakdown(&self, i: usize) -> LagBreakdown {
        match &self.detail {
            Detail::Decoded(episodes) => LagBreakdown::of_episode(&episodes[i], self.symbols),
            Detail::Rollup { rollup, rows } => {
                LagBreakdown::from_array(rollup.summaries[rows.summary(i)].breakdown)
            }
        }
    }

    /// The wait-graph culprits of episodes `indices`, in order. Decoded
    /// episodes are read directly; rollup-backed summaries call `decode`
    /// once with the episodes' positions. `None` when `decode` fails
    /// or returns the wrong number of episodes.
    pub(crate) fn culprits(
        &self,
        indices: &[usize],
        decode: &dyn Fn(&[usize]) -> Option<Vec<Episode>>,
    ) -> Option<Vec<Option<Culprit>>> {
        match &self.detail {
            Detail::Decoded(episodes) => {
                Some(indices.iter().map(|&i| culprit_of(&episodes[i])).collect())
            }
            Detail::Rollup { .. } => {
                let positions: Vec<usize> = indices.iter().map(|&i| self.position(i)).collect();
                let decoded = decode(&positions)?;
                (decoded.len() == positions.len()).then(|| decoded.iter().map(culprit_of).collect())
            }
        }
    }

    /// The duration histogram, with the short-episode counter as
    /// below-range mass.
    pub fn histogram(&self) -> DurationHistogram {
        DurationHistogram::of_durations(self.episodes.iter().map(|e| e.duration), self.short_count)
    }
}
