//! Zero-decode warm analysis over persisted rollups.
//!
//! When a v2 binary trace (or a corpus session) carries a validated
//! rollup section, the per-episode [`Summaries`] every session analysis
//! reads — shape indices, tree metrics, flags — are already on disk next to
//! the extent index, along with each episode's lag breakdown. A
//! [`WarmSession`] lifts them into memory without decoding a single
//! episode payload and runs the same analysis code a decoded session runs,
//! so pattern tables, Table III statistics, duration histograms and
//! outlier reports are **byte-identical** to the cold path at any `--jobs`
//! value. Only flagged lock/wait outliers (which need sample snapshots for
//! culprit attribution) trigger a targeted re-decode of their extents,
//! supplied by the caller.
//!
//! A warm session is built from a [`SessionSource`], so `.lgz` files and
//! corpus members take the same path. It only engages on *clean* inputs:
//! salvaged or damaged sessions fall back to the cold path, as do stale
//! rollups (the trace layer already drops rollups whose content checksum
//! does not match the episode payload, so `rollup()` returning `Some`
//! implies a validated cache).

use lagalyzer_model::{Episode, SessionMeta, SymbolTable};
use lagalyzer_trace::index::{EpisodeFilter, IndexedTrace};
use lagalyzer_trace::rollup::Rollup;
use lagalyzer_trace::SessionSource;

use crate::outliers::{OutlierConfig, OutlierReport};
use crate::patterns::PatternSet;
use crate::session::AnalysisConfig;
use crate::stats::SessionStats;
use crate::summary::{RollupRows, SessionFacts, Summaries};

/// A clean session answered from its persisted rollup: summaries lifted
/// from the rollup and the extent index, with the rollup's breakdowns for
/// outlier attribution.
pub struct WarmSession<'a> {
    rollup: &'a Rollup,
    summaries: Summaries<'a>,
}

impl<'a> WarmSession<'a> {
    /// Builds a warm session over a clean session source — a `.lgz` file
    /// or a corpus member — with a validated rollup. `None` when the
    /// session was salvaged or carries no usable rollup; callers fall back
    /// to the cold decode path.
    pub fn of_source(
        source: SessionSource<'a>,
        config: AnalysisConfig,
        filter: &EpisodeFilter,
    ) -> Option<WarmSession<'a>> {
        if source.is_lenient() {
            return None;
        }
        let rollup = source.rollup()?;
        let extents = source.extents();
        debug_assert_eq!(rollup.summaries.len(), extents.len());
        // Extent positions admitted by the ingest filter, ascending: warm
        // episode index `i` is the cold filtered session's `episodes()[i]`.
        let admitted: Vec<usize> = (0..extents.len())
            .filter(|&i| filter.admits_extent(&extents[i]))
            .collect();
        let facts = SessionFacts {
            excluded: (extents.len() - admitted.len()) as u64,
            ..SessionFacts::of_source(&source, config)
        };
        let summaries =
            Summaries::of_rollup(facts, rollup, RollupRows::Persisted { extents, admitted });
        Some(WarmSession { rollup, summaries })
    }

    /// [`WarmSession::of_source`] over an indexed `.lgz` trace.
    pub fn of_indexed(
        trace: &'a IndexedTrace,
        config: AnalysisConfig,
        filter: &EpisodeFilter,
    ) -> Option<WarmSession<'a>> {
        WarmSession::of_source(trace.source(), config, filter)
    }

    /// The session's summaries, read from the rollup.
    pub fn summaries(&self) -> &Summaries<'a> {
        &self.summaries
    }

    /// The session metadata.
    pub fn meta(&self) -> &'a SessionMeta {
        self.summaries.meta()
    }

    /// The session's symbol table.
    pub fn symbols(&self) -> &'a SymbolTable {
        self.summaries.symbols()
    }

    /// The validated rollup backing this session.
    pub fn rollup(&self) -> &'a Rollup {
        self.rollup
    }

    /// Episodes the ingest filter excluded.
    pub fn excluded(&self) -> u64 {
        self.summaries.excluded()
    }

    /// Mines the pattern set from the summaries. Identical to the cold
    /// miner over the decoded (and equally filtered) session, for every
    /// `jobs` value.
    pub fn mine_patterns_with_jobs(&self, jobs: usize) -> PatternSet {
        self.summaries.mine_patterns_with_jobs(jobs)
    }

    /// The Table III row over an already-mined pattern set (see
    /// [`SessionStats::compute_from`]).
    pub fn session_stats_from(&self, patterns: &PatternSet, jobs: usize) -> SessionStats {
        SessionStats::compute_from(&self.summaries, patterns, jobs)
    }

    /// Runs outlier detection and attribution from the summaries and the
    /// persisted breakdowns. Only flagged lock/wait episodes need their
    /// sample snapshots, so `decode` is called once with the extent
    /// positions of exactly those episodes (ascending finding order) and
    /// must return their decoded episodes in the same order. Returns `None`
    /// when `decode` fails — the caller falls back to the cold path.
    ///
    /// The report is byte-identical to
    /// [`OutlierReport::analyze_with_jobs`] over the decoded session with
    /// the same pattern set (parallelism, when wanted, lives inside
    /// `decode` — everything else here is integer bookkeeping).
    pub fn outliers(
        &self,
        patterns: &PatternSet,
        config: &OutlierConfig,
        decode: &dyn Fn(&[usize]) -> Option<Vec<Episode>>,
    ) -> Option<OutlierReport> {
        OutlierReport::of_summaries(&self.summaries, patterns, config, 1, decode)
    }
}
