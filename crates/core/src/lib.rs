//! LagAlyzer — latency profile analysis (the paper's contribution).
//!
//! LagAlyzer is an *offline* tool: it ingests complete session traces
//! produced by a latency profiler (see `lagalyzer-trace`) and mines them
//! for the causes of perceptible lag. This crate implements every analysis
//! in the ISPASS 2010 paper:
//!
//! * [`session`] — the in-memory analysis session wrapping one trace, with
//!   the perceptibility threshold (paper default 100 ms);
//! * [`shape`] — structural tree signatures: interval type + symbolic
//!   information, *excluding* GC nodes and all timing (paper §II-D);
//! * [`intern`] — hash-consing of shape token streams into dense
//!   per-session [`intern::ShapeId`]s (the mining hot path);
//! * [`summary`] — per-episode summaries (shape index, tree metrics,
//!   duration), the one input of mining, Table III, the histogram and
//!   outlier detection, whether summarized from a decoded session or read
//!   from a rollup;
//! * [`patterns`] — episode equivalence classes with per-pattern lag
//!   statistics and the Fig 3 cumulative coverage curve;
//! * [`occurrence`] — always / sometimes / once / never classification of
//!   patterns (Fig 4);
//! * [`trigger`] — input / output / async / unspecified classification via
//!   pre-order traversal, including the Swing repaint-manager
//!   reclassification (Fig 5);
//! * [`location`] — application vs runtime-library time from call-stack
//!   samples, GC and native time from intervals (Fig 6);
//! * [`concurrency`] — average number of runnable threads (Fig 7);
//! * [`causes`] — blocked / waiting / sleeping / runnable partition of
//!   GUI-thread samples (Fig 8);
//! * [`stats`] — the Table III overall statistics row;
//! * [`aggregate`] — averaging across an application's sessions;
//! * [`multi`] — merging patterns across several traces (paper §VI:
//!   "integrates multiple traces in its analysis");
//! * [`outliers`] — per-pattern outlier detection with cause attribution
//!   against the pattern centroid (wait edges, GC, native I/O split);
//! * [`parallel`] — the sharded worker pool behind every `*_with_jobs`
//!   entry point; parallel results are byte-identical to serial ones;
//! * [`diff`] — pattern-level regression detection between two sessions
//!   (the before/after loop the paper's workflow implies);
//! * [`histogram`] — Endo-style response-time distributions over a
//!   session (the related-work view of §VI);
//! * [`browser`] — the pattern browser the paper's §II-E describes;
//! * [`rollup`] — folding decoded episodes into per-episode summary
//!   rollups, persisted or kept in memory for a cold answer (the format
//!   lives in `lagalyzer_trace::rollup`);
//! * [`warm`] — zero-decode warm analysis: summaries read from persisted
//!   rollups, run through the same analysis code as the cold path;
//! * [`analysis`] — the fold trait every analysis of a session's episodes
//!   implements, built-in or custom, and its in-memory driver.
//!
//! # Example
//!
//! ```
//! use lagalyzer_core::prelude::*;
//! use lagalyzer_sim::{apps, runner};
//!
//! let trace = runner::simulate_session(&apps::crossword_sage(), 0, 42);
//! let session = AnalysisSession::new(trace, AnalysisConfig::default());
//! let patterns = session.mine_patterns();
//! assert!(patterns.len() > 0);
//! let stats = SessionStats::compute(&session);
//! assert_eq!(stats.traced_count as usize, session.trace().episodes().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod analysis;
pub mod browser;
pub mod causes;
pub mod concurrency;
pub mod diff;
pub mod histogram;
pub mod intern;
pub mod location;
pub mod multi;
pub mod occurrence;
pub mod outliers;
pub mod parallel;
pub mod patterns;
pub mod rollup;
pub mod session;
pub mod shape;
pub mod stats;
pub mod summary;
pub mod trigger;
pub mod warm;

pub use aggregate::{AppAggregate, CharacterizationTable, Characterize};
pub use analysis::Analysis;
pub use browser::PatternBrowser;
pub use causes::CauseStats;
pub use concurrency::concurrency_stats;
pub use diff::{PatternDelta, SessionDiff};
pub use histogram::DurationHistogram;
pub use intern::{ShapeId, ShapeInterner};
pub use location::LocationStats;
pub use multi::{MultiPattern, MultiPatternSet};
pub use occurrence::Occurrence;
pub use outliers::{
    CauseCode, Culprit, LagBreakdown, OutlierConfig, OutlierFinding, OutlierReport,
};
pub use parallel::{available_jobs, map_shards, resolve_jobs};
pub use patterns::{Pattern, PatternSet, PatternTable};
pub use session::{AnalysisConfig, AnalysisSession, CheckOutcome, Provenance};
pub use shape::ShapeSignature;
pub use stats::SessionStats;
pub use summary::{RollupRows, SessionFacts, Summaries, Summarizer, Summary};
pub use trigger::Trigger;
pub use warm::WarmSession;

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::aggregate::{AppAggregate, CharacterizationTable, Characterize};
    pub use crate::analysis::Analysis;
    pub use crate::browser::PatternBrowser;
    pub use crate::causes::CauseStats;
    pub use crate::concurrency::concurrency_stats;
    pub use crate::diff::{PatternDelta, SessionDiff};
    pub use crate::histogram::DurationHistogram;
    pub use crate::intern::{ShapeId, ShapeInterner};
    pub use crate::location::LocationStats;
    pub use crate::multi::{MultiPattern, MultiPatternSet};
    pub use crate::occurrence::Occurrence;
    pub use crate::outliers::{
        CauseCode, Culprit, LagBreakdown, OutlierConfig, OutlierFinding, OutlierReport,
    };
    pub use crate::parallel::{available_jobs, map_shards, resolve_jobs};
    pub use crate::patterns::{Pattern, PatternSet, PatternTable};
    pub use crate::session::{AnalysisConfig, AnalysisSession, CheckOutcome, Provenance};
    pub use crate::shape::ShapeSignature;
    pub use crate::stats::SessionStats;
    pub use crate::summary::{RollupRows, SessionFacts, Summaries, Summarizer, Summary};
    pub use crate::trigger::Trigger;
    pub use crate::warm::WarmSession;
}
