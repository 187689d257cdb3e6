//! The analysis session: one ingested trace plus analysis configuration.

use lagalyzer_model::{DurationNs, Episode, SessionTrace};

use crate::patterns::PatternSet;
use crate::summary::Summaries;

/// Configuration shared by all analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Episodes at or above this duration are perceptible (paper: 100 ms).
    pub perceptible_threshold: DurationNs,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            perceptible_threshold: DurationNs::PERCEPTIBLE_DEFAULT,
        }
    }
}

/// How the session's trace was obtained.
///
/// A salvaged trace is one recovered from a damaged file by a salvage
/// decode (`lagalyzer_trace::IndexedTrace::open_salvage`, or
/// `text::read_salvage` for a text trace); its episode
/// population may be incomplete, so analyses derived from it carry this
/// flag into their result tables and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Provenance {
    /// Decoded strictly; the trace is complete and verified.
    #[default]
    Clean,
    /// Recovered by salvage decoding; parts of the trace were dropped.
    Salvaged {
        /// Number of skip events the salvager recorded.
        skips: u64,
        /// Number of episodes known to be lost to damage.
        episodes_lost: u64,
    },
}

impl Provenance {
    /// True when the trace was recovered from a damaged file.
    pub fn is_salvaged(&self) -> bool {
        matches!(self, Provenance::Salvaged { .. })
    }
}

/// The recorded outcome of a semantic `check` pass over the session's
/// trace (diagnostic counts by severity; see the `lagalyzer-check`
/// crate). Attached via [`AnalysisSession::record_check`] so reports can
/// say not only *that* the trace was salvaged but whether its decoded
/// content also violated analysis invariants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Error-severity diagnostics (violated analysis invariants).
    pub errors: u64,
    /// Warning-severity diagnostics (weakened assumptions).
    pub warnings: u64,
    /// Note-severity diagnostics (informational).
    pub notes: u64,
}

impl CheckOutcome {
    /// True when the check pass reported nothing at all.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0 && self.notes == 0
    }
}

/// One trace loaded for analysis.
///
/// LagAlyzer is an offline tool: the complete trace must exist before
/// analysis starts (paper §II-A), which is exactly what this type
/// represents. All analyses take an `&AnalysisSession`.
#[derive(Clone, Debug)]
pub struct AnalysisSession {
    trace: SessionTrace,
    config: AnalysisConfig,
    provenance: Provenance,
    excluded_episodes: u64,
    check_outcome: Option<CheckOutcome>,
}

impl AnalysisSession {
    /// Ingests a trace with the given configuration.
    pub fn new(trace: SessionTrace, config: AnalysisConfig) -> Self {
        AnalysisSession {
            trace,
            config,
            provenance: Provenance::Clean,
            excluded_episodes: 0,
            check_outcome: None,
        }
    }

    /// Ingests a trace while recording how it was obtained.
    pub fn with_provenance(
        trace: SessionTrace,
        config: AnalysisConfig,
        provenance: Provenance,
    ) -> Self {
        AnalysisSession {
            trace,
            config,
            provenance,
            excluded_episodes: 0,
            check_outcome: None,
        }
    }

    /// Ingests a trace from which an ingest-time filter excluded
    /// `excluded_episodes` episodes before decoding (skip-decode
    /// filtering); analyses see only what survived, but reports can say
    /// how much was left out.
    pub fn with_exclusions(
        trace: SessionTrace,
        config: AnalysisConfig,
        provenance: Provenance,
        excluded_episodes: u64,
    ) -> Self {
        AnalysisSession {
            trace,
            config,
            provenance,
            excluded_episodes,
            check_outcome: None,
        }
    }

    /// Episodes an ingest-time filter excluded before decoding; zero for
    /// unfiltered sessions.
    pub fn excluded_episodes(&self) -> u64 {
        self.excluded_episodes
    }

    /// Records the outcome of a semantic check pass over this trace so
    /// downstream reports can surface it (`analyze --check`).
    pub fn record_check(&mut self, outcome: CheckOutcome) {
        self.check_outcome = Some(outcome);
    }

    /// The recorded check outcome, if a check pass ran.
    pub fn check_outcome(&self) -> Option<CheckOutcome> {
        self.check_outcome
    }

    /// How this session's trace was obtained.
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// True when the trace was recovered from a damaged file.
    pub fn is_salvaged(&self) -> bool {
        self.provenance.is_salvaged()
    }

    /// The underlying trace.
    pub fn trace(&self) -> &SessionTrace {
        &self.trace
    }

    /// The analysis configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The perceptibility threshold in effect.
    pub fn perceptible_threshold(&self) -> DurationNs {
        self.config.perceptible_threshold
    }

    /// True if `episode` is perceptible under this session's threshold.
    pub fn is_perceptible(&self, episode: &Episode) -> bool {
        episode.is_perceptible(self.config.perceptible_threshold)
    }

    /// All traced episodes.
    pub fn episodes(&self) -> &[Episode] {
        self.trace.episodes()
    }

    /// The perceptible episodes.
    pub fn perceptible_episodes(&self) -> impl Iterator<Item = &Episode> {
        self.trace
            .perceptible_episodes(self.config.perceptible_threshold)
    }

    /// Mines the episode patterns of this session (paper §II-C/§II-D).
    pub fn mine_patterns(&self) -> PatternSet {
        self.mine_patterns_with_jobs(1)
    }

    /// Mines the episode patterns on up to `jobs` worker threads:
    /// summarizes the session, then mines the summaries. The result is
    /// byte-identical to [`AnalysisSession::mine_patterns`] (see
    /// [`crate::parallel`]).
    pub fn mine_patterns_with_jobs(&self, jobs: usize) -> PatternSet {
        Summaries::of_session(self).mine_patterns_with_jobs(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_model::prelude::*;

    fn tiny_trace() -> SessionTrace {
        let meta = SessionMeta {
            application: "T".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(10),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        for (i, dur) in [50u64, 150].iter().enumerate() {
            let start = i as u64 * 1000;
            let mut t = IntervalTreeBuilder::new();
            t.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(start))
                .unwrap();
            t.exit(TimeNs::from_millis(start + dur)).unwrap();
            b.push_episode(
                EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
                    .tree(t.finish().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn default_config_uses_100ms() {
        assert_eq!(
            AnalysisConfig::default().perceptible_threshold,
            DurationNs::from_millis(100)
        );
    }

    #[test]
    fn perceptible_filtering_respects_config() {
        let session = AnalysisSession::new(tiny_trace(), AnalysisConfig::default());
        assert_eq!(session.perceptible_episodes().count(), 1);
        let lax = AnalysisSession::new(
            tiny_trace(),
            AnalysisConfig {
                perceptible_threshold: DurationNs::from_millis(10),
            },
        );
        assert_eq!(lax.perceptible_episodes().count(), 2);
    }

    #[test]
    fn provenance_defaults_to_clean_and_is_carried() {
        let clean = AnalysisSession::new(tiny_trace(), AnalysisConfig::default());
        assert_eq!(clean.provenance(), Provenance::Clean);
        assert!(!clean.is_salvaged());
        let salvaged = AnalysisSession::with_provenance(
            tiny_trace(),
            AnalysisConfig::default(),
            Provenance::Salvaged {
                skips: 3,
                episodes_lost: 1,
            },
        );
        assert!(salvaged.is_salvaged());
        assert_eq!(
            salvaged.provenance(),
            Provenance::Salvaged {
                skips: 3,
                episodes_lost: 1,
            }
        );
    }

    #[test]
    fn exclusions_default_to_zero_and_are_carried() {
        let plain = AnalysisSession::new(tiny_trace(), AnalysisConfig::default());
        assert_eq!(plain.excluded_episodes(), 0);
        let filtered = AnalysisSession::with_exclusions(
            tiny_trace(),
            AnalysisConfig::default(),
            Provenance::Clean,
            5,
        );
        assert_eq!(filtered.excluded_episodes(), 5);
        assert!(!filtered.is_salvaged());
    }

    #[test]
    fn check_outcome_defaults_to_none_and_is_carried() {
        let mut session = AnalysisSession::new(tiny_trace(), AnalysisConfig::default());
        assert_eq!(session.check_outcome(), None);
        session.record_check(CheckOutcome {
            errors: 0,
            warnings: 2,
            notes: 1,
        });
        let outcome = session.check_outcome().unwrap();
        assert_eq!(outcome.warnings, 2);
        assert!(!outcome.is_clean());
        assert!(CheckOutcome::default().is_clean());
    }

    #[test]
    fn accessors() {
        let session = AnalysisSession::new(tiny_trace(), AnalysisConfig::default());
        assert_eq!(session.episodes().len(), 2);
        assert_eq!(session.trace().meta().application, "T");
        assert!(session.is_perceptible(&session.episodes()[1]));
        assert!(!session.is_perceptible(&session.episodes()[0]));
    }
}
