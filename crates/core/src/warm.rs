//! Zero-decode warm analysis over persisted rollups.
//!
//! When a v2 binary trace (or a corpus session) carries a validated
//! rollup section, the facts the headline analyses need — shape token
//! streams, tree metrics, per-category lag breakdowns — are already on
//! disk next to the extent index. A [`WarmSession`] reconstructs pattern
//! tables, Table III statistics, duration histograms and outlier reports
//! from those summaries without decoding a single episode payload,
//! producing output **byte-identical** to the cold decode-and-analyze
//! path at any `--jobs` value. Only flagged lock/wait outliers (which
//! need sample snapshots for culprit attribution) trigger a targeted
//! re-decode of their extents, supplied by the caller.
//!
//! A warm session is built from a [`SessionSource`], so `.lgz` files and
//! corpus members take the same path. It only engages on *clean* inputs:
//! salvaged or damaged sessions fall back to the cold path, as do stale
//! rollups (the trace layer already drops rollups whose content checksum
//! does not match the episode payload, so `rollup()` returning `Some`
//! implies a validated cache).

use lagalyzer_model::{DurationNs, Episode, SessionMeta, SymbolTable, WaitGraph};
use lagalyzer_trace::index::{EpisodeFilter, IndexedTrace};
use lagalyzer_trace::rollup::Rollup;
use lagalyzer_trace::SessionSource;

use crate::histogram::DurationHistogram;
use crate::outliers::{
    detect, median_ns, CauseCode, Culprit, LagBreakdown, OutlierConfig, OutlierFinding,
    OutlierReport,
};
use crate::parallel;
use crate::patterns::{PatternSet, PatternTable, SummarizedEpisode};
use crate::session::AnalysisConfig;
use crate::stats::SessionStats;

/// A clean session reconstructed from its persisted rollup: extents for
/// durations and time placement, summaries for everything the decoded
/// trees would have provided, and the session-level short-episode
/// counters from the source.
pub struct WarmSession<'a> {
    source: SessionSource<'a>,
    rollup: &'a Rollup,
    /// Extent positions admitted by the ingest filter, ascending. Warm
    /// episode index `i` corresponds to the cold filtered session's
    /// `episodes()[i]`.
    admitted: Vec<usize>,
    /// Summarized episodes in admitted order, borrowing token streams
    /// from the rollup's shape table.
    summarized: Vec<SummarizedEpisode<'a>>,
    config: AnalysisConfig,
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
        let admitted: Vec<usize> = (0..extents.len())
            .filter(|&i| filter.admits_extent(&extents[i]))
            .collect();
        let summarized: Vec<SummarizedEpisode<'a>> = admitted
            .iter()
            .map(|&pos| {
                let summary = &rollup.summaries[pos];
                SummarizedEpisode {
                    structureless: summary.structureless,
                    has_gc: summary.has_gc,
                    tokens: &rollup.shapes[summary.shape as usize],
                    tree_size: summary.tree_size as usize,
                    tree_depth: summary.tree_depth,
                    duration: extents[pos].duration(),
                }
            })
            .collect();
        Some(WarmSession {
            source,
            rollup,
            admitted,
            summarized,
            config,
        })
    }

    /// [`WarmSession::of_source`] over an indexed `.lgz` trace.
    pub fn of_indexed(
        trace: &'a IndexedTrace,
        config: AnalysisConfig,
        filter: &EpisodeFilter,
    ) -> Option<WarmSession<'a>> {
        WarmSession::of_source(trace.source(), config, filter)
    }

    /// The session metadata.
    pub fn meta(&self) -> &'a SessionMeta {
        self.source.meta()
    }

    /// The session's symbol table.
    pub fn symbols(&self) -> &'a SymbolTable {
        self.source.symbols()
    }

    /// The validated rollup backing this session.
    pub fn rollup(&self) -> &'a Rollup {
        self.rollup
    }

    /// Admitted (analyzed) episode count.
    pub fn len(&self) -> usize {
        self.admitted.len()
    }

    /// True when no episodes survived the filter.
    pub fn is_empty(&self) -> bool {
        self.admitted.is_empty()
    }

    /// Episodes the ingest filter excluded.
    pub fn excluded(&self) -> u64 {
        (self.source.len() - self.admitted.len()) as u64
    }

    /// Extent position (into the full extent table) of warm episode `i`.
    pub fn extent_position(&self, i: usize) -> usize {
        self.admitted[i]
    }

    /// The duration of warm episode `i`.
    pub fn duration(&self, i: usize) -> DurationNs {
        self.source.extents()[self.admitted[i]].duration()
    }

    /// Mines the pattern set from summaries alone. Identical to the cold
    /// miner over the decoded (and equally filtered) session, for every
    /// `jobs` value.
    pub fn mine_patterns_with_jobs(&self, jobs: usize) -> PatternSet {
        let tables = parallel::map_shards(self.summarized.len(), jobs, |range| {
            let mut table = PatternTable::new();
            table.scan_summaries(
                &self.summarized[range.clone()],
                range.start,
                self.config.perceptible_threshold,
            );
            table
        });
        let mut merged = PatternTable::new();
        for table in tables {
            merged.merge(table);
        }
        merged.into_pattern_set(self.source.symbols())
    }

    /// Computes the Table III row from extents and summaries. Identical
    /// to [`SessionStats::compute_with_jobs`] over the decoded session.
    pub fn session_stats_with_jobs(&self, jobs: usize) -> SessionStats {
        self.session_stats_from(&self.mine_patterns_with_jobs(jobs), jobs)
    }

    /// [`WarmSession::session_stats_with_jobs`] over an already-mined
    /// pattern set, so callers needing both the stats row and the
    /// patterns (the `analyze` warm path) mine exactly once.
    pub fn session_stats_from(&self, patterns: &PatternSet, jobs: usize) -> SessionStats {
        let threshold = self.config.perceptible_threshold;
        let extents = self.source.extents();
        let perceptible_count: u64 = parallel::map_shards(self.admitted.len(), jobs, |range| {
            self.admitted[range]
                .iter()
                .filter(|&&pos| extents[pos].duration() >= threshold)
                .count() as u64
        })
        .into_iter()
        .sum();
        let in_episode: DurationNs = self
            .admitted
            .iter()
            .map(|&pos| extents[pos].duration())
            .sum::<DurationNs>()
            + self.source.short_episode_time();
        let in_minutes = in_episode.as_secs_f64() / 60.0;
        let end_to_end = self.source.meta().end_to_end;
        SessionStats {
            end_to_end,
            in_episode_fraction: in_episode.fraction_of(end_to_end).min(1.0),
            short_count: self.source.short_episode_count(),
            traced_count: self.admitted.len() as u64,
            perceptible_count,
            long_per_minute: if in_minutes > 0.0 {
                perceptible_count as f64 / in_minutes
            } else {
                0.0
            },
            distinct_patterns: patterns.len() as u64,
            episodes_in_patterns: patterns.covered_episodes(),
            singleton_fraction: patterns.singleton_fraction(),
            mean_tree_size: patterns.mean_tree_size(),
            mean_tree_depth: patterns.mean_tree_depth(),
        }
    }

    /// The duration histogram over admitted episodes, with the persisted
    /// short-episode counter as below-range mass.
    pub fn histogram(&self) -> DurationHistogram {
        DurationHistogram::of_durations(
            (0..self.admitted.len()).map(|i| self.duration(i)),
            self.source.short_episode_count(),
        )
    }

    /// Runs outlier detection and attribution from summaries. Detection,
    /// medians, baselines and cause attribution all come from persisted
    /// data; only flagged lock/wait episodes need their sample snapshots,
    /// so `decode` is called once with the extent positions of exactly
    /// those episodes (ascending finding order) and must return their
    /// decoded episodes in the same order. Returns `None` when `decode`
    /// fails — the caller falls back to the cold path.
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
        struct WarmWork {
            pattern_index: usize,
            median: DurationNs,
            flagged: Vec<usize>,
            baseline: LagBreakdown,
        }

        let mut work: Vec<WarmWork> = Vec::new();
        let mut patterns_scanned = 0usize;
        let mut episodes_considered = 0usize;
        for (pattern_index, pattern) in patterns.patterns().iter().enumerate() {
            let members = pattern.episode_indices();
            if members.len() < config.min_count {
                continue;
            }
            patterns_scanned += 1;
            episodes_considered += members.len();
            let durations: Vec<DurationNs> = members.iter().map(|&i| self.duration(i)).collect();
            let flagged_local = detect(&durations, config);
            if flagged_local.is_empty() {
                continue;
            }
            let median = DurationNs::from_nanos(median_ns(
                &mut durations.iter().map(|d| d.as_nanos()).collect::<Vec<_>>(),
            ));
            let mut flagged = Vec::with_capacity(flagged_local.len());
            let mut normal = Vec::with_capacity(members.len() - flagged_local.len());
            for (slot, &episode_index) in members.iter().enumerate() {
                if flagged_local.contains(&slot) {
                    flagged.push(episode_index);
                } else {
                    normal.push(episode_index);
                }
            }
            // Pattern centroid: per-category lower median over the normal
            // members' persisted breakdowns — the same values the cold
            // path recomputes per episode.
            let mut baseline = LagBreakdown::default();
            for (slot, &cause) in CauseCode::ALL.iter().enumerate() {
                let mut values: Vec<u64> = normal
                    .iter()
                    .map(|&i| self.rollup.summaries[self.admitted[i]].breakdown[slot])
                    .collect();
                baseline.set(cause, DurationNs::from_nanos(median_ns(&mut values)));
            }
            work.push(WarmWork {
                pattern_index,
                median,
                flagged,
                baseline,
            });
        }

        // First pass: attribute causes from summaries and collect the
        // episodes whose culprit needs sample snapshots.
        struct Pending {
            work_index: usize,
            episode_index: usize,
            cause: CauseCode,
            cause_delta: DurationNs,
            breakdown: LagBreakdown,
            needs_decode: bool,
        }
        let mut pending: Vec<Pending> = Vec::new();
        let mut decode_positions: Vec<usize> = Vec::new();
        for (work_index, w) in work.iter().enumerate() {
            for &episode_index in &w.flagged {
                let breakdown = LagBreakdown::from_array(
                    self.rollup.summaries[self.admitted[episode_index]].breakdown,
                );
                let mut cause = CauseCode::SelfTime;
                let mut cause_delta = DurationNs::ZERO;
                for candidate in CauseCode::ALL {
                    let delta = breakdown
                        .get(candidate)
                        .saturating_sub(w.baseline.get(candidate));
                    if delta > cause_delta {
                        cause = candidate;
                        cause_delta = delta;
                    }
                }
                let needs_decode = matches!(cause, CauseCode::Lock | CauseCode::Wait);
                if needs_decode {
                    decode_positions.push(self.admitted[episode_index]);
                }
                pending.push(Pending {
                    work_index,
                    episode_index,
                    cause,
                    cause_delta,
                    breakdown,
                    needs_decode,
                });
            }
        }

        let decoded = if decode_positions.is_empty() {
            Vec::new()
        } else {
            let episodes = decode(&decode_positions)?;
            if episodes.len() != decode_positions.len() {
                return None;
            }
            episodes
        };

        let mut decoded_iter = decoded.iter();
        let findings: Vec<OutlierFinding> = pending
            .into_iter()
            .map(|p| {
                let w = &work[p.work_index];
                let culprit = if p.needs_decode {
                    let episode = decoded_iter
                        .next()
                        .expect("one decode per lock/wait finding");
                    WaitGraph::extract(episode).top_holder().map(|h| Culprit {
                        thread: h.thread,
                        samples: h.samples,
                        frame: h.top_frame.map(|(m, _)| m),
                    })
                } else {
                    None
                };
                let duration = self.duration(p.episode_index);
                OutlierFinding {
                    pattern_index: w.pattern_index,
                    episode_index: p.episode_index,
                    episode_id: self.source.extents()[self.admitted[p.episode_index]].id,
                    duration,
                    median: w.median,
                    excess: duration.saturating_sub(w.median),
                    cause: p.cause,
                    cause_delta: p.cause_delta,
                    breakdown: p.breakdown,
                    baseline: w.baseline,
                    culprit,
                    bytes: None,
                }
            })
            .collect();

        Some(OutlierReport::from_parts(
            findings,
            patterns_scanned,
            patterns.len(),
            episodes_considered,
            patterns.salvaged(),
        ))
    }
}
