//! Aggregation of per-session results into per-application rows.
//!
//! Every row in the paper's Table III and every per-application bar in
//! Figs 3–8 is the average over the four sessions recorded for that
//! application; this module implements exactly that averaging.

use lagalyzer_model::{
    Analysis, CodeOrigin, DurationNs, Episode, IntervalKind, OriginClassifier, Scope, ThreadState,
};

use crate::causes::CauseStats;
use crate::concurrency::ConcurrencyStats;
use crate::location::LocationStats;
use crate::occurrence::OccurrenceBreakdown;
use crate::stats::SessionStats;
use crate::trigger::{Trigger, TriggerBreakdown};

/// The averaged per-application analysis results.
#[derive(Clone, Debug, Default)]
pub struct AppAggregate {
    /// Application name.
    pub name: String,
    /// Number of sessions aggregated.
    pub sessions: usize,
    /// Averaged Table III row.
    pub stats: AveragedStats,
    /// Summed trigger breakdown over all episodes.
    pub trigger_all: TriggerBreakdown,
    /// Summed trigger breakdown over perceptible episodes.
    pub trigger_perceptible: TriggerBreakdown,
    /// Summed occurrence breakdown over patterns.
    pub occurrence: OccurrenceBreakdown,
    /// Averaged location shares over all episodes.
    pub location_all: LocationStats,
    /// Averaged location shares over perceptible episodes.
    pub location_perceptible: LocationStats,
    /// Averaged cause partition over all episodes.
    pub causes_all: CauseStats,
    /// Averaged cause partition over perceptible episodes.
    pub causes_perceptible: CauseStats,
    /// Averaged concurrency (all, perceptible).
    pub concurrency: ConcurrencyStats,
    /// Averaged Fig 3 curve, resampled on a common grid of pattern
    /// fractions (x) with mean episode coverage (y).
    pub coverage_curve: Vec<(f64, f64)>,
    /// True when any aggregated session's trace was salvaged from a
    /// damaged file.
    pub salvaged: bool,
}

/// Table III columns averaged over sessions (floating point where the
/// paper rounds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AveragedStats {
    /// Mean end-to-end seconds.
    pub e2e_secs: f64,
    /// Mean in-episode fraction.
    pub in_episode_fraction: f64,
    /// Mean filtered-episode count.
    pub short_count: f64,
    /// Mean traced-episode count.
    pub traced_count: f64,
    /// Mean perceptible-episode count.
    pub perceptible_count: f64,
    /// Mean perceptible episodes per in-episode minute.
    pub long_per_minute: f64,
    /// Mean distinct patterns.
    pub distinct_patterns: f64,
    /// Mean episodes in patterns.
    pub episodes_in_patterns: f64,
    /// Mean singleton fraction.
    pub singleton_fraction: f64,
    /// Mean tree size.
    pub mean_tree_size: f64,
    /// Mean tree depth.
    pub mean_tree_depth: f64,
}

impl AveragedStats {
    /// Averages a set of session rows.
    pub fn over(rows: &[SessionStats]) -> AveragedStats {
        let n = rows.len().max(1) as f64;
        let mut out = AveragedStats::default();
        for r in rows {
            out.e2e_secs += r.end_to_end.as_secs_f64();
            out.in_episode_fraction += r.in_episode_fraction;
            out.short_count += r.short_count as f64;
            out.traced_count += r.traced_count as f64;
            out.perceptible_count += r.perceptible_count as f64;
            out.long_per_minute += r.long_per_minute;
            out.distinct_patterns += r.distinct_patterns as f64;
            out.episodes_in_patterns += r.episodes_in_patterns as f64;
            out.singleton_fraction += r.singleton_fraction;
            out.mean_tree_size += r.mean_tree_size;
            out.mean_tree_depth += r.mean_tree_depth;
        }
        out.e2e_secs /= n;
        out.in_episode_fraction /= n;
        out.short_count /= n;
        out.traced_count /= n;
        out.perceptible_count /= n;
        out.long_per_minute /= n;
        out.distinct_patterns /= n;
        out.episodes_in_patterns /= n;
        out.singleton_fraction /= n;
        out.mean_tree_size /= n;
        out.mean_tree_depth /= n;
        out
    }
}

/// Raw sample/time tallies behind one [`LocationStats`] scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LocationAccum {
    lib_samples: u64,
    app_samples: u64,
    total_time: DurationNs,
    gc_time: DurationNs,
    native_time: DurationNs,
}

impl LocationAccum {
    fn merge(&mut self, other: &LocationAccum) {
        self.lib_samples += other.lib_samples;
        self.app_samples += other.app_samples;
        self.total_time += other.total_time;
        self.gc_time += other.gc_time;
        self.native_time += other.native_time;
    }

    /// Exactly [`LocationStats::of`]'s normalization.
    fn finalize(&self) -> LocationStats {
        let samples = (self.lib_samples + self.app_samples).max(1) as f64;
        LocationStats {
            library: self.lib_samples as f64 / samples,
            application: self.app_samples as f64 / samples,
            gc: self
                .gc_time
                .fraction_of(self.total_time.max(DurationNs::from_nanos(1))),
            native: self
                .native_time
                .fraction_of(self.total_time.max(DurationNs::from_nanos(1))),
        }
    }
}

/// Raw sample tallies behind one [`ConcurrencyStats`] scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ConcurrencyAccum {
    samples: u64,
    runnable: u64,
}

impl ConcurrencyAccum {
    fn merge(&mut self, other: &ConcurrencyAccum) {
        self.samples += other.samples;
        self.runnable += other.runnable;
    }

    /// Exactly [`crate::concurrency::concurrency_over`]'s normalization.
    fn finalize(&self) -> f64 {
        if self.samples > 0 {
            self.runnable as f64 / self.samples as f64
        } else {
            0.0
        }
    }
}

/// The mergeable accumulator behind a session's Fig 5–8 characterization
/// (triggers, locations, causes, concurrency — each over all episodes and
/// over perceptible episodes), as [`Characterize`] folds it.
///
/// Every field is an exact tally (episode counts, sample counts,
/// nanosecond sums), normalized to floating point only in the finalizers.
/// Tables folded from disjoint episode shards therefore merge without
/// loss, and a fold of [`Characterize`] gives results byte-identical to
/// the serial single-pass analyses ([`TriggerBreakdown::of_all`],
/// [`LocationStats::of_all`], [`CauseStats::of_all`],
/// [`crate::concurrency::concurrency_stats`], and their perceptible
/// variants) for any job count.
#[derive(Clone, Debug, Default)]
pub struct CharacterizationTable {
    trigger_all: TriggerBreakdown,
    trigger_perceptible: TriggerBreakdown,
    location_all: LocationAccum,
    location_perceptible: LocationAccum,
    /// Blocked / waiting / sleeping / runnable sample counts.
    causes_all: [u64; 4],
    causes_perceptible: [u64; 4],
    concurrency_all: ConcurrencyAccum,
    concurrency_perceptible: ConcurrencyAccum,
    perceptible_episodes: u64,
    episodes: u64,
    salvaged: bool,
}

/// A session's Figs 5–8 characterization as an [`Analysis`]: each episode
/// tallied into a [`CharacterizationTable`], perceptible at `threshold`
/// and its samples' top frames classified by `classifier`, and the shard
/// tables merged. The merged table is marked `salvaged` when the session
/// came from a damaged file.
#[derive(Clone, Copy, Debug)]
pub struct Characterize<'a> {
    /// Classifies a sample's top frame as library or application code.
    pub classifier: &'a OriginClassifier,
    /// The perceptibility threshold.
    pub threshold: DurationNs,
    /// Whether the session was salvaged from a damaged file.
    pub salvaged: bool,
}

impl Analysis for Characterize<'_> {
    type Shard = CharacterizationTable;
    type Output = CharacterizationTable;

    fn shard(&self, _: Scope<'_>) -> CharacterizationTable {
        CharacterizationTable {
            salvaged: self.salvaged,
            ..CharacterizationTable::default()
        }
    }

    fn push(&self, session: Scope<'_>, t: &mut CharacterizationTable, _: usize, episode: &Episode) {
        let perceptible = episode.is_perceptible(self.threshold);
        t.episodes += 1;
        t.perceptible_episodes += u64::from(perceptible);

        let trigger_slot = |b: &mut TriggerBreakdown| match Trigger::of_episode(episode) {
            Trigger::Input => b.input += 1,
            Trigger::Output => b.output += 1,
            Trigger::Asynchronous => b.asynchronous += 1,
            Trigger::Unspecified => b.unspecified += 1,
        };
        trigger_slot(&mut t.trigger_all);

        let mut location = LocationAccum {
            total_time: episode.duration(),
            gc_time: episode.tree().outermost_kind_time(IntervalKind::Gc),
            native_time: episode.tree().outermost_kind_time(IntervalKind::Native),
            ..LocationAccum::default()
        };
        let mut causes = [0u64; 4];
        let mut concurrency = ConcurrencyAccum::default();
        for snap in episode.samples() {
            concurrency.samples += 1;
            concurrency.runnable += snap.runnable_count() as u64;
            if let Some(ts) = snap.thread(episode.thread()) {
                match ts.top_origin(session.symbols, self.classifier) {
                    CodeOrigin::RuntimeLibrary => location.lib_samples += 1,
                    CodeOrigin::Application => location.app_samples += 1,
                }
                causes[match ts.state {
                    ThreadState::Blocked => 0,
                    ThreadState::Waiting => 1,
                    ThreadState::Sleeping => 2,
                    ThreadState::Runnable => 3,
                }] += 1;
            }
        }
        t.location_all.merge(&location);
        for (slot, n) in t.causes_all.iter_mut().zip(causes) {
            *slot += n;
        }
        t.concurrency_all.merge(&concurrency);
        if perceptible {
            trigger_slot(&mut t.trigger_perceptible);
            t.location_perceptible.merge(&location);
            for (slot, n) in t.causes_perceptible.iter_mut().zip(causes) {
                *slot += n;
            }
            t.concurrency_perceptible.merge(&concurrency);
        }
    }

    fn finish(&self, session: Scope<'_>, shards: Vec<CharacterizationTable>) -> Self::Output {
        let mut merged = self.shard(session);
        for shard in &shards {
            merged.merge(shard);
        }
        merged
    }
}

impl CharacterizationTable {
    /// Folds another shard's tallies into this table (exact and
    /// order-independent).
    fn merge(&mut self, other: &CharacterizationTable) {
        for (a, b) in [
            (&mut self.trigger_all, &other.trigger_all),
            (&mut self.trigger_perceptible, &other.trigger_perceptible),
        ] {
            a.input += b.input;
            a.output += b.output;
            a.asynchronous += b.asynchronous;
            a.unspecified += b.unspecified;
        }
        self.location_all.merge(&other.location_all);
        self.location_perceptible.merge(&other.location_perceptible);
        for (slot, n) in self.causes_all.iter_mut().zip(other.causes_all) {
            *slot += n;
        }
        for (slot, n) in self
            .causes_perceptible
            .iter_mut()
            .zip(other.causes_perceptible)
        {
            *slot += n;
        }
        self.concurrency_all.merge(&other.concurrency_all);
        self.concurrency_perceptible
            .merge(&other.concurrency_perceptible);
        self.perceptible_episodes += other.perceptible_episodes;
        self.episodes += other.episodes;
        self.salvaged |= other.salvaged;
    }

    /// Trigger breakdown over all episodes (Fig 5, upper graph).
    pub fn trigger_all(&self) -> TriggerBreakdown {
        self.trigger_all
    }

    /// Trigger breakdown over perceptible episodes (Fig 5, lower graph).
    pub fn trigger_perceptible(&self) -> TriggerBreakdown {
        self.trigger_perceptible
    }

    /// Location shares over all episodes (Fig 6, upper graph).
    pub fn location_all(&self) -> LocationStats {
        self.location_all.finalize()
    }

    /// Location shares over perceptible episodes (Fig 6, lower graph).
    pub fn location_perceptible(&self) -> LocationStats {
        self.location_perceptible.finalize()
    }

    /// Cause partition over all episodes (Fig 8, upper graph).
    pub fn causes_all(&self) -> CauseStats {
        finalize_causes(&self.causes_all)
    }

    /// Cause partition over perceptible episodes (Fig 8, lower graph).
    pub fn causes_perceptible(&self) -> CauseStats {
        finalize_causes(&self.causes_perceptible)
    }

    /// The Fig 7 concurrency pair.
    pub fn concurrency(&self) -> ConcurrencyStats {
        ConcurrencyStats {
            all: self.concurrency_all.finalize(),
            perceptible: self.concurrency_perceptible.finalize(),
        }
    }

    /// Episodes tallied so far.
    pub fn episode_count(&self) -> u64 {
        self.episodes
    }

    /// Perceptible episodes tallied so far.
    pub fn perceptible_count(&self) -> u64 {
        self.perceptible_episodes
    }

    /// True when any tallied session's trace was salvaged from a damaged
    /// file — the characterization may rest on an incomplete population.
    pub fn salvaged(&self) -> bool {
        self.salvaged
    }
}

/// Exactly [`CauseStats::of`]'s normalization.
fn finalize_causes(counts: &[u64; 4]) -> CauseStats {
    let total = counts.iter().sum::<u64>().max(1) as f64;
    CauseStats {
        blocked: counts[0] as f64 / total,
        waiting: counts[1] as f64 / total,
        sleeping: counts[2] as f64 / total,
        runnable: counts[3] as f64 / total,
    }
}

/// Element-wise sum of trigger breakdowns.
pub fn sum_triggers(parts: &[TriggerBreakdown]) -> TriggerBreakdown {
    let mut out = TriggerBreakdown::default();
    for p in parts {
        out.input += p.input;
        out.output += p.output;
        out.asynchronous += p.asynchronous;
        out.unspecified += p.unspecified;
    }
    out
}

/// Element-wise sum of occurrence breakdowns.
pub fn sum_occurrences(parts: &[OccurrenceBreakdown]) -> OccurrenceBreakdown {
    let mut out = OccurrenceBreakdown::default();
    for p in parts {
        out.always += p.always;
        out.sometimes += p.sometimes;
        out.once += p.once;
        out.never += p.never;
    }
    out
}

/// Mean of location stats.
pub fn mean_locations(parts: &[LocationStats]) -> LocationStats {
    let n = parts.len().max(1) as f64;
    let mut out = LocationStats::default();
    for p in parts {
        out.library += p.library;
        out.application += p.application;
        out.gc += p.gc;
        out.native += p.native;
    }
    out.library /= n;
    out.application /= n;
    out.gc /= n;
    out.native /= n;
    out
}

/// Mean of cause stats.
pub fn mean_causes(parts: &[CauseStats]) -> CauseStats {
    let n = parts.len().max(1) as f64;
    let mut out = CauseStats::default();
    for p in parts {
        out.blocked += p.blocked;
        out.waiting += p.waiting;
        out.sleeping += p.sleeping;
        out.runnable += p.runnable;
    }
    out.blocked /= n;
    out.waiting /= n;
    out.sleeping /= n;
    out.runnable /= n;
    out
}

/// Mean of concurrency stats.
pub fn mean_concurrency(parts: &[ConcurrencyStats]) -> ConcurrencyStats {
    let n = parts.len().max(1) as f64;
    let mut out = ConcurrencyStats::default();
    for p in parts {
        out.all += p.all;
        out.perceptible += p.perceptible;
    }
    out.all /= n;
    out.perceptible /= n;
    out
}

/// Resamples several Fig 3 curves onto a common 100-point grid and
/// averages them. Each input curve must be sorted by x.
pub fn mean_coverage_curves(curves: &[Vec<(f64, f64)>]) -> Vec<(f64, f64)> {
    if curves.is_empty() {
        return Vec::new();
    }
    let grid: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
    grid.iter()
        .map(|&x| {
            let mean_y: f64 = curves
                .iter()
                .map(|curve| sample_curve(curve, x))
                .sum::<f64>()
                / curves.len() as f64;
            (x, mean_y)
        })
        .collect()
}

/// Step-samples a monotone curve at `x` (coverage is a step function of
/// pattern count).
fn sample_curve(curve: &[(f64, f64)], x: f64) -> f64 {
    let mut y = 0.0;
    for &(cx, cy) in curve {
        if cx <= x + 1e-12 {
            y = cy;
        } else {
            break;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use lagalyzer_model::{fold_episodes, DurationNs};

    fn row(traced: u64, perceptible: u64) -> SessionStats {
        SessionStats {
            end_to_end: DurationNs::from_secs(100),
            in_episode_fraction: 0.2,
            short_count: 1000,
            traced_count: traced,
            perceptible_count: perceptible,
            long_per_minute: 10.0,
            distinct_patterns: 50,
            episodes_in_patterns: traced - 5,
            singleton_fraction: 0.5,
            mean_tree_size: 8.0,
            mean_tree_depth: 5.0,
        }
    }

    #[test]
    fn averaging_rows() {
        let avg = AveragedStats::over(&[row(100, 10), row(200, 30)]);
        assert!((avg.traced_count - 150.0).abs() < 1e-12);
        assert!((avg.perceptible_count - 20.0).abs() < 1e-12);
        assert!((avg.e2e_secs - 100.0).abs() < 1e-12);
        assert!((avg.episodes_in_patterns - 145.0).abs() < 1e-12);
    }

    #[test]
    fn empty_average_is_default() {
        assert_eq!(AveragedStats::over(&[]), AveragedStats::default());
    }

    #[test]
    fn trigger_and_occurrence_sums() {
        use crate::occurrence::OccurrenceBreakdown;
        use crate::trigger::TriggerBreakdown;
        let t = sum_triggers(&[
            TriggerBreakdown {
                input: 1,
                output: 2,
                asynchronous: 3,
                unspecified: 4,
            },
            TriggerBreakdown {
                input: 10,
                output: 20,
                asynchronous: 30,
                unspecified: 40,
            },
        ]);
        assert_eq!(t.input, 11);
        assert_eq!(t.total(), 110);
        let o = sum_occurrences(&[
            OccurrenceBreakdown {
                always: 1,
                sometimes: 1,
                once: 1,
                never: 1,
            },
            OccurrenceBreakdown {
                always: 2,
                sometimes: 0,
                once: 0,
                never: 2,
            },
        ]);
        assert_eq!(o.always, 3);
        assert_eq!(o.total(), 8);
    }

    #[test]
    fn mean_structs() {
        let l = mean_locations(&[
            LocationStats {
                library: 0.2,
                application: 0.8,
                gc: 0.1,
                native: 0.0,
            },
            LocationStats {
                library: 0.4,
                application: 0.6,
                gc: 0.3,
                native: 0.2,
            },
        ]);
        assert!((l.library - 0.3).abs() < 1e-12);
        assert!((l.gc - 0.2).abs() < 1e-12);

        let c = mean_causes(&[
            CauseStats {
                blocked: 0.1,
                waiting: 0.1,
                sleeping: 0.1,
                runnable: 0.7,
            },
            CauseStats {
                blocked: 0.3,
                waiting: 0.1,
                sleeping: 0.1,
                runnable: 0.5,
            },
        ]);
        assert!((c.blocked - 0.2).abs() < 1e-12);
        assert!((c.runnable - 0.6).abs() < 1e-12);

        let k = mean_concurrency(&[
            ConcurrencyStats {
                all: 1.0,
                perceptible: 0.8,
            },
            ConcurrencyStats {
                all: 1.4,
                perceptible: 1.0,
            },
        ]);
        assert!((k.all - 1.2).abs() < 1e-12);
        assert!((k.perceptible - 0.9).abs() < 1e-12);
    }

    /// The characterization of `session` under `classifier`.
    fn characterize<'a>(
        session: &AnalysisSession,
        classifier: &'a OriginClassifier,
    ) -> Characterize<'a> {
        Characterize {
            classifier,
            threshold: session.perceptible_threshold(),
            salvaged: session.is_salvaged(),
        }
    }

    #[test]
    fn characterization_table_matches_serial_analyses_exactly() {
        use crate::session::AnalysisConfig;
        use lagalyzer_sim::{apps, runner};
        let session = AnalysisSession::new(
            runner::simulate_session(&apps::crossword_sage(), 0, 42),
            AnalysisConfig::default(),
        );
        let classifier = OriginClassifier::java_default();
        let (analysis, scope) = (
            characterize(&session, &classifier),
            Scope::of_trace(session.trace()),
        );
        for jobs in [1usize, 2, 7] {
            let table = fold_episodes(&analysis, scope, session.episodes(), jobs);
            // Exact (not approximate) equality: the parallel pipeline must
            // be byte-identical to the serial analyses.
            assert_eq!(table.trigger_all(), TriggerBreakdown::of_all(&session));
            assert_eq!(
                table.trigger_perceptible(),
                TriggerBreakdown::of_perceptible(&session)
            );
            assert_eq!(
                table.location_all(),
                LocationStats::of_all(&session, &classifier)
            );
            assert_eq!(
                table.location_perceptible(),
                LocationStats::of_perceptible(&session, &classifier)
            );
            assert_eq!(table.causes_all(), CauseStats::of_all(&session));
            assert_eq!(
                table.causes_perceptible(),
                CauseStats::of_perceptible(&session)
            );
            assert_eq!(
                table.concurrency(),
                crate::concurrency::concurrency_stats(&session)
            );
            assert_eq!(
                table.perceptible_count(),
                session.perceptible_episodes().count() as u64
            );
            assert_eq!(table.episode_count(), session.episodes().len() as u64);
        }
    }

    #[test]
    fn characterization_merge_is_exact() {
        use crate::session::AnalysisConfig;
        use lagalyzer_sim::{apps, runner};
        let session = AnalysisSession::new(
            runner::simulate_session(&apps::jedit(), 1, 7),
            AnalysisConfig::default(),
        );
        let classifier = OriginClassifier::java_default();
        let (analysis, scope) = (
            characterize(&session, &classifier),
            Scope::of_trace(session.trace()),
        );
        let (episodes, n) = (session.episodes(), session.episodes().len());
        let whole = fold_episodes(&analysis, scope, episodes, 1);
        let shards = [0..n / 3, n / 3..2 * n / 3, 2 * n / 3..n].map(|range| {
            let mut shard = analysis.shard(scope);
            for i in range {
                analysis.push(scope, &mut shard, i, &episodes[i]);
            }
            shard
        });
        let pieces = analysis.finish(scope, shards.into());
        assert_eq!(pieces.trigger_all(), whole.trigger_all());
        assert_eq!(pieces.location_all(), whole.location_all());
        assert_eq!(pieces.causes_perceptible(), whole.causes_perceptible());
        assert_eq!(pieces.concurrency(), whole.concurrency());
        assert_eq!(pieces.episode_count(), whole.episode_count());
    }

    #[test]
    fn coverage_resampling() {
        // Single pattern covering everything: a step at x=1.
        let a = vec![(1.0, 1.0)];
        // Two patterns: 80% at half the patterns, 100% at all.
        let b = vec![(0.5, 0.8), (1.0, 1.0)];
        let mean = mean_coverage_curves(&[a, b]);
        assert_eq!(mean.len(), 100);
        // At x=0.5 curve a contributes 0, curve b contributes 0.8.
        let at_half = mean.iter().find(|(x, _)| (*x - 0.5).abs() < 1e-9).unwrap();
        assert!((at_half.1 - 0.4).abs() < 1e-9);
        let last = mean.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
        assert!(mean_coverage_curves(&[]).is_empty());
    }
}
