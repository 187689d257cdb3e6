//! Running the characterization study: simulate, analyze, aggregate.

use lagalyzer_core::aggregate::{
    mean_causes, mean_concurrency, mean_coverage_curves, mean_locations, sum_occurrences,
    sum_triggers, AppAggregate, AveragedStats, CharacterizationTable, Characterize,
};
use lagalyzer_core::analysis::{fold_episodes, Scope};
use lagalyzer_core::occurrence::OccurrenceBreakdown;
use lagalyzer_core::parallel::map_shards;
use lagalyzer_core::patterns::PatternSet;
use lagalyzer_core::session::{AnalysisConfig, AnalysisSession};
use lagalyzer_core::stats::SessionStats;
use lagalyzer_core::summary::Summaries;
use lagalyzer_model::OriginClassifier;
use lagalyzer_sim::profile::AppProfile;
use lagalyzer_sim::runner::simulate_session;

/// Analysis results for one application.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// The profile the sessions came from.
    pub profile: AppProfile,
    /// Averaged/summed analysis results.
    pub aggregate: AppAggregate,
}

/// The complete characterization study.
#[derive(Clone, Debug)]
pub struct Study {
    /// Per-application results in suite order.
    pub apps: Vec<AppResult>,
    /// Sessions simulated per application.
    pub sessions_per_app: u32,
}

impl Study {
    /// Simulates `sessions_per_app` sessions for every profile, runs all
    /// analyses, and aggregates per application (the paper uses four
    /// sessions per application).
    pub fn run(profiles: &[AppProfile], sessions_per_app: u32, seed: u64) -> Study {
        Study::run_with_jobs(profiles, sessions_per_app, seed, 1)
    }

    /// Like [`Study::run`], but simulates and analyzes each application's
    /// sessions on up to `jobs` worker threads. Simulation is seeded per
    /// `(profile, session index, seed)` and per-session results are
    /// reassembled in session order before aggregation, so the study is
    /// byte-identical to the serial one for any `jobs`.
    pub fn run_with_jobs(
        profiles: &[AppProfile],
        sessions_per_app: u32,
        seed: u64,
        jobs: usize,
    ) -> Study {
        let classifier = OriginClassifier::java_default();
        let apps = profiles
            .iter()
            .map(|profile| {
                let sessions: Vec<AnalysisSession> =
                    map_shards(sessions_per_app as usize, jobs, |range| {
                        range
                            .map(|i| {
                                AnalysisSession::new(
                                    simulate_session(profile, i as u32, seed),
                                    AnalysisConfig::default(),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                AppResult {
                    profile: profile.clone(),
                    aggregate: aggregate_sessions_with_jobs(
                        &profile.name,
                        &sessions,
                        &classifier,
                        jobs,
                    ),
                }
            })
            .collect();
        Study {
            apps,
            sessions_per_app,
        }
    }

    /// The across-application mean of the averaged Table III rows (the
    /// paper's "Mean" row).
    pub fn mean_stats(&self) -> AveragedStats {
        let rows: Vec<AveragedStats> = self.apps.iter().map(|a| a.aggregate.stats).collect();
        mean_averaged(&rows)
    }
}

/// Everything the aggregation needs from one session, computed in a
/// single sharded pass over the sessions.
struct SessionBundle {
    row: SessionStats,
    patterns: PatternSet,
    characterization: CharacterizationTable,
}

/// Aggregates per-session analysis outputs for one application.
pub fn aggregate_sessions(
    name: &str,
    sessions: &[AnalysisSession],
    classifier: &OriginClassifier,
) -> AppAggregate {
    aggregate_sessions_with_jobs(name, sessions, classifier, 1)
}

/// Like [`aggregate_sessions`], but analyzes the sessions on up to `jobs`
/// worker threads (sharding over sessions; each session's analyses run
/// serially within its shard). All per-session results are exact or
/// normalized identically to the serial analyses, so the aggregate is
/// byte-identical for any `jobs`.
pub fn aggregate_sessions_with_jobs(
    name: &str,
    sessions: &[AnalysisSession],
    classifier: &OriginClassifier,
    jobs: usize,
) -> AppAggregate {
    let bundles: Vec<SessionBundle> = map_shards(sessions.len(), jobs, |range| {
        sessions[range]
            .iter()
            .map(|s| {
                // One summary pass and one mining feed both the Table III
                // row and the pattern-derived figures.
                let summaries = Summaries::of_session(s);
                let patterns = summaries.mine_patterns_with_jobs(1);
                SessionBundle {
                    row: SessionStats::compute_from(&summaries, &patterns, 1),
                    patterns,
                    characterization: fold_episodes(
                        &Characterize {
                            classifier,
                            threshold: s.perceptible_threshold(),
                            salvaged: s.is_salvaged(),
                        },
                        Scope::of_trace(s.trace()),
                        s.episodes(),
                        1,
                    ),
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let rows: Vec<SessionStats> = bundles.iter().map(|b| b.row).collect();
    let tables: Vec<&CharacterizationTable> = bundles.iter().map(|b| &b.characterization).collect();
    AppAggregate {
        name: name.to_owned(),
        sessions: sessions.len(),
        stats: AveragedStats::over(&rows),
        trigger_all: sum_triggers(&tables.iter().map(|t| t.trigger_all()).collect::<Vec<_>>()),
        trigger_perceptible: sum_triggers(
            &tables
                .iter()
                .map(|t| t.trigger_perceptible())
                .collect::<Vec<_>>(),
        ),
        occurrence: sum_occurrences(
            &bundles
                .iter()
                .map(|b| OccurrenceBreakdown::of(&b.patterns))
                .collect::<Vec<_>>(),
        ),
        location_all: mean_locations(&tables.iter().map(|t| t.location_all()).collect::<Vec<_>>()),
        location_perceptible: mean_locations(
            &tables
                .iter()
                .map(|t| t.location_perceptible())
                .collect::<Vec<_>>(),
        ),
        causes_all: mean_causes(&tables.iter().map(|t| t.causes_all()).collect::<Vec<_>>()),
        causes_perceptible: mean_causes(
            &tables
                .iter()
                .map(|t| t.causes_perceptible())
                .collect::<Vec<_>>(),
        ),
        concurrency: mean_concurrency(&tables.iter().map(|t| t.concurrency()).collect::<Vec<_>>()),
        coverage_curve: mean_coverage_curves(
            &bundles
                .iter()
                .map(|b| b.patterns.cumulative_coverage())
                .collect::<Vec<_>>(),
        ),
        salvaged: bundles.iter().any(|b| b.characterization.salvaged()),
    }
}

/// Averages averaged rows once more (for the "Mean" row of Table III).
fn mean_averaged(rows: &[AveragedStats]) -> AveragedStats {
    let n = rows.len().max(1) as f64;
    let mut out = AveragedStats::default();
    for r in rows {
        out.e2e_secs += r.e2e_secs;
        out.in_episode_fraction += r.in_episode_fraction;
        out.short_count += r.short_count;
        out.traced_count += r.traced_count;
        out.perceptible_count += r.perceptible_count;
        out.long_per_minute += r.long_per_minute;
        out.distinct_patterns += r.distinct_patterns;
        out.episodes_in_patterns += r.episodes_in_patterns;
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

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_sim::apps;

    #[test]
    fn study_runs_and_aggregates() {
        let study = Study::run(&[apps::crossword_sage()], 2, 5);
        assert_eq!(study.apps.len(), 1);
        let app = &study.apps[0];
        assert_eq!(app.aggregate.sessions, 2);
        assert!(app.aggregate.stats.traced_count > 500.0);
        assert!(app.aggregate.trigger_all.total() > 0);
        assert!(app.aggregate.occurrence.total() > 0);
        assert!(!app.aggregate.coverage_curve.is_empty());
    }

    #[test]
    fn mean_stats_average_across_apps() {
        let study = Study::run(&[apps::crossword_sage(), apps::jedit()], 1, 5);
        let mean = study.mean_stats();
        let a = study.apps[0].aggregate.stats.traced_count;
        let b = study.apps[1].aggregate.stats.traced_count;
        assert!((mean.traced_count - (a + b) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_study_matches_serial_exactly() {
        let serial = Study::run(&[apps::crossword_sage(), apps::jedit()], 3, 11);
        for jobs in [2, 5] {
            let parallel =
                Study::run_with_jobs(&[apps::crossword_sage(), apps::jedit()], 3, 11, jobs);
            assert_eq!(parallel.apps.len(), serial.apps.len());
            for (p, s) in parallel.apps.iter().zip(serial.apps.iter()) {
                assert_eq!(p.aggregate.name, s.aggregate.name);
                assert_eq!(p.aggregate.sessions, s.aggregate.sessions);
                assert_eq!(p.aggregate.stats, s.aggregate.stats);
                assert_eq!(p.aggregate.trigger_all, s.aggregate.trigger_all);
                assert_eq!(
                    p.aggregate.trigger_perceptible,
                    s.aggregate.trigger_perceptible
                );
                assert_eq!(p.aggregate.occurrence, s.aggregate.occurrence);
                assert_eq!(p.aggregate.location_all, s.aggregate.location_all);
                assert_eq!(
                    p.aggregate.location_perceptible,
                    s.aggregate.location_perceptible
                );
                assert_eq!(p.aggregate.causes_all, s.aggregate.causes_all);
                assert_eq!(
                    p.aggregate.causes_perceptible,
                    s.aggregate.causes_perceptible
                );
                assert_eq!(p.aggregate.concurrency, s.aggregate.concurrency);
                assert_eq!(p.aggregate.coverage_curve, s.aggregate.coverage_curve);
            }
        }
    }

    #[test]
    fn study_is_deterministic() {
        let a = Study::run(&[apps::jfree_chart()], 1, 9);
        let b = Study::run(&[apps::jfree_chart()], 1, 9);
        assert_eq!(
            a.apps[0].aggregate.stats.perceptible_count,
            b.apps[0].aggregate.stats.perceptible_count
        );
        assert_eq!(
            a.apps[0].aggregate.trigger_perceptible,
            b.apps[0].aggregate.trigger_perceptible
        );
    }
}
