//! Property tests: the sharded-parallel pipeline is byte-identical to the
//! serial analyses on simulator-generated sessions, for any jobs count and
//! any chunking of the episode stream.

use lagalyzer_core::patterns::{PatternSet, PatternTable};
use lagalyzer_core::prelude::*;
use lagalyzer_sim::{apps, runner};
use proptest::prelude::*;

/// Small/medium/large profiles so shard counts exercise uneven ranges.
fn profile_for(index: u8) -> lagalyzer_sim::profile::AppProfile {
    match index % 4 {
        0 => apps::crossword_sage(),
        1 => apps::jedit(),
        2 => apps::free_mind(),
        _ => apps::jmol(),
    }
}

fn session_for(profile_index: u8, seed: u64) -> AnalysisSession {
    AnalysisSession::new(
        runner::simulate_session(&profile_for(profile_index), 0, seed),
        AnalysisConfig::default(),
    )
}

/// Field-by-field equality of two pattern sets, including per-pattern
/// episode index lists and lag statistics.
fn assert_sets_identical(a: &PatternSet, b: &PatternSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.covered_episodes(), b.covered_episodes());
    prop_assert_eq!(a.structureless_episodes(), b.structureless_episodes());
    for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
        prop_assert_eq!(pa.signature(), pb.signature());
        prop_assert_eq!(pa.episode_indices(), pb.episode_indices());
        prop_assert_eq!(pa.count(), pb.count());
        prop_assert_eq!(pa.stats().total, pb.stats().total);
        prop_assert_eq!(pa.stats().min, pb.stats().min);
        prop_assert_eq!(pa.stats().max, pb.stats().max);
        prop_assert_eq!(pa.perceptible_count(), pb.perceptible_count());
        prop_assert_eq!(pa.first_is_perceptible(), pb.first_is_perceptible());
        prop_assert_eq!(pa.gc_episode_count(), pb.gc_episode_count());
        prop_assert_eq!(pa.tree_size(), pb.tree_size());
        prop_assert_eq!(pa.tree_depth(), pb.tree_depth());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mining with any worker count yields the exact same pattern table as
    /// the serial scan.
    #[test]
    fn parallel_mining_is_byte_identical(
        profile_index in 0u8..4,
        seed in 1u64..1000,
        jobs in 2usize..9,
    ) {
        let session = session_for(profile_index, seed);
        let serial = session.mine_patterns();
        let parallel = session.mine_patterns_with_jobs(jobs);
        assert_sets_identical(&serial, &parallel)?;
    }

    /// The Table III row is identical under parallelism, including every
    /// f64-valued field.
    #[test]
    fn parallel_stats_are_byte_identical(
        profile_index in 0u8..4,
        seed in 1u64..1000,
        jobs in 2usize..9,
    ) {
        let session = session_for(profile_index, seed);
        let serial = SessionStats::compute(&session);
        let parallel = SessionStats::compute_with_jobs(&session, jobs);
        prop_assert_eq!(serial, parallel);
    }

    /// Accumulating the session's summaries in arbitrary chunks, merged in
    /// any order, reproduces the whole-session pass — the invariant a
    /// streaming decoder relies on to feed shards while reading.
    #[test]
    fn chunked_table_merge_matches_whole_scan(
        profile_index in 0u8..4,
        seed in 1u64..1000,
        chunk in 1usize..200,
        reverse in any::<bool>(),
    ) {
        let session = session_for(profile_index, seed);
        let summaries = Summaries::of_session(&session);
        let threshold = session.config().perceptible_threshold;
        let mut tables: Vec<PatternTable> = summaries
            .episodes()
            .chunks(chunk)
            .enumerate()
            .map(|(i, chunk_summaries)| {
                let mut table = PatternTable::new();
                table.accumulate(chunk_summaries, i * chunk, threshold);
                table
            })
            .collect();
        if reverse {
            tables.reverse();
        }
        let mut merged = PatternTable::new();
        for table in tables {
            merged.merge(table);
        }
        let chunked = merged.into_pattern_set(summaries.shapes(), summaries.symbols());
        assert_sets_identical(&session.mine_patterns(), &chunked)?;
    }
}
