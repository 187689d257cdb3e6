//! The streamed rollup fold against the materialized references.
//!
//! `RollupBuilder`, run by `SessionSource::fold`, summarizes each episode
//! as it decodes and keeps none of them. It must build, field for field, the
//! rollup `rollup::build` builds from the decoded (equally filtered)
//! trace, at any job count and on salvaged sessions; shards cut by hand
//! must merge into that rollup too, whatever the machine's parallelism;
//! its rows must name the decoded episodes; and summaries read from it
//! must mine what the decoded session mines. The lag breakdown's one-pass scan is held to the
//! two-walk definition it replaced.

use lagalyzer_core::analysis::Scope;
use lagalyzer_core::prelude::*;
use lagalyzer_core::rollup::{self, RollupBuilder, RollupShard};
use lagalyzer_model::{DurationNs, Episode, IntervalKind, SessionTrace, ThreadState, TimeNs};
use lagalyzer_sim::scenarios::ground_truths;
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::faults::FaultInjector;
use lagalyzer_trace::{binary, EpisodeFilter, IndexedTrace};
use proptest::prelude::*;

#[path = "support/layouts.rs"]
mod layouts;
use layouts::layouts;

fn encode(trace: &SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write(trace, &mut bytes).unwrap();
    bytes
}

/// The ingest filters the CLI can build.
fn filters() -> Vec<EpisodeFilter> {
    vec![
        EpisodeFilter::new(),
        EpisodeFilter::new().min_duration(DurationNs::from_millis(50)),
        EpisodeFilter::new().min_duration(DurationNs::PERCEPTIBLE_DEFAULT),
        EpisodeFilter::new().window(TimeNs::from_millis(20_000), TimeNs::from_millis(200_000)),
    ]
}

/// Folds `indexed` at `jobs` and checks it against `rollup::build` of the
/// same episodes decoded, and the summaries read from it against the
/// decoded session's.
fn assert_fold_matches(indexed: &IndexedTrace, filter: &EpisodeFilter, jobs: usize) {
    let source = indexed.source();
    let decoded = source.decode_filtered(1, filter).unwrap();
    let folded = source
        .fold(jobs, filter, &RollupBuilder::default())
        .unwrap();
    assert_eq!(folded.rollup, rollup::build(&decoded), "jobs {jobs}");
    assert_eq!(folded.rows.len(), decoded.episodes().len());
    for (row, episode) in folded.rows.iter().zip(decoded.episodes()) {
        assert_eq!(row.id, episode.id());
        assert_eq!(row.duration, episode.duration());
        assert_eq!(source.extents()[row.position].id, episode.id());
    }

    let config = AnalysisConfig::default();
    let session = AnalysisSession::new(decoded, config);
    let reference = Summaries::of_session(&session);
    let facts = SessionFacts::of_source(&source, config);
    let streamed = Summaries::of_rollup(facts, &folded.rollup, RollupRows::Folded(&folded.rows));
    assert_eq!(streamed.episodes(), reference.episodes());
    assert_eq!(streamed.shapes(), reference.shapes());
    let (a, b) = (
        streamed.mine_patterns_with_jobs(jobs),
        reference.mine_patterns_with_jobs(jobs),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.patterns().iter().zip(b.patterns()) {
        assert_eq!(x.signature(), y.signature());
        assert_eq!(x.episode_indices(), y.episode_indices());
    }
}

#[test]
fn folded_rollups_match_built_ones_on_the_ground_truths() {
    for gt in ground_truths() {
        let indexed = IndexedTrace::open(encode(&gt.trace)).unwrap();
        for filter in filters() {
            for jobs in [1, 3] {
                assert_fold_matches(&indexed, &filter, jobs);
            }
        }
    }
}

/// `RollupBuilder`'s `finish` merges shards cut by hand exactly as a serial
/// build, independent of the machine's parallelism: the episodes pushed
/// into two to five shards, with shape first uses straddling the
/// boundaries, give `rollup::build`'s rollup and rows in episode order.
#[test]
fn hand_cut_shards_merge_into_the_serial_rollup() {
    let mut traces: Vec<SessionTrace> = ground_truths().into_iter().map(|g| g.trace).collect();
    traces.push(runner::simulate_session(&apps::crossword_sage(), 0, 11));
    traces.push(runner::simulate_session(&apps::jedit(), 1, 4));
    let mut straddled = 0;
    for trace in &traces {
        let serial = rollup::build(trace);
        let episodes = trace.episodes();
        let mut first_uses = Vec::new();
        for (position, summary) in serial.summaries.iter().enumerate() {
            if summary.shape as usize == first_uses.len() {
                first_uses.push(position);
            }
        }
        let (builder, scope) = (RollupBuilder::default(), Scope::of_trace(trace));
        for cuts in layouts(episodes.len(), &first_uses) {
            let mut shards: Vec<RollupShard> =
                (0..=cuts.len()).map(|_| builder.shard(scope)).collect();
            for (position, episode) in episodes.iter().enumerate() {
                let shard = cuts.partition_point(|&c| c <= position);
                builder.push(scope, &mut shards[shard], position, episode);
            }
            let folded = builder.finish(scope, shards);
            let context = format!("{} cut at {cuts:?}", trace.meta().application);
            assert_eq!(folded.rollup, serial, "{context}");
            assert_eq!(folded.rows.len(), episodes.len(), "{context}");
            for (position, (row, episode)) in folded.rows.iter().zip(episodes).enumerate() {
                assert_eq!(row.position, position, "{context}");
                assert_eq!(row.id, episode.id(), "{context}");
                assert_eq!(row.duration, episode.duration(), "{context}");
            }
            // Some shape is first used ahead of a cut and used again
            // after it.
            let shard_of = |position: usize| cuts.partition_point(|&c| c <= position);
            straddled += usize::from(
                serial
                    .summaries
                    .iter()
                    .enumerate()
                    .any(|(p, s)| shard_of(p) > shard_of(first_uses[s.shape as usize])),
            );
        }
    }
    assert!(straddled > 0);
}

/// A pattern-only fold leaves every breakdown zero and changes nothing
/// else.
#[test]
fn a_fold_without_breakdowns_differs_only_in_them() {
    let trace = runner::simulate_session(&apps::crossword_sage(), 0, 11);
    let indexed = IndexedTrace::open(encode(&trace)).unwrap();
    let source = indexed.source();
    let filter = EpisodeFilter::new();
    let full = source.fold(3, &filter, &RollupBuilder::default()).unwrap();
    let mut bare = source
        .fold(3, &filter, &RollupBuilder::default().breakdowns(false))
        .unwrap();
    assert!(bare.rollup.summaries.iter().all(|s| s.breakdown == [0; 7]));
    for (bare, full) in bare.rollup.summaries.iter_mut().zip(&full.rollup.summaries) {
        bare.breakdown = full.breakdown;
    }
    assert_eq!(bare.rollup, full.rollup);
    assert_eq!(bare.rows, full.rows);
}

/// The lag breakdown as the two tree walks defined it: outermost GC time
/// over the whole tree, and per outermost non-root native interval its
/// duration minus the outermost GC time inside it.
fn reference_breakdown(episode: &Episode, symbols: &lagalyzer_model::SymbolTable) -> [u64; 7] {
    let tree = episode.tree();
    let duration = episode.duration();
    let gc = tree.outermost_kind_time(IntervalKind::Gc);
    let (mut io, mut native) = (DurationNs::ZERO, DurationNs::ZERO);
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let interval = tree.interval(id);
        if interval.kind == IntervalKind::Native && id != tree.root() {
            let mut nested_gc = DurationNs::ZERO;
            let mut inner = Vec::from(tree.children(id));
            while let Some(cid) = inner.pop() {
                let child = tree.interval(cid);
                if child.kind == IntervalKind::Gc {
                    nested_gc += child.duration();
                } else {
                    inner.extend_from_slice(tree.children(cid));
                }
            }
            let net = interval.duration().saturating_sub(nested_gc);
            let class = interval.symbol.and_then(|m| symbols.resolve(m.class));
            let is_io = class.is_some_and(|c| {
                ["java.io.", "java.nio.", "java.net.", "sun.nio.", "sun.net."]
                    .iter()
                    .any(|p| c.starts_with(p))
            });
            if is_io {
                io += net;
            } else {
                native += net;
            }
            continue;
        }
        stack.extend_from_slice(tree.children(id));
    }
    let mut counts = [0u64; 3];
    let mut total = 0u64;
    for snap in episode.samples() {
        if let Some(ts) = snap.thread(episode.thread()) {
            total += 1;
            match ts.state {
                ThreadState::Blocked => counts[0] += 1,
                ThreadState::Waiting => counts[1] += 1,
                ThreadState::Sleeping => counts[2] += 1,
                ThreadState::Runnable => {}
            }
        }
    }
    let scale = |count: u64| -> u64 {
        if total == 0 {
            return 0;
        }
        (u128::from(duration.as_nanos()) * u128::from(count) / u128::from(total)) as u64
    };
    let (lock, wait, sleep) = (scale(counts[0]), scale(counts[1]), scale(counts[2]));
    let covered = lock + wait + sleep + gc.as_nanos() + io.as_nanos() + native.as_nanos();
    [
        lock,
        wait,
        sleep,
        gc.as_nanos(),
        io.as_nanos(),
        native.as_nanos(),
        duration.as_nanos().saturating_sub(covered),
    ]
}

#[test]
fn breakdown_scan_matches_the_two_walk_definition() {
    let mut traces: Vec<SessionTrace> = ground_truths().into_iter().map(|g| g.trace).collect();
    traces.push(runner::simulate_session(&apps::jedit(), 0, 3));
    traces.push(runner::simulate_session(&apps::arabeske(), 1, 5));
    let mut natives = 0;
    for trace in &traces {
        for episode in trace.episodes() {
            natives += episode
                .tree()
                .nodes()
                .iter()
                .filter(|n| n.interval.kind == IntervalKind::Native)
                .count();
            assert_eq!(
                LagBreakdown::of_episode(episode, trace.symbols()).to_array(),
                reference_breakdown(episode, trace.symbols()),
                "{} episode {}",
                trace.meta().application,
                episode.id().as_raw()
            );
        }
    }
    assert!(natives > 0, "the suite must exercise native intervals");
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Simulated sessions, clean or salvaged from injected faults, fold
    /// into the rollup their decode builds, under every filter and at
    /// one and three jobs.
    #[test]
    fn folded_rollups_match_built_ones(seed in any::<u64>()) {
        let profiles = [apps::crossword_sage(), apps::arabeske(), apps::jedit()];
        let trace = runner::simulate_session(&profiles[(seed % 3) as usize], 0, seed);
        let clean = encode(&trace);
        let bytes = if seed / 3 % 2 == 0 {
            clean
        } else {
            FaultInjector::new(seed).inject(&clean).0
        };
        let Ok(indexed) = IndexedTrace::open_salvage(bytes) else {
            return Ok(());
        };
        if indexed.source().decode(1).is_err() {
            return Ok(());
        }
        for filter in filters() {
            for jobs in [1, 3] {
                assert_fold_matches(&indexed, &filter, jobs);
            }
        }
        for episode in indexed.par_decode(1).unwrap().episodes() {
            prop_assert_eq!(
                LagBreakdown::of_episode(episode, indexed.symbols()).to_array(),
                reference_breakdown(episode, indexed.symbols())
            );
        }
    }
}
