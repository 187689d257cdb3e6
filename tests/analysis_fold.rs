//! Every built-in [`Analysis`] through both fold drivers, against its
//! materialized reference on the decoded, equally filtered episodes:
//!
//! * `RollupBuilder` against `rollup::build`, and its rows against the
//!   decoded episodes;
//! * `Characterize` against the Figs 5–8 analyses (`TriggerBreakdown`,
//!   `LocationStats`, `CauseStats`, `concurrency_stats`) over the decoded
//!   session;
//! * `LockGraphs` against `LockGraph::build`;
//! * `TimelineRows` against `TimelineRow::of_episode`.
//!
//! Each runs through `SessionSource::fold` at `--jobs` 1–4 under every
//! ingest filter, on strict and salvage opens (and the salvage scan's
//! reopen, when the verified fold makes one); through `fold_episodes` at
//! 1–4 jobs; and over the shard layouts `stream_fold.rs` also cuts by
//! hand (`crates/core/tests/support/layouts.rs`), whatever the machine's
//! parallelism. Where the decode fails, the fold
//! must fail too. Inputs: the outlier and hazard scenarios, an empty
//! session, and simulated sessions clean, fault-injected and resealed,
//! their count from `PROPTEST_CASES`.
//!
//! Each also runs through `CorpusReader::fold` over raw and LZ corpora
//! of such sessions, against each member's own `SessionSource::fold`.

use std::fmt::Debug;

use lagalyzer::core::analysis::{fold_episodes, Analysis, Scope};
use lagalyzer::core::concurrency::{concurrency_stats, ConcurrencyStats};
use lagalyzer::core::prelude::*;
use lagalyzer::core::rollup::{self, Folded, RollupBuilder};
use lagalyzer::core::trigger::TriggerBreakdown;
use lagalyzer::model::prelude::*;
use lagalyzer::model::LockGraphs;
use lagalyzer::sim::{apps, runner, scenarios};
use lagalyzer::trace::corpus::{self, PackOptions};
use lagalyzer::trace::faults::{self, FaultInjector};
use lagalyzer::trace::{
    binary, CorpusReader, EpisodeFilter, IndexedTrace, Rollup, SessionSource, SessionView,
    TraceError,
};
use lagalyzer::viz::timeline::{TimelineRow, TimelineRows};
use proptest::prelude::*;

#[path = "../crates/core/tests/support/layouts.rs"]
mod layouts;
use layouts::layouts;

/// The ingest filters the CLI can build.
fn filters() -> Vec<EpisodeFilter> {
    vec![
        EpisodeFilter::new(),
        EpisodeFilter::new().min_duration(DurationNs::from_millis(50)),
        EpisodeFilter::new().min_duration(DurationNs::PERCEPTIBLE_DEFAULT),
        EpisodeFilter::new().window(TimeNs::from_millis(20_000), TimeNs::from_millis(200_000)),
    ]
}

/// One filtered fold of one opened source, and its decode.
struct Case<'a> {
    source: SessionSource<'a>,
    filter: &'a EpisodeFilter,
    decoded: &'a Result<SessionTrace, TraceError>,
    /// The first use of each shape among the decoded episodes.
    first_uses: &'a [usize],
    context: &'a str,
}

/// Holds `analysis` to `reference` of the decoded episodes through both
/// drivers and the hand-cut layouts; `view` is what of the output the
/// reference gives. Returns the reference, or `None` when the decode
/// (and so the fold) fails.
fn check<A: Analysis, R: PartialEq + Debug>(
    case: &Case<'_>,
    analysis: &A,
    view: impl Fn(A::Output) -> R,
    reference: impl Fn(&SessionTrace) -> R,
) -> Option<R> {
    let Case {
        source,
        filter,
        context,
        ..
    } = case;
    let Ok(decoded) = case.decoded else {
        for jobs in 1..=4 {
            let folded = source.fold(jobs, filter, analysis);
            assert!(folded.is_err(), "{context}: fold at jobs {jobs}");
        }
        return None;
    };
    let want = reference(decoded);
    let (scope, episodes) = (Scope::of_trace(decoded), decoded.episodes());
    for jobs in 1..=4 {
        let folded = source.fold(jobs, filter, analysis).unwrap();
        assert_eq!(view(folded), want, "{context}: fold at jobs {jobs}");
        let folded = fold_episodes(analysis, scope, episodes, jobs);
        assert_eq!(view(folded), want, "{context}: in memory at jobs {jobs}");
    }
    for cuts in layouts(episodes.len(), case.first_uses) {
        let mut shards: Vec<A::Shard> = (0..=cuts.len()).map(|_| analysis.shard(scope)).collect();
        for (position, episode) in episodes.iter().enumerate() {
            let shard = cuts.partition_point(|&c| c <= position);
            analysis.push(scope, &mut shards[shard], position, episode);
        }
        let folded = analysis.finish(scope, shards);
        assert_eq!(view(folded), want, "{context}: cut at {cuts:?}");
    }
    Some(want)
}

/// The Figs 5–8 results a characterization table finalizes to, and its
/// counts and salvage flag.
type Figures = (
    [TriggerBreakdown; 2],
    [LocationStats; 2],
    [CauseStats; 2],
    ConcurrencyStats,
    [u64; 2],
    bool,
);

/// What of a characterization table the references give.
fn figures(table: CharacterizationTable) -> Figures {
    (
        [table.trigger_all(), table.trigger_perceptible()],
        [table.location_all(), table.location_perceptible()],
        [table.causes_all(), table.causes_perceptible()],
        table.concurrency(),
        [table.episode_count(), table.perceptible_count()],
        table.salvaged(),
    )
}

/// What of a folded rollup the references give: the rollup, and each
/// row's episode id and duration.
fn rollup_rows(folded: Folded) -> (Rollup, Vec<(EpisodeId, DurationNs)>) {
    let rows = folded.rows.iter().map(|r| (r.id, r.duration));
    (folded.rollup, rows.collect())
}

/// What the folds of `indexed` came to, over every filter: episodes
/// folded and lock-graph waits.
#[derive(Default)]
struct Seen {
    episodes: usize,
    waits: usize,
}

/// Holds every built-in analysis to its reference on `indexed`, and on
/// the salvage scan's reopen when its verified fold makes one.
fn check_opened(indexed: &IndexedTrace, label: &str, seen: &mut Seen) {
    let all = EpisodeFilter::default();
    if let Ok((_, Some(scanned))) = indexed.fold_verified(|_, source| source.fold(1, &all, &())) {
        check_opened(&scanned, &format!("{label} rescanned"), seen);
    }
    let source = indexed.source();
    let classifier = OriginClassifier::java_default();
    let characterize = Characterize {
        classifier: &classifier,
        threshold: DurationNs::PERCEPTIBLE_DEFAULT,
        salvaged: source.is_lenient(),
    };
    for (i, filter) in filters().iter().enumerate() {
        let decoded = source.decode_filtered(1, filter);
        let first_uses: Vec<usize> = decoded.as_ref().map_or(Vec::new(), |trace| {
            let built = rollup::build(trace);
            let mut first_uses = Vec::new();
            for (position, summary) in built.summaries.iter().enumerate() {
                if summary.shape as usize == first_uses.len() {
                    first_uses.push(position);
                }
            }
            first_uses
        });
        let context = format!("{label} filter {i}");
        let case = Case {
            source,
            filter,
            decoded: &decoded,
            first_uses: &first_uses,
            context: &context,
        };
        check(&case, &RollupBuilder::default(), rollup_rows, |trace| {
            let rows = trace.episodes().iter().map(|e| (e.id(), e.duration()));
            (rollup::build(trace), rows.collect())
        });
        check(&case, &characterize, figures, |trace| {
            let session = AnalysisSession::new(trace.clone(), AnalysisConfig::default());
            (
                [
                    TriggerBreakdown::of_all(&session),
                    TriggerBreakdown::of_perceptible(&session),
                ],
                [
                    LocationStats::of_all(&session, &classifier),
                    LocationStats::of_perceptible(&session, &classifier),
                ],
                [
                    CauseStats::of_all(&session),
                    CauseStats::of_perceptible(&session),
                ],
                concurrency_stats(&session),
                [
                    session.episodes().len() as u64,
                    session.perceptible_episodes().count() as u64,
                ],
                source.is_lenient(),
            )
        });
        let graph = check(
            &case,
            &LockGraphs,
            |folded| folded,
            |trace| (LockGraph::build(trace.episodes()), trace.episodes().len()),
        );
        check(
            &case,
            &TimelineRows,
            |rows| rows,
            |trace| {
                trace
                    .episodes()
                    .iter()
                    .map(TimelineRow::of_episode)
                    .collect()
            },
        );
        if let Some((graph, episodes)) = graph {
            seen.episodes += episodes;
            seen.waits += graph.waits().len();
        }
    }
}

fn encode(trace: &SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write(trace, &mut bytes).unwrap();
    bytes
}

/// Checks `bytes` opened strictly, when that opens, and for salvage.
fn check_bytes(bytes: &[u8], label: &str, seen: &mut Seen) {
    if let Ok(strict) = IndexedTrace::open(bytes.to_vec()) {
        check_opened(&strict, &format!("{label} strict"), seen);
    }
    if let Ok(salvaged) = IndexedTrace::open_salvage(bytes.to_vec()) {
        check_opened(&salvaged, &format!("{label} salvage"), seen);
    }
}

/// The outlier and hazard scenarios fold like their references, and the
/// lock graphs they fold have waits.
#[test]
fn scenarios_fold_like_their_references() {
    let mut seen = Seen::default();
    let outliers = scenarios::ground_truths().into_iter().map(|gt| gt.trace);
    let hazards = scenarios::hazard_truths().into_iter().map(|ht| ht.trace);
    for trace in outliers.chain(hazards) {
        check_bytes(&encode(&trace), &trace.meta().application, &mut seen);
    }
    assert!(seen.episodes > 0 && seen.waits > 0);
}

/// A session without episodes.
fn empty() -> SessionTrace {
    let meta = SessionMeta {
        application: "Empty".into(),
        session: SessionId::from_raw(0),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(60),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    SessionTraceBuilder::new(meta, SymbolTable::new()).finish()
}

/// A session without episodes folds to each reference's empty answer.
#[test]
fn an_empty_session_folds_like_its_references() {
    let mut seen = Seen::default();
    check_bytes(&encode(&empty()), "empty", &mut seen);
    assert_eq!(seen.episodes, 0);
}

/// A simulated CrosswordSage, Arabeske or jEdit session (by `seed`) cut
/// down to `traced` traced episodes.
fn simulated(seed: u64, traced: u64) -> SessionTrace {
    let mut profile =
        [apps::crossword_sage(), apps::arabeske(), apps::jedit()][(seed % 3) as usize].clone();
    let scale = &mut profile.scale;
    scale.traced_episodes = traced;
    scale.structured_episodes = scale.traced_episodes * 9 / 10;
    scale.perceptible_episodes = scale.perceptible_episodes.min(20);
    scale.distinct_patterns = scale.distinct_patterns.min(40);
    runner::simulate_session(&profile, 0, seed)
}

/// Holds `CorpusReader::fold` of `analysis` to each member's own
/// `SessionSource::fold` at `--jobs` 1–4: an output per member equal to
/// the member's, or the error of the first member that fails, with its
/// text. `view` is what of an output is compared.
fn check_corpus<A: Analysis, R: PartialEq + Debug>(
    reader: &CorpusReader,
    filter: &EpisodeFilter,
    analysis: &A,
    view: impl Fn(A::Output) -> R,
    context: &str,
) {
    let members: Result<Vec<R>, String> = reader
        .sessions()
        .map(|member| {
            let folded = member.source().fold(1, filter, analysis);
            folded.map(&view).map_err(|e| e.to_string())
        })
        .collect();
    for jobs in 1..=4 {
        let folded = reader.fold(jobs, filter, analysis);
        let folded = folded
            .map(|outputs| outputs.into_iter().map(&view).collect())
            .map_err(|e| e.to_string());
        assert_eq!(folded, members, "{context}: jobs {jobs}");
    }
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A simulated session, cut down to a few hundred episodes, folds like
    /// its references clean, with an injected fault, and with that fault
    /// resealed under a valid trailer checksum.
    #[test]
    fn simulated_sessions_fold_like_their_references(seed in any::<u64>()) {
        let trace = simulated(seed, 150 + seed % 150);
        let clean = encode(&trace);
        let (damaged, fault) = FaultInjector::new(seed).inject(&clean);
        let mut resealed = damaged.clone();
        faults::reseal(&mut resealed, None);
        let mut seen = Seen::default();
        check_bytes(&clean, "clean", &mut seen);
        check_bytes(&damaged, &format!("{fault:?}"), &mut seen);
        check_bytes(&resealed, &format!("{fault:?} resealed"), &mut seen);
        prop_assert!(seen.episodes > 0);
    }

    /// A corpus folds, through `CorpusReader::fold` at `--jobs` 1–4, to
    /// what each member's own `SessionSource::fold` gives, for every
    /// built-in analysis under every ingest filter and one that admits
    /// nothing. The corpora are raw and LZ packs of two strict simulated
    /// members, an empty one and a fault-injected one opened for salvage,
    /// and the LZ pack with one member's section broken so that it does
    /// not decompress, which fails the corpus fold with that member's
    /// error.
    #[test]
    fn corpora_fold_like_their_members(seed in any::<u64>()) {
        let traced = |salt: u64| 40 + (seed ^ salt) % 80;
        let mut members = vec![
            IndexedTrace::open(encode(&simulated(seed, traced(1)))).unwrap(),
            IndexedTrace::open(encode(&empty())).unwrap(),
        ];
        // The first fault from `seed` on that the salvage scan opens.
        let damaged = encode(&simulated(seed.rotate_left(21), traced(2)));
        let (salvaged, fault) = (0..)
            .find_map(|i| {
                let (bytes, fault) = FaultInjector::new(seed.wrapping_add(i)).inject(&damaged);
                Some((IndexedTrace::open_salvage(bytes).ok()?, fault))
            })
            .expect("a fault the salvage scan opens");
        members.push(salvaged);
        let last = simulated(seed.rotate_left(42), traced(3));
        members.push(IndexedTrace::open(encode(&last)).unwrap());
        let raw = corpus::pack(&members, PackOptions::default()).unwrap();
        let lz = corpus::pack(&members, PackOptions { compress: true }).unwrap();
        let n = members.len();
        let (broken, k) = (0..n)
            .map(|i| (seed as usize + i) % n)
            .find_map(|k| Some((faults::break_lz_payload(&lz, k)?, k)))
            .expect("a member stored LZ");
        let nothing = EpisodeFilter::new().min_duration(DurationNs::from_secs(3600));
        let mut filters = filters();
        filters.push(nothing);
        let classifier = OriginClassifier::java_default();
        let characterize = Characterize {
            classifier: &classifier,
            threshold: DurationNs::PERCEPTIBLE_DEFAULT,
            salvaged: false,
        };
        for (name, bytes) in [("raw", raw), ("lz", lz), ("lz broken", broken)] {
            let reader = CorpusReader::open(bytes).unwrap();
            for (i, filter) in filters.iter().enumerate() {
                let context = format!("{name} corpus ({fault:?}, member {k} broken) filter {i}");
                check_corpus(&reader, filter, &RollupBuilder::default(), rollup_rows, &context);
                check_corpus(&reader, filter, &characterize, figures, &context);
                check_corpus(&reader, filter, &LockGraphs, |graph| graph, &context);
                check_corpus(&reader, filter, &TimelineRows, |rows| rows, &context);
            }
            let fails = reader.fold(1, &EpisodeFilter::default(), &()).is_err();
            prop_assert_eq!(fails, name == "lz broken");
            let admits_nothing = |member: SessionView<'_>| {
                let source = member.source();
                source.excluded_by(&nothing) == source.len()
            };
            prop_assert!(reader.sessions().all(admits_nothing));
            prop_assert!(reader.sessions().any(|member| member.source().is_lenient()));
        }
    }
}
