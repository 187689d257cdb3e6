//! Equivalence gate for the hash-consed mining hot path.
//!
//! [`PatternSet::mine_reference`] preserves the original string-keyed
//! mining implementation (render a `ShapeSignature` per episode, bucket
//! in a `HashMap` keyed by string). These tests prove the interned
//! `ShapeId` pipeline — serial, sharded (`--jobs N`), clean and salvaged
//! — produces *byte-identical* results: every `PatternSet` field, the
//! pattern browser's rendered table, and the cross-session analyses
//! (multi-session grouping, stable problems, session diff) that key on
//! the canonical signature string.

use lagalyzer::core::prelude::*;
use lagalyzer::model::prelude::*;
use lagalyzer::sim::{apps, runner};
use lagalyzer::trace::{binary, read_bytes_salvage, EpisodeFilter, IndexedTrace};

fn assert_sets_identical(a: &PatternSet, b: &PatternSet) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.covered_episodes(), b.covered_episodes());
    assert_eq!(a.structureless_episodes(), b.structureless_episodes());
    assert_eq!(a.salvaged(), b.salvaged());
    for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
        assert_eq!(pa.signature(), pb.signature());
        assert_eq!(pa.episode_indices(), pb.episode_indices());
        assert_eq!(pa.stats(), pb.stats());
        assert_eq!(pa.perceptible_count(), pb.perceptible_count());
        assert_eq!(pa.gc_episode_count(), pb.gc_episode_count());
        assert_eq!(pa.tree_size(), pb.tree_size());
        assert_eq!(pa.tree_depth(), pb.tree_depth());
        assert_eq!(pa.first_is_perceptible(), pb.first_is_perceptible());
    }
}

/// Every Table II application, serial and sharded, against the
/// string-keyed reference. Identical `PatternSet`s mean the per-session
/// aggregates feeding Table III are identical too; the browser rendering
/// is compared byte-for-byte to pin the session-boundary string path.
#[test]
fn interned_mining_matches_reference_on_table2_suite() {
    for (i, profile) in apps::standard_suite().iter().enumerate() {
        let session = AnalysisSession::new(
            runner::simulate_session(profile, 0, 42),
            AnalysisConfig::default(),
        );
        let reference = PatternSet::mine_reference(&session);
        let interned = session.mine_patterns();
        assert_sets_identical(&reference, &interned);
        // Sharded mining: vary jobs a little across apps to keep runtime
        // in check while still covering several shard counts.
        for jobs in [2, 3 + i % 4] {
            assert_sets_identical(&reference, &session.mine_patterns_with_jobs(jobs));
        }
        let ref_table = PatternBrowser::new(&session, &reference).to_table();
        let new_table = PatternBrowser::new(&session, &interned).to_table();
        assert_eq!(
            ref_table, new_table,
            "{}: browser output changed",
            profile.name
        );
    }
}

/// Same gate over a salvaged (truncated) trace: lenient decode, then
/// serial and sharded mining vs the reference.
#[test]
fn interned_mining_matches_reference_on_salvaged_session() {
    let trace = runner::simulate_session(&apps::jmol(), 0, 7);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();
    bytes.truncate(bytes.len() * 3 / 4);

    let salvaged = read_bytes_salvage(&bytes).expect("truncated trace salvages");
    assert!(!salvaged.report.is_clean());
    let session = AnalysisSession::with_provenance(
        salvaged.trace,
        AnalysisConfig::default(),
        Provenance::Salvaged {
            skips: salvaged.report.skips.len() as u64,
            episodes_lost: salvaged.report.episodes_lost,
        },
    );
    let reference = PatternSet::mine_reference(&session);
    assert!(reference.salvaged());
    assert_sets_identical(&reference, &session.mine_patterns());
    for jobs in [2usize, 5] {
        assert_sets_identical(&reference, &session.mine_patterns_with_jobs(jobs));
    }
}

/// Builds a session from `(class, duration ms)` specs; `pad` extra
/// symbols are interned *first* so the same method names land on
/// different raw [`SymbolId`]s across sessions.
fn session_with_offset_symbols(specs: &[(&str, u64)], pad: usize) -> AnalysisSession {
    let meta = SessionMeta {
        application: "X".into(),
        session: SessionId::from_raw(0),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(100),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    for i in 0..pad {
        b.symbols_mut().method(&format!("noise.Pad{i}"), "pad");
    }
    let mut cursor = 0u64;
    for (i, (name, dur)) in specs.iter().enumerate() {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(cursor))
            .unwrap();
        let m = b.symbols_mut().method(name, "run");
        t.enter(
            IntervalKind::Listener,
            Some(m),
            TimeNs::from_millis(cursor + 1),
        )
        .unwrap();
        t.exit(TimeNs::from_millis(cursor + dur - 1)).unwrap();
        t.exit(TimeNs::from_millis(cursor + dur)).unwrap();
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        cursor += dur + 10;
    }
    AnalysisSession::new(b.finish(), AnalysisConfig::default())
}

/// Token streams are per-session (raw symbol ids), so two sessions that
/// assign different ids to the same methods must still agree at the
/// session boundary: canonical signatures, multi-session grouping,
/// stable-problem detection, and diffs all key on the rendered string.
#[test]
fn cross_session_analyses_agree_despite_disjoint_symbol_ids() {
    let specs: &[(&str, u64)] = &[
        ("app.Editor", 120),
        ("app.Editor", 30),
        ("app.Renderer", 250),
        ("app.Loader", 40),
    ];
    let plain = session_with_offset_symbols(specs, 0);
    let offset = session_with_offset_symbols(specs, 17);

    // Sanity: the id assignments really are different...
    let class_id = |s: &AnalysisSession| s.trace().symbols().lookup("app.Editor");
    assert_ne!(
        class_id(&plain),
        class_id(&offset),
        "pad symbols must shift raw ids"
    );

    // ...yet the canonical signatures render identically.
    let set_a = plain.mine_patterns();
    let set_b = offset.mine_patterns();
    assert_sets_identical(&set_a, &set_b);

    // Multi-session grouping pairs every pattern across both sessions.
    let multi = MultiPatternSet::merge(&[set_a.clone(), set_b.clone()]);
    assert_eq!(multi.len(), set_a.len());
    for mp in multi.patterns() {
        assert_eq!(
            mp.session_coverage(),
            2,
            "{:?} failed to pair",
            mp.signature()
        );
    }

    // Diff sees the same pattern library on both sides.
    let diff = SessionDiff::from_patterns(&set_a, &set_b);
    assert!(diff.appeared.is_empty());
    assert!(diff.disappeared.is_empty());
    assert_eq!(diff.common.len(), set_a.len());
}

/// Warm mining over a filtered session: `--perceptible` admits only the
/// perceptible episodes, so some persisted rollup shapes keep no admitted
/// member and must not surface as patterns. Mining the rollup's summaries
/// must equal the reference miner over the equally filtered decode.
#[test]
fn warm_mining_matches_reference_when_filter_empties_shapes() {
    let trace = runner::simulate_session(&apps::jedit(), 0, 42);
    let mut bytes = Vec::new();
    let rollup = lagalyzer::core::rollup::build(&trace);
    binary::write_with_rollup(&trace, &mut bytes, rollup).unwrap();
    let indexed = IndexedTrace::open(bytes).unwrap();
    let filter = EpisodeFilter::new().min_duration(DurationNs::PERCEPTIBLE_DEFAULT);
    let warm = WarmSession::of_indexed(&indexed, AnalysisConfig::default(), &filter)
        .expect("the trace carries a valid rollup");

    let admitted: std::collections::HashSet<u32> = warm
        .summaries()
        .episodes()
        .iter()
        .map(|s| s.shape)
        .collect();
    assert!(
        admitted.len() < warm.rollup().shapes.len(),
        "the filter must leave some persisted shapes without an admitted member"
    );

    let session = AnalysisSession::with_exclusions(
        indexed.par_decode_filtered(1, &filter).unwrap(),
        AnalysisConfig::default(),
        Provenance::Clean,
        warm.excluded(),
    );
    let reference = PatternSet::mine_reference(&session);
    assert!(!reference.is_empty());
    for jobs in [1usize, 2, 5] {
        assert_sets_identical(&reference, &warm.mine_patterns_with_jobs(jobs));
    }
}
