//! The version-selected checksums on whole traces: every checksum of a v3
//! trace is the four-lane hash and every checksum of its v2 twin FNV-1a,
//! a change confined to one aligned 8-byte word of a v3 trace's
//! checksummed region never opens clean, a rollup whose episodes were
//! rewritten under a recomputed trailer is stale, and the v2 and v3
//! encodings of one session open, decode, salvage and check identically.

use lagalyzer_model::prelude::*;
use lagalyzer_trace::checksum::Algorithm;
use lagalyzer_trace::faults;
use lagalyzer_trace::rollup::EpisodeSummary;
use lagalyzer_trace::{
    binary, decode_bytes_salvage, index, probe_rollup, IndexHealth, IndexedTrace, Rollup,
    RollupHealth, TraceError,
};
use proptest::prelude::*;

#[path = "support/cases.rs"]
mod cases;

/// A session of one episode per duration (in ms): a dispatch with one
/// listener child and one stack sample.
fn session(durations: &[u64]) -> SessionTrace {
    let meta = SessionMeta {
        application: "ChecksumApp".into(),
        session: SessionId::from_raw(1),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(600),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let handle = b.symbols_mut().method("org.app.Main", "handle");
    let mut cursor = 0;
    for (i, &dur) in durations.iter().enumerate() {
        let at = |ms: u64| TimeNs::from_millis(cursor + ms);
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, at(0)).unwrap();
        t.leaf(IntervalKind::Listener, Some(handle), at(1), at(dur - 1))
            .unwrap();
        t.exit(at(dur)).unwrap();
        let sample = SampleSnapshot::new(
            at(dur / 2),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![StackFrame::java(handle)],
            )],
        );
        let episode = EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .sample(sample)
            .build()
            .unwrap();
        b.push_episode(episode).unwrap();
        cursor += dur + 7;
    }
    b.add_short_episodes(5, DurationNs::from_millis(4));
    b.finish()
}

/// A rollup the reader trusts for `episodes` extents (its summaries are
/// placeholders: only the framing and the content checksum matter here).
fn rollup(episodes: usize) -> Rollup {
    let summary = EpisodeSummary {
        structureless: false,
        has_gc: false,
        shape: 0,
        tree_size: 1,
        tree_depth: 1,
        breakdown: [0, 0, 0, 0, 0, 0, 1],
    };
    Rollup {
        content_checksum: 0,
        shapes: vec![b"D[L]".to_vec()],
        summaries: vec![summary; episodes],
        grids: Vec::new(),
        shape_histograms: vec![[1; lagalyzer_trace::rollup::SHAPE_HIST_BUCKETS]],
    }
}

/// The v3 encoding of `trace`, with or without a rollup section.
fn encode(trace: &SessionTrace, with_rollup: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    if with_rollup {
        binary::write_with_rollup(trace, &mut bytes, rollup(trace.episodes().len())).unwrap();
    } else {
        binary::write(trace, &mut bytes).unwrap();
    }
    bytes
}

/// The start of the end-framed section whose trailing magic ends at `end`.
fn section_start(bytes: &[u8], end: usize) -> usize {
    end - u64::from_le_bytes(bytes[end - 16..end - 8].try_into().unwrap()) as usize
}

fn stored(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn every_checksum_uses_the_hash_the_version_selects() {
    let trace = session(&[20, 150, 40, 1200]);
    let v3 = encode(&trace, true);
    for (version, algorithm) in [(2, Algorithm::Fnv1a), (3, Algorithm::Lane4)] {
        let bytes = faults::with_version(&v3, version);
        assert_eq!(bytes[7], version);
        assert_eq!(bytes.len(), v3.len(), "v2 and v3 share one layout");
        let n = bytes.len();
        assert_eq!(stored(&bytes, n - 8), algorithm.hash(&bytes[8..n - 8]));
        let rollup_start = section_start(&bytes, n - 8);
        assert_eq!(&bytes[rollup_start..rollup_start + 8], b"LGLZRUP\x01");
        let footer_start = section_start(&bytes, rollup_start);
        assert_eq!(&bytes[footer_start..footer_start + 8], b"LGLZIDX\x01");
        for (start, end) in [(footer_start, rollup_start), (rollup_start, n - 8)] {
            let sum = algorithm.hash(&bytes[start..end - 24]);
            assert_eq!(
                stored(&bytes, end - 24),
                sum,
                "v{version} section at {start}"
            );
        }
        // The rollup payload opens with the content checksum, after the
        // magic and a one-byte payload length.
        let content = stored(&bytes, rollup_start + 9);
        assert_eq!(content, algorithm.hash(&bytes[8..rollup_start]));
        let opened = IndexedTrace::open(bytes.clone()).unwrap();
        assert_eq!(opened.health(), &IndexHealth::FooterValid);
        assert_eq!(opened.rollup().map(|r| r.content_checksum), Some(content));
    }
    assert_eq!(faults::with_version(&faults::with_version(&v3, 2), 3), v3);
}

#[test]
fn v2_and_v3_encodings_read_identically() {
    let trace = session(&[20, 150, 40, 1200, 9]);
    for with_rollup in [false, true] {
        let v3 = encode(&trace, with_rollup);
        let v2 = faults::with_version(&v3, 2);
        let (a, b) = (
            IndexedTrace::open(v2.clone()).unwrap(),
            IndexedTrace::open(v3.clone()).unwrap(),
        );
        assert_eq!(a.extents(), b.extents());
        assert_eq!(a.health(), b.health());
        assert_eq!(a.rollup().is_some(), with_rollup);
        // Only the content checksums differ: each is its file's hash.
        assert_eq!(
            a.rollup().map(|r| (&r.shapes, &r.summaries)),
            b.rollup().map(|r| (&r.shapes, &r.summaries))
        );
        assert_eq!(a.par_decode(2).unwrap().episodes(), trace.episodes());
        assert_eq!(b.par_decode(2).unwrap().episodes(), trace.episodes());
        assert_eq!(
            binary::read(v2.as_slice()).unwrap().episodes(),
            trace.episodes()
        );
        assert_eq!(
            decode_bytes_salvage(v2.to_vec(), 1).unwrap().0.report,
            decode_bytes_salvage(v3.to_vec(), 1).unwrap().0.report
        );
        assert_eq!(index::probe_health(&v2), index::probe_health(&v3));
        assert_eq!(probe_rollup(&v2), probe_rollup(&v3));
        let check = |bytes: &[u8]| {
            lagalyzer_check::check_bytes(bytes.to_vec(), &mut lagalyzer_check::RuleSet::standard())
                .unwrap()
                .render_json("trace")
        };
        assert_eq!(check(&v2), check(&v3));
    }
}

/// Rewriting an episode's bytes and resealing the trailer (and even the
/// rollup section's own checksum) leaves the rollup's content checksum
/// behind: the strict open accepts the trace, and the rollup is stale.
#[test]
fn rollup_over_rewritten_episodes_stays_stale_under_a_resealed_trailer() {
    let trace = session(&[20, 150, 40]);
    let v3 = encode(&trace, true);
    for version in [2, 3] {
        let mut bytes = faults::with_version(&v3, version);
        let extent = IndexedTrace::open(bytes.clone()).unwrap().extents()[1];
        // The last byte of the episode's span before its end tag: the
        // exit timestamp's final varint byte.
        let at = (extent.offset + extent.len) as usize - 2;
        bytes[at] ^= 0x01;
        faults::reseal(&mut bytes, None);
        let rollup_end = bytes.len() - 8;
        for reseal_section in [false, true] {
            if reseal_section {
                faults::reseal(&mut bytes, Some(rollup_end));
            }
            let opened = IndexedTrace::open(bytes.clone()).unwrap();
            assert_eq!(opened.health(), &IndexHealth::FooterValid, "v{version}");
            assert!(
                opened.rollup().is_none(),
                "v{version}: stale rollup trusted"
            );
            assert!(
                matches!(
                    probe_rollup(&bytes),
                    Some(RollupHealth::Stale { ref reason, .. }) if reason == "content checksum mismatch"
                ),
                "v{version}: {:?}",
                probe_rollup(&bytes)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases::or_env(64)))]

    /// Flipping any bits inside one aligned 8-byte word of a v3 trace's
    /// checksummed region (everything between the magic and the trailer)
    /// never opens clean: the strict readers reject it, and the salvage
    /// decode reports damage.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn one_word_of_damage_never_opens_clean(
        durations in proptest::collection::vec(4u64..3000, 0..12),
        with_rollup in any::<bool>(),
        word in any::<usize>(),
        mask in any::<u64>(),
    ) {
        let bytes = encode(&session(&durations), with_rollup);
        let region = 8..bytes.len() - 8;
        let words = (region.end - region.start).div_ceil(8);
        let start = region.start + word % words * 8;
        let end = (start + 8).min(region.end);
        let mut damaged = bytes.clone();
        for (i, b) in damaged[start..end].iter_mut().enumerate() {
            *b ^= (mask >> (8 * i)) as u8;
        }
        prop_assume!(damaged != bytes);
        prop_assert!(
            matches!(
                IndexedTrace::open(damaged.clone()),
                Err(TraceError::ChecksumMismatch { .. })
            ),
            "bytes {start}..{end} changed and the trace still opened"
        );
        prop_assert!(binary::read(damaged.as_slice()).is_err());
        if let Ok((salvaged, _)) = decode_bytes_salvage(damaged.to_vec(), 1) {
            prop_assert!(!salvaged.report.is_clean(), "bytes {start}..{end}");
        }
    }

    /// The rollup health an open keeps is what `probe_rollup` judges from
    /// the bytes, for injected faults with or without a resealed trailer,
    /// through both salvage paths that open a trace (the open, and the
    /// decode `check` runs, which may reopen through the salvage scan).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn opened_rollup_health_matches_the_probe(
        durations in proptest::collection::vec(4u64..3000, 1..12),
        version in 2u8..=3,
        seed in any::<u64>(),
        reseal in any::<bool>(),
    ) {
        let clean = faults::with_version(&encode(&session(&durations), true), version);
        let (mut damaged, fault) = faults::FaultInjector::new(seed).inject(&clean);
        if reseal {
            faults::reseal(&mut damaged, None);
        }
        let probed = probe_rollup(&damaged);
        if let Ok(opened) = IndexedTrace::open_salvage(damaged.clone()) {
            prop_assert!(opened.rollup_health() == probed.as_ref(), "{:?}", fault);
        }
        if let Ok((_, Some(decoded))) = decode_bytes_salvage(damaged.clone(), 1) {
            prop_assert!(decoded.rollup_health() == probed.as_ref(), "{:?}", fault);
        }
    }
}
