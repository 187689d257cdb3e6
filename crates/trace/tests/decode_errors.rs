//! Error-path coverage for the binary decoders: how the strict decoders
//! ([`binary::read`], the serial reference, and [`IndexedTrace::open`])
//! fail on damage, and how the salvage decoders ([`binary::read_salvage`],
//! the salvage reference, and [`IndexedTrace::open_salvage`]) recover from
//! the same damage — identically, since both run the one salvage scan.

use lagalyzer_model::prelude::*;
use lagalyzer_trace::faults::Fault;
use lagalyzer_trace::salvage::Salvaged;
use lagalyzer_trace::{binary, IndexHealth, IndexedTrace, TraceError};

#[path = "support/inflate_footer.rs"]
mod inflate_footer;
use inflate_footer::inflate_footer_counts;

fn ms(v: u64) -> TimeNs {
    TimeNs::from_millis(v)
}

/// A trace with `episodes` episodes, one interned method, one sample per
/// episode.
fn sample_trace(episodes: usize) -> SessionTrace {
    let meta = SessionMeta {
        application: "DecodeErr".into(),
        session: SessionId::from_raw(1),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(60),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let m = b.symbols_mut().method("app.Main", "handle");
    let mut cursor = 0u64;
    for i in 0..episodes {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(cursor)).unwrap();
        t.leaf(
            IntervalKind::Listener,
            Some(m),
            ms(cursor + 1),
            ms(cursor + 40),
        )
        .unwrap();
        t.exit(ms(cursor + 50)).unwrap();
        let snap = SampleSnapshot::new(
            ms(cursor + 20),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![StackFrame::java(m)],
            )],
        );
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .sample(snap)
                .build()
                .unwrap(),
        )
        .unwrap();
        cursor += 100;
    }
    b.finish()
}

fn encode(trace: &SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write(trace, &mut bytes).unwrap();
    bytes
}

/// Byte length of the encoding prefix that covers episodes `0..n` (found
/// by encoding a trace with only those episodes and discounting the
/// trailer), so tests can cut precisely mid-episode.
fn cut_inside_episode(trace: &SessionTrace, full: &[u8], episode: usize) -> usize {
    let mut b = SessionTraceBuilder::new(trace.meta().clone(), trace.symbols().clone());
    for e in &trace.episodes()[..episode] {
        b.push_episode(e.clone()).unwrap();
    }
    // A legacy (footerless) encoding is header + records + trailer, and its
    // header/records bytes are identical to the v2 prefix, so its length
    // minus the trailer is the offset where the next episode begins.
    let mut prefix = Vec::new();
    binary::write_legacy(&b.finish(), &mut prefix).unwrap();
    // Step into the next episode far enough that the salvager's 8-byte
    // trailer heuristic (the last 8 bytes of a truncated file are presumed
    // to be the trailer) stays inside the episode being cut.
    (prefix.len() - 8 + 12).min(full.len() - 1)
}

/// Both salvage decoders on the same bytes: the reference's result, after
/// checking that the indexed open rebuilt the same report and decodes to
/// the same session.
fn salvage_both(bytes: &[u8]) -> Salvaged {
    let reference = binary::read_salvage(bytes).unwrap();
    let indexed = IndexedTrace::open_salvage(bytes.to_vec()).unwrap();
    assert_eq!(indexed.salvage_report(), Some(&reference.report));
    let decoded = indexed.par_decode(2).unwrap();
    assert_eq!(decoded.episodes(), reference.trace.episodes());
    let names = |t: &SessionTrace| -> Vec<String> {
        t.symbols()
            .iter()
            .map(|(_, name)| name.to_owned())
            .collect()
    };
    assert_eq!(names(&decoded), names(&reference.trace));
    reference
}

/// Extent counts are checked by the `LA009` rule, never trusted for
/// allocation: a resealed footer claiming 2^20 intervals and samples per
/// extent opens strictly and decodes to exactly the honest trace.
#[test]
fn inflated_footer_counts_decode_to_the_honest_trace() {
    let trace = sample_trace(40);
    let honest = encode(&trace);
    for version in [2, 3] {
        let lying = inflate_footer_counts(
            &lagalyzer_trace::faults::with_version(&honest, version),
            1 << 20,
        );
        assert_eq!(lying[7], version);
        let opened = IndexedTrace::open(lying).unwrap();
        assert_eq!(opened.health(), &IndexHealth::FooterValid, "v{version}");
        assert!(opened
            .extents()
            .iter()
            .all(|e| e.intervals == 1 << 20 && e.samples == 1 << 20));
        for jobs in [1, 3] {
            let decoded = opened.par_decode(jobs).unwrap();
            assert_eq!(decoded.episodes(), trace.episodes());
            assert_eq!(encode(&decoded), honest);
        }
    }
}

#[test]
fn strict_decoders_error_on_mid_episode_truncation() {
    let trace = sample_trace(3);
    let bytes = encode(&trace);
    let cut = cut_inside_episode(&trace, &bytes, 2);
    let err = binary::read(&bytes[..cut]).unwrap_err();
    assert!(
        matches!(err, TraceError::Io(_) | TraceError::Corrupt { .. }),
        "unexpected error: {err:?}"
    );
    assert!(IndexedTrace::open(bytes[..cut].to_vec()).is_err());
}

#[test]
fn salvage_recovers_prefix_on_mid_episode_truncation() {
    let trace = sample_trace(3);
    let bytes = encode(&trace);
    let cut = cut_inside_episode(&trace, &bytes, 2);
    let salvaged = salvage_both(&bytes[..cut]);
    // Exactly the episodes fully before the cut, byte-identical.
    assert_eq!(salvaged.trace.episodes(), &trace.episodes()[..2]);
    let report = salvaged.report;
    assert!(!report.is_clean());
    assert_eq!(report.episodes_recovered, 2);
    assert!(report.episodes_lost >= 1, "the cut episode must be counted");
    // The cut file still ends with 8 bytes the cursor must presume to be
    // the trailer; they are record bytes, so the checksum cannot match.
    assert_eq!(report.checksum_ok, Some(false));
}

#[test]
fn strict_decoders_error_on_corrupt_symbol_table() {
    let trace = sample_trace(2);
    let bytes = encode(&trace);
    // Record 0 is a symbol record; inflating its length prefix corrupts
    // the symbol table before any episode is reachable.
    let damaged = Fault::InflateLength { index: 0 }.apply(&bytes);
    assert_ne!(damaged, bytes);
    assert!(binary::read(damaged.as_slice()).is_err());
    assert!(IndexedTrace::open(damaged).is_err());
}

#[test]
fn salvage_survives_corrupt_symbol_table() {
    let trace = sample_trace(2);
    let bytes = encode(&trace);
    let damaged = Fault::InflateLength { index: 0 }.apply(&bytes);
    let salvaged = salvage_both(&damaged);
    // Episode structure survives (symbol ids are raw in the episodes);
    // the lost names become placeholders.
    assert_eq!(salvaged.trace.episodes(), trace.episodes());
    let symbols = salvaged.trace.symbols();
    assert_eq!(symbols.len(), trace.symbols().len());
    assert!(
        symbols
            .iter()
            .any(|(_, name)| name.contains("<lost-symbol-")),
        "lost definitions must appear as placeholders"
    );
    assert!(!salvaged.report.is_clean());
    assert!(salvaged.report.bytes_skipped > 0);
}

#[test]
fn trailer_corruption_fails_strict_decoders_and_salvages_every_episode() {
    let trace = sample_trace(2);
    let mut bytes = encode(&trace);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    for err in [
        binary::read(bytes.as_slice()).unwrap_err(),
        IndexedTrace::open(bytes.clone()).err().unwrap(),
    ] {
        assert!(
            matches!(err, TraceError::ChecksumMismatch { .. }),
            "expected checksum error, got {err:?}"
        );
    }
    let salvaged = salvage_both(&bytes);
    assert_eq!(salvaged.trace.episodes(), trace.episodes());
    assert_eq!(salvaged.report.checksum_ok, Some(false));
}

/// Two short-episode records whose counts overflow `u64` when added: the
/// strict decoders and both salvage decoders agree on the saturated
/// totals.
#[test]
fn decoders_agree_on_overflowing_short_counters() {
    let meta = sample_trace(0).meta().clone();
    let encode_legacy = |short: u64| {
        let mut b = SessionTraceBuilder::new(meta.clone(), SymbolTable::new());
        b.add_short_episodes(short, DurationNs::from_nanos(short));
        let mut bytes = Vec::new();
        binary::write_legacy(&b.finish(), &mut bytes).unwrap();
        bytes
    };
    // A v1 trace is magic, header, record count, records, trailer; with no
    // short episodes it has no records, so its length locates the count.
    let count_at = encode_legacy(0).len() - 9;
    let one = encode_legacy(u64::MAX - 1);
    assert_eq!(one[count_at], 1);
    let record = &one[count_at + 1..one.len() - 8];
    let mut bytes = one[..count_at].to_vec();
    bytes.push(2);
    bytes.extend_from_slice(record);
    bytes.extend_from_slice(record);
    bytes.extend_from_slice(&[0; 8]);
    lagalyzer_trace::faults::reseal(&mut bytes, None);

    let strict = binary::read(bytes.as_slice()).unwrap();
    assert_eq!(strict.short_episode_count(), u64::MAX);
    assert_eq!(
        strict.short_episode_time(),
        DurationNs::from_nanos(u64::MAX)
    );
    let indexed = IndexedTrace::open(bytes.clone()).unwrap();
    assert_eq!(indexed.short_episode_count(), u64::MAX);
    let decoded = indexed.par_decode(1).unwrap();
    assert_eq!(decoded.short_episode_count(), u64::MAX);
    assert_eq!(decoded.short_episode_time(), strict.short_episode_time());
    let salvaged = salvage_both(&bytes);
    assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
    assert_eq!(salvaged.trace.short_episode_count(), u64::MAX);
    assert_eq!(
        salvaged.trace.short_episode_time(),
        strict.short_episode_time()
    );
}
