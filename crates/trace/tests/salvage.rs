//! Salvage-decoder invariants under fault injection.
//!
//! The contract (see `lagalyzer_trace::salvage`):
//!
//! 1. Salvage decoding never panics, on any input.
//! 2. Allocations are bounded by the input (adversarial length fields
//!    cannot force huge buffers).
//! 3. On a clean trace, salvage equals strict decode exactly — including
//!    every field of the report.
//! 4. A clean report implies an unmodified payload: whenever salvage
//!    reports no damage, the recovered trace equals the original.
//! 5. For faults that leave surviving record bytes untouched
//!    (truncation, count inflation, symbol-length inflation), every
//!    recovered episode is byte-identical to the uncorrupted original.

use lagalyzer_model::prelude::*;
use lagalyzer_model::{Analysis, Scope};
use lagalyzer_trace::faults::{self, Fault, FaultInjector};
use lagalyzer_trace::salvage::SalvageReport;
use lagalyzer_trace::{binary, decode_bytes_salvage, read_bytes_salvage, records_from_trace, text};
use lagalyzer_trace::{EpisodeFilter, IndexHealth, IndexedTrace, Rollup};
use proptest::prelude::*;

/// Strategy for a small pool of method symbols.
fn symbol_pool() -> Vec<(&'static str, &'static str)> {
    vec![
        ("javax.swing.JFrame", "paint"),
        ("javax.swing.JComboBox", "actionPerformed"),
        ("sun.java2d.loops.DrawLine", "DrawLine"),
        ("org.app.Main", "handle"),
        ("org.app.Model", "recompute"),
    ]
}

#[derive(Clone, Debug)]
struct EpisodeSpec {
    children: Vec<(u8, u8)>, // (kind selector, symbol selector)
    dur_ms: u64,
    samples: Vec<(u64, u8)>, // (offset pct 0..100, state selector)
}

fn episode_spec() -> impl Strategy<Value = EpisodeSpec> {
    (
        proptest::collection::vec((0u8..5, 0u8..6), 0..6),
        4u64..2000,
        proptest::collection::vec((0u64..100, 0u8..4), 0..5),
    )
        .prop_map(|(children, dur_ms, samples)| EpisodeSpec {
            children,
            dur_ms,
            samples,
        })
}

fn kind_for(sel: u8) -> IntervalKind {
    match sel {
        0 => IntervalKind::Listener,
        1 => IntervalKind::Paint,
        2 => IntervalKind::Native,
        3 => IntervalKind::Async,
        _ => IntervalKind::Gc,
    }
}

fn build_trace(specs: &[EpisodeSpec], short: u64) -> SessionTrace {
    let meta = SessionMeta {
        application: "SalvageApp".into(),
        session: SessionId::from_raw(0),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(3600),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let pool: Vec<MethodRef> = symbol_pool()
        .into_iter()
        .map(|(c, m)| b.symbols_mut().method(c, m))
        .collect();

    let mut cursor = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let start = cursor;
        let end = start + spec.dur_ms;
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(start))
            .unwrap();
        let n = spec.children.len() as u64;
        if n > 0 {
            let slot = spec.dur_ms / (n + 1);
            for (j, (ksel, ssel)) in spec.children.iter().enumerate() {
                let s = start + slot * (j as u64) + 1;
                let e = (s + slot.saturating_sub(2)).min(end);
                if e <= s {
                    continue;
                }
                let kind = kind_for(*ksel);
                let symbol = if kind == IntervalKind::Gc || *ssel as usize >= pool.len() {
                    None
                } else {
                    Some(pool[*ssel as usize])
                };
                t.leaf(kind, symbol, TimeNs::from_millis(s), TimeNs::from_millis(e))
                    .unwrap();
            }
        }
        t.exit(TimeNs::from_millis(end)).unwrap();
        let mut eb = EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
            .tree(t.finish().unwrap());
        for (pct, ssel) in &spec.samples {
            let at = start + spec.dur_ms * pct / 100;
            eb = eb.sample(SampleSnapshot::new(
                TimeNs::from_millis(at),
                vec![ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::ALL[*ssel as usize % 4],
                    vec![StackFrame::java(pool[*ssel as usize % pool.len()])],
                )],
            ));
        }
        b.push_episode(eb.build().unwrap()).unwrap();
        cursor = end + 10;
    }
    b.add_short_episodes(short, DurationNs::from_micros(short * 300));
    b.push_gc(GcEvent {
        start: TimeNs::from_millis(1),
        end: TimeNs::from_millis(2),
        major: false,
    });
    b.finish()
}

fn encode_binary(trace: &SessionTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    binary::write(trace, &mut buf).unwrap();
    buf
}

fn assert_traces_equal(a: &SessionTrace, b: &SessionTrace) {
    assert_eq!(a.meta(), b.meta());
    assert_eq!(a.episodes(), b.episodes());
    assert_eq!(a.gc_events(), b.gc_events());
    assert_eq!(a.short_episode_count(), b.short_episode_count());
    assert_eq!(a.short_episode_time(), b.short_episode_time());
    assert_eq!(a.symbols().len(), b.symbols().len());
    for (id, name) in a.symbols().iter() {
        assert_eq!(b.symbols().resolve(id), Some(name));
    }
}

/// The report a clean decode must produce, field by field.
fn clean_report(trace: &SessionTrace, checksum_ok: Option<bool>) -> SalvageReport {
    SalvageReport {
        skips: Vec::new(),
        episodes_recovered: trace.episodes().len() as u64,
        episodes_lost: 0,
        records_recovered: records_from_trace(trace).len() as u64,
        bytes_skipped: 0,
        lines_skipped: 0,
        checksum_ok,
    }
}

/// Invariants that must hold for ANY input: no panic, and a clean report
/// implies the recovered trace equals the strict decode of the original.
fn check_fault_invariants(original: &SessionTrace, damaged: &[u8]) {
    match read_bytes_salvage(damaged) {
        Err(_) => {} // unrecoverable is a legal outcome, panicking is not
        Ok(salvaged) => {
            assert!(
                salvaged.report.episodes_recovered as usize <= original.episodes().len() + 1,
                "recovered more episodes than the original held"
            );
            if salvaged.report.is_clean() {
                assert_traces_equal(&salvaged.trace, original);
            }
        }
    }
}

/// Faults that leave every surviving record's bytes untouched, so every
/// recovered episode must be byte-identical to its original.
fn is_byte_preserving(fault: &Fault) -> bool {
    matches!(
        fault,
        Fault::Truncate { .. } | Fault::InflateCount | Fault::InflateLength { .. }
    )
}

proptest! {
    /// Clean binary salvage equals strict decode exactly, report included.
    #[test]
    fn clean_binary_salvage_equals_strict(
        specs in proptest::collection::vec(episode_spec(), 0..10),
        short in 0u64..1_000_000,
    ) {
        let trace = build_trace(&specs, short);
        let bytes = encode_binary(&trace);
        let strict = binary::read(bytes.as_slice()).unwrap();
        let salvaged = binary::read_salvage(&bytes).unwrap();
        assert_traces_equal(&salvaged.trace, &strict);
        prop_assert_eq!(salvaged.report, clean_report(&trace, Some(true)));
    }

    /// Clean text salvage equals strict decode exactly, report included.
    #[test]
    fn clean_text_salvage_equals_strict(
        specs in proptest::collection::vec(episode_spec(), 0..8),
        short in 0u64..1_000_000,
    ) {
        let trace = build_trace(&specs, short);
        let mut buf = Vec::new();
        text::write(&trace, &mut buf).unwrap();
        let strict = text::read(buf.as_slice()).unwrap();
        let salvaged = text::read_salvage(&buf).unwrap();
        assert_traces_equal(&salvaged.trace, &strict);
        prop_assert_eq!(salvaged.report, clean_report(&trace, None));
    }

    /// Arbitrary garbage never panics the salvage path.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = read_bytes_salvage(&bytes);
    }

    /// Garbage behind a valid magic exercises the binary salvage path
    /// proper (header decode, resync scanning) without panicking.
    #[test]
    fn garbage_after_magic_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut input = b"LGLZTRC\x01".to_vec();
        input.extend_from_slice(&bytes);
        let _ = read_bytes_salvage(&input);
    }

    /// Garbage lines behind a valid text header never panic.
    #[test]
    fn garbage_text_never_panics(s in "\\PC{0,400}") {
        let input = format!("lagalyzer-trace v1\n{s}");
        let _ = read_bytes_salvage(input.as_bytes());
    }

    /// Seeded fault injection on random traces: never panics; clean
    /// reports imply exact recovery; byte-preserving faults recover only
    /// byte-identical episodes.
    #[test]
    fn injected_faults_uphold_invariants(
        specs in proptest::collection::vec(episode_spec(), 1..8),
        seed in any::<u64>(),
    ) {
        let trace = build_trace(&specs, 9);
        let bytes = encode_binary(&trace);
        let mut injector = FaultInjector::new(seed);
        for _ in 0..4 {
            let (damaged, fault) = injector.inject(&bytes);
            check_fault_invariants(&trace, &damaged);
            if is_byte_preserving(&fault) {
                if let Ok(salvaged) = read_bytes_salvage(&damaged) {
                    for episode in salvaged.trace.episodes() {
                        let original = trace
                            .episodes()
                            .iter()
                            .find(|e| e.id() == episode.id())
                            .expect("recovered an episode the original never had");
                        prop_assert_eq!(episode, original);
                    }
                }
            }
        }
    }
}

/// The acceptance floor: 1k+ seeded fault cases, deterministic, in one
/// plain test (independent of the proptest case count).
#[test]
fn thousand_seeded_fault_cases() {
    let variants = [
        build_trace(&[], 0),
        build_trace(
            &[EpisodeSpec {
                children: vec![(0, 0), (1, 1)],
                dur_ms: 120,
                samples: vec![(50, 1)],
            }],
            7,
        ),
        build_trace(
            &(0..6)
                .map(|i| EpisodeSpec {
                    children: vec![(i % 5, i % 6), ((i + 1) % 5, (i + 2) % 6)],
                    dur_ms: 40 + u64::from(i) * 13,
                    samples: vec![(20, i % 4), (80, (i + 1) % 4)],
                })
                .collect::<Vec<_>>(),
            123,
        ),
        build_trace(
            &[EpisodeSpec {
                children: vec![],
                dur_ms: 5,
                samples: vec![],
            }],
            0,
        ),
    ];
    let mut cases = 0u32;
    for (v, trace) in variants.iter().enumerate() {
        let bytes = encode_binary(trace);
        let mut injector = FaultInjector::new(0xC0FFEE ^ v as u64);
        for _ in 0..256 {
            let (damaged, _fault) = injector.inject(&bytes);
            check_fault_invariants(trace, &damaged);
            cases += 1;
        }
    }
    assert!(cases >= 1024, "ran only {cases} fault cases");
}

/// Truncation at every byte boundary: salvage must never panic, and all
/// recovered episodes must be byte-identical originals (truncation can
/// never invent or alter records).
#[test]
fn truncation_at_every_offset_recovers_only_intact_episodes() {
    let trace = build_trace(
        &(0..4)
            .map(|i| EpisodeSpec {
                children: vec![(i % 5, i % 6)],
                dur_ms: 50,
                samples: vec![(40, i % 4)],
            })
            .collect::<Vec<_>>(),
        11,
    );
    let bytes = encode_binary(&trace);
    for cut in 0..bytes.len() {
        let damaged = Fault::Truncate { at: cut }.apply(&bytes);
        let Ok(salvaged) = read_bytes_salvage(&damaged) else {
            continue; // cut inside magic/header: unrecoverable, fine
        };
        for episode in salvaged.trace.episodes() {
            let original = trace
                .episodes()
                .iter()
                .find(|e| e.id() == episode.id())
                .expect("truncation invented an episode");
            assert_eq!(episode, original, "cut at {cut} altered an episode");
        }
        if cut < bytes.len() {
            assert!(
                !salvaged.report.is_clean(),
                "cut at {cut} of {} went unreported",
                bytes.len()
            );
        }
    }
}

/// Every single-bit flip either fails decode entirely or is flagged in
/// the report — damage is never silent.
#[test]
fn single_bit_flips_are_never_silent() {
    let trace = build_trace(
        &[EpisodeSpec {
            children: vec![(0, 0)],
            dur_ms: 80,
            samples: vec![(50, 0)],
        }],
        3,
    );
    let bytes = encode_binary(&trace);
    for offset in 0..bytes.len() {
        let damaged = Fault::BitFlip {
            offset,
            bit: (offset % 8) as u8,
        }
        .apply(&bytes);
        match read_bytes_salvage(&damaged) {
            Err(_) => {}
            Ok(salvaged) => assert!(
                !salvaged.report.is_clean(),
                "bit flip at byte {offset} went unreported"
            ),
        }
    }
}

/// Five episodes with samples, for the resealed-damage tests.
fn five_episodes() -> SessionTrace {
    build_trace(
        &(0..5)
            .map(|i| EpisodeSpec {
                children: vec![(i % 5, i % 6)],
                dur_ms: 60 + u64::from(i) * 7,
                samples: vec![(30, i % 4)],
            })
            .collect::<Vec<_>>(),
        13,
    )
}

/// The v2 and v3 encodings of a trace the writer encoded (as v3): the
/// resealed-damage tests run on both checksum hashes.
fn v2_and_v3(v3: &[u8]) -> [(u8, Vec<u8>); 2] {
    [(2, faults::with_version(v3, 2)), (3, v3.to_vec())]
}

/// A trace whose only damage is an extent footer resealed under a valid
/// trailer checksum is not damaged: the strict read decodes it, and both
/// salvage reads and the salvage open report it clean, with the footer
/// unusable as an index — with and without a rollup section between the
/// footer and the trailer.
#[test]
fn resealed_footer_salvages_clean() {
    let trace = five_episodes();
    let mut with_rollup = Vec::new();
    binary::write_with_rollup(&trace, &mut with_rollup, Rollup::default()).unwrap();
    let encodings = [("plain", encode_binary(&trace)), ("rollup", with_rollup)]
        .into_iter()
        .flat_map(|(label, v3)| v2_and_v3(&v3).map(|(v, bytes)| (format!("{label} v{v}"), bytes)));
    for (label, original) in encodings {
        let mut bytes = original;
        // Locate the footer from the end, past the rollup section if any
        // (both use the same end-located framing: ... length, magic).
        let mut end = bytes.len() - 8;
        if &bytes[end - 8..end] == b"LGLZRUP\x01" {
            end -= u64::from_le_bytes(bytes[end - 16..end - 8].try_into().unwrap()) as usize;
        }
        assert_eq!(&bytes[end - 8..end], b"LGLZIDX\x01", "{label}");
        let footer_len = u64::from_le_bytes(bytes[end - 16..end - 8].try_into().unwrap()) as usize;
        bytes[end - footer_len / 2] ^= 0x01;
        faults::reseal(&mut bytes, None);

        let strict = binary::read(bytes.as_slice()).unwrap();
        assert_traces_equal(&strict, &trace);
        let reference = binary::read_salvage(&bytes).unwrap();
        assert_eq!(
            reference.report,
            clean_report(&trace, Some(true)),
            "{label}"
        );
        assert_traces_equal(&reference.trace, &strict);
        assert_eq!(read_bytes_salvage(&bytes).unwrap().report, reference.report);
        let (decoded, kept) = decode_bytes_salvage(bytes.to_vec(), 2).unwrap();
        assert_eq!(decoded.report, reference.report, "{label}");
        assert!(
            matches!(kept.unwrap().health(), IndexHealth::FooterInvalid(_)),
            "{label}: the strict open must be kept"
        );
        let indexed = IndexedTrace::open_salvage(bytes).unwrap();
        assert!(
            matches!(indexed.health(), IndexHealth::FooterInvalid(_)),
            "{label}: unexpected health {:?}",
            indexed.health()
        );
        assert_eq!(indexed.salvage_report(), Some(&reference.report), "{label}");
        assert_traces_equal(&indexed.par_decode(2).unwrap(), &strict);
    }
}

/// A record tag flipped inside an episode, resealed under a valid trailer
/// checksum: the strict open accepts the trace without decoding its
/// episodes, but the salvage decode that `lint` and `check` run decodes
/// them, falls back to the salvage scan, and reports the damage exactly
/// as the serial salvage reference does.
#[test]
fn resealed_episode_damage_is_reported() {
    let trace = five_episodes();
    for (version, mut bytes) in v2_and_v3(&encode_binary(&trace)) {
        let (clean, kept) = decode_bytes_salvage(bytes.to_vec(), 2).unwrap();
        assert_eq!(clean.report, clean_report(&trace, Some(true)), "v{version}");
        assert_eq!(kept.unwrap().health(), &IndexHealth::FooterValid);
        let extent = IndexedTrace::open(bytes.clone()).unwrap().extents()[2];
        bytes[extent.offset as usize] ^= 0x80;
        faults::reseal(&mut bytes, None);

        assert!(binary::read(bytes.as_slice()).is_err());
        let strict = IndexedTrace::open(bytes.clone()).unwrap();
        assert_eq!(strict.health(), &IndexHealth::FooterValid);
        assert!(strict.par_decode(1).is_err());

        let reference = binary::read_salvage(&bytes).unwrap();
        assert!(!reference.report.is_clean(), "{:?}", reference.report);
        assert_eq!(reference.report.checksum_ok, Some(true), "v{version}");
        assert_eq!(reference.report.episodes_recovered, 4);
        for jobs in [1, 3] {
            let (salvaged, indexed) = decode_bytes_salvage(bytes.to_vec(), jobs).unwrap();
            assert_eq!(salvaged.report, reference.report);
            assert_traces_equal(&salvaged.trace, &reference.trace);
            let indexed = indexed.expect("a binary trace keeps its index");
            assert_eq!(indexed.health(), &IndexHealth::SalvageScan);
            assert_eq!(indexed.salvage_report(), Some(&reference.report));
        }
    }
}

/// Collects the ids of the episodes a fold lends, in order.
struct Ids;

impl Analysis for Ids {
    type Shard = Vec<EpisodeId>;
    type Output = Vec<EpisodeId>;

    fn shard(&self, _: Scope<'_>) -> Vec<EpisodeId> {
        Vec::new()
    }

    fn push(&self, _: Scope<'_>, ids: &mut Vec<EpisodeId>, _: usize, episode: &Episode) {
        ids.push(episode.id());
    }

    fn finish(&self, _: Scope<'_>, shards: Vec<Vec<EpisodeId>>) -> Vec<EpisodeId> {
        shards.concat()
    }
}

/// A declared record count one off, resealed under a valid trailer
/// checksum: the strict open accepts the trace, yet its records do not add
/// up. The strict reader rejects it, and so does the verified fold of a
/// strict open; the verified fold of a salvage open reopens it through the
/// salvage scan and folds again, reporting what the serial salvage
/// reference reports, as the materializing reference does. A filtered fold
/// decodes only what it admits and counts nothing.
#[test]
fn miscounted_records_fail_the_verified_fold() {
    let trace = five_episodes();
    let all = EpisodeFilter::default();
    let some = EpisodeFilter::new().min_duration(DurationNs::from_millis(75));
    let ids = |t: &SessionTrace| t.episodes().iter().map(Episode::id).collect::<Vec<_>>();
    for (version, clean) in v2_and_v3(&encode_binary(&trace)) {
        for up in [false, true] {
            let bytes = faults::miscount(&clean, up).unwrap();
            let context = format!("v{version} up {up}");
            assert!(binary::read(bytes.as_slice()).is_err(), "{context}");
            let reference = binary::read_salvage(&bytes).unwrap();
            assert!(!reference.report.is_clean(), "{context}");

            let strict = IndexedTrace::open(bytes.clone()).unwrap();
            assert_eq!(strict.health(), &IndexHealth::FooterValid, "{context}");
            let Err(failed) = strict.fold_verified(|_, source| source.fold(1, &all, &())) else {
                panic!("{context}: the strict fold must fail");
            };
            assert!(
                failed.to_string().contains("record count"),
                "{context}: {failed}"
            );
            let filtered = strict.source().fold(1, &some, &Ids);
            assert!(matches!(filtered, Ok(ids) if !ids.is_empty()), "{context}");

            let salvaged = IndexedTrace::open_salvage(bytes.clone()).unwrap();
            for jobs in [1, 3] {
                let (folded, rescanned) = salvaged
                    .fold_verified(|_, source| source.fold(jobs, &all, &Ids))
                    .unwrap();
                let rescanned = rescanned.expect("the fold reopens the trace");
                assert_eq!(rescanned.health(), &IndexHealth::SalvageScan, "{context}");
                assert_eq!(rescanned.salvage_report(), Some(&reference.report));
                assert_eq!(folded, ids(&reference.trace), "{context}");
                let (decoded, _) = decode_bytes_salvage(bytes.clone(), jobs).unwrap();
                assert_eq!(decoded.report, reference.report, "{context}");
            }
        }
    }
}

/// Bytes past the declared records that do not start with the footer
/// magic are not a footer, even under a valid trailer checksum: the
/// serial reader and the strict open reject them, and every salvage path
/// reports them as one skipped region while recovering every episode.
#[test]
fn resealed_footer_magic_damage_is_reported() {
    let trace = five_episodes();
    for (version, mut bytes) in v2_and_v3(&encode_binary(&trace)) {
        let end = bytes.len() - 8;
        let footer_len = u64::from_le_bytes(bytes[end - 16..end - 8].try_into().unwrap()) as usize;
        bytes[end - footer_len] ^= 0x01;
        faults::reseal(&mut bytes, None);

        let err = binary::read(bytes.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("bad footer magic"),
            "v{version}: {err}"
        );
        assert!(IndexedTrace::open(bytes.clone()).is_err());

        let reference = binary::read_salvage(&bytes).unwrap();
        assert_eq!(reference.report.episodes_recovered, 5);
        assert_eq!(reference.report.skips.len(), 1, "{:?}", reference.report);
        assert_eq!(reference.report.skips[0].context, "index footer");
        assert_eq!(reference.report.bytes_skipped, footer_len as u64);
        assert_traces_equal(&reference.trace, &trace);
        let indexed = IndexedTrace::open_salvage(bytes.clone()).unwrap();
        assert_eq!(indexed.salvage_report(), Some(&reference.report));
        let (salvaged, _) = decode_bytes_salvage(bytes.to_vec(), 2).unwrap();
        assert_eq!(salvaged.report, reference.report);
        assert_traces_equal(&salvaged.trace, &trace);
    }
}

/// Every committed binary fixture gets the same salvage report from the
/// indexed salvage open, and from the salvage decode `lagalyzer lint`
/// prints, as from the serial salvage reference.
#[test]
fn indexed_salvage_report_equals_serial_on_every_fixture() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for dir in [root.join("tests/corpus"), root.join("../cli/tests/corpus")] {
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .collect();
        paths.sort();
        for path in paths {
            let bytes = std::fs::read(&path).unwrap();
            if !bytes.starts_with(b"LGLZTRC") {
                continue;
            }
            let serial = read_bytes_salvage(&bytes);
            let decoded = decode_bytes_salvage(bytes.to_vec(), 1);
            let indexed = IndexedTrace::open_salvage(bytes);
            assert_eq!(decoded.is_ok(), indexed.is_ok(), "{}", path.display());
            match (serial, indexed) {
                (Ok(serial), Ok(indexed)) => {
                    assert_eq!(
                        indexed.salvage_report(),
                        Some(&serial.report),
                        "{}",
                        path.display()
                    );
                    let (decoded, kept) = decoded.unwrap();
                    assert_eq!(decoded.report, serial.report, "{}", path.display());
                    assert_eq!(kept.unwrap().health(), indexed.health());
                }
                (Err(_), Err(_)) => {}
                (serial, indexed) => panic!(
                    "{}: outcomes diverge: serial ok={} indexed ok={}",
                    path.display(),
                    serial.is_ok(),
                    indexed.is_ok()
                ),
            }
            checked += 1;
        }
    }
    assert!(checked >= 14, "only {checked} binary fixtures found");
}
