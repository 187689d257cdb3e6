//! Episode extent index tests: the footer round-trips, a scan of a
//! footerless trace reconstructs the same extent table, parallel indexed
//! decode is byte-identical to the serial reader at any job count (clean
//! and salvaged inputs alike), and skip-decode filtering agrees with
//! decode-then-filter.

use lagalyzer_model::prelude::*;
use lagalyzer_trace::faults::{self, FaultInjector};
use lagalyzer_trace::{
    binary, decode_bytes_salvage, index, read_bytes_salvage, DurationBand, EpisodeFilter,
    IndexHealth, IndexedTrace, Rollup,
};
use proptest::prelude::*;

#[path = "support/cases.rs"]
mod cases;

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
        application: "IndexApp".into(),
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
    b.push_gc(GcEvent {
        start: TimeNs::from_millis(1),
        end: TimeNs::from_millis(2),
        major: false,
    });
    b.add_short_episodes(short, DurationNs::from_micros(short * 300));
    b.finish()
}

fn encode(trace: &SessionTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    binary::write(trace, &mut buf).unwrap();
    buf
}

fn encode_legacy(trace: &SessionTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    binary::write_legacy(trace, &mut buf).unwrap();
    buf
}

/// Byte-level equality of the canonical re-encoding: the strongest
/// equivalence two decoded traces can have.
/// Rewrites the trailer checksum over whatever the payload now holds, so
/// damage inside it is no longer caught by the checksum.
fn reseal(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    faults::reseal(&mut out, None);
    out
}

fn assert_byte_identical(a: &SessionTrace, b: &SessionTrace) {
    assert_eq!(a.meta(), b.meta());
    assert_eq!(a.episodes(), b.episodes());
    assert_eq!(encode(a), encode(b));
}

fn fixed_trace(episodes: usize) -> SessionTrace {
    let specs: Vec<EpisodeSpec> = (0..episodes)
        .map(|i| EpisodeSpec {
            children: vec![(0, 0), (1, 1)],
            dur_ms: 20 + 90 * (i as u64 % 4),
            samples: vec![(50, 0)],
        })
        .collect();
    build_trace(&specs, 17)
}

#[test]
fn footer_and_scan_agree_on_extents() {
    let trace = fixed_trace(6);
    let v2 = encode(&trace);
    let legacy = encode_legacy(&trace);

    let indexed = IndexedTrace::open(v2).unwrap();
    assert_eq!(indexed.health(), &IndexHealth::FooterValid);

    let scanned = IndexedTrace::open(legacy).unwrap();
    assert_eq!(scanned.health(), &IndexHealth::FooterAbsent);

    // Header and records are byte-identical between v1 and v2, so the
    // scanned extent table must equal the footer's.
    assert_eq!(indexed.extents(), scanned.extents());
    assert_eq!(indexed.extents().len(), 6);
    for (extent, episode) in indexed.extents().iter().zip(trace.episodes()) {
        assert_eq!(extent.id, episode.id());
        assert_eq!(extent.start, episode.start());
        assert_eq!(extent.end, episode.end());
        assert_eq!(extent.duration(), episode.duration());
        assert_eq!(extent.intervals as usize, episode.tree().len());
        assert_eq!(extent.samples as usize, episode.samples().len());
        assert_eq!(extent.skips, 0);
    }
}

#[test]
fn damaged_footer_falls_back_to_scan_with_identical_extents() {
    let trace = fixed_trace(5);
    let v2 = encode(&trace);
    let reference = IndexedTrace::open(v2.clone()).unwrap();
    let footer_len = {
        let total = u64::from_le_bytes(v2[v2.len() - 24..v2.len() - 16].try_into().unwrap());
        total as usize
    };
    let footer_start = v2.len() - 8 - footer_len;

    // Flip one byte in every position of the footer (between the records
    // and the trailer). Strict open must reject each (the trailer covers
    // the footer); salvage must rebuild the very same extent table from
    // the untouched records.
    for at in footer_start..v2.len() - 8 {
        let mut damaged = v2.clone();
        damaged[at] ^= 0x01;
        assert!(IndexedTrace::open(damaged.clone()).is_err());

        let salvaged = IndexedTrace::open_salvage(damaged).unwrap();
        assert_eq!(salvaged.health(), &IndexHealth::SalvageScan);
        assert_eq!(salvaged.extents(), reference.extents());
        let report = salvaged.salvage_report().unwrap();
        assert_eq!(report.episodes_recovered, 5);
        assert_eq!(report.episodes_lost, 0);
        for jobs in [1, 3] {
            assert_byte_identical(&salvaged.par_decode(jobs).unwrap(), &trace);
        }
    }
}

#[test]
fn version_skewed_footerless_v2_reconstructs_by_scan() {
    // A legacy body stamped with the v2 version byte: the trailer still
    // verifies (the magic is outside the checksummed region, and v1 and v2
    // share FNV-1a), there is no footer to locate, and the scan must take
    // over. Stamped v3, the body verifies once resealed with the v3 hash.
    let trace = fixed_trace(4);
    let reference = IndexedTrace::open(encode(&trace)).unwrap();
    for version in [2, 3] {
        let mut bytes = encode_legacy(&trace);
        bytes[7] = version;
        if version == 3 {
            assert!(IndexedTrace::open(bytes.clone()).is_err());
            faults::reseal(&mut bytes, None);
        }
        let indexed = IndexedTrace::open(bytes).unwrap();
        assert!(
            matches!(indexed.health(), IndexHealth::FooterInvalid(_)),
            "v{version}: unexpected health {:?}",
            indexed.health()
        );
        assert_eq!(indexed.extents(), reference.extents());
        assert_byte_identical(&indexed.par_decode(2).unwrap(), &trace);
    }
}

#[test]
fn decode_episode_is_random_access() {
    let trace = fixed_trace(7);
    let indexed = IndexedTrace::open(encode(&trace)).unwrap();
    assert_eq!(indexed.len(), 7);
    // Decode out of order; each extent stands alone.
    for i in [6, 0, 3, 5, 1, 4, 2] {
        assert_eq!(&indexed.decode_episode(i).unwrap(), &trace.episodes()[i]);
    }
}

#[test]
fn par_decode_subset_matches_full_decode_at_every_job_count() {
    let trace = fixed_trace(9);
    let indexed = IndexedTrace::open(encode(&trace)).unwrap();
    let subset = [7usize, 1, 4, 8];
    for jobs in [1, 2, 3, 8] {
        let episodes = indexed.par_decode_subset(jobs, &subset).unwrap();
        assert_eq!(episodes.len(), subset.len());
        for (got, &i) in episodes.iter().zip(&subset) {
            assert_eq!(got, &trace.episodes()[i], "episode {i} at jobs {jobs}");
        }
    }
    // Empty subsets decode nothing; out-of-range indices fail cleanly.
    assert!(indexed.par_decode_subset(2, &[]).unwrap().is_empty());
    assert!(indexed.par_decode_subset(2, &[99]).is_err());
}

/// An episode whose id no longer matches its extent, under a resealed
/// trailer that both opens accept without decoding it: a subset decode
/// skips it on the salvage open and fails on the strict one, and an index
/// past the extent table fails on both.
#[test]
fn par_decode_subset_skips_undecodable_extents_on_salvage() {
    let trace = fixed_trace(6);
    let mut bytes = encode(&trace);
    let damaged = 2;
    let extent = IndexedTrace::open(bytes.clone()).unwrap().extents()[damaged];
    // The first byte of the episode begin's id, just past its tag.
    bytes[extent.offset as usize + 1] ^= 0x40;
    let bytes = reseal(&bytes);
    let strict = IndexedTrace::open(bytes.clone()).unwrap();
    let salvaged = IndexedTrace::open_salvage(bytes).unwrap();
    let all: Vec<usize> = (0..salvaged.len()).collect();
    assert!(strict.par_decode_subset(2, &all).is_err());
    let mut survivors = trace.episodes().to_vec();
    survivors.remove(damaged);
    assert_eq!(salvaged.par_decode_subset(2, &all).unwrap(), survivors);
    let past = salvaged.len() + 3;
    for opened in [&strict, &salvaged] {
        let error = opened.par_decode_subset(2, &[0, past]).unwrap_err();
        assert!(
            error
                .to_string()
                .contains(&format!("no episode {past} in the index")),
            "{error}"
        );
    }
}

#[test]
fn probe_health_classifies_without_decoding() {
    let trace = fixed_trace(2);
    let v2 = encode(&trace);
    assert_eq!(index::probe_health(&v2), Some(IndexHealth::FooterValid));
    assert_eq!(
        index::probe_health(&encode_legacy(&trace)),
        Some(IndexHealth::FooterAbsent)
    );
    let mut damaged = v2.clone();
    let n = damaged.len();
    damaged[n - 20] ^= 0xff; // inside the footer's fixed tail
    assert!(matches!(
        index::probe_health(&damaged),
        Some(IndexHealth::FooterInvalid(_))
    ));
    assert_eq!(index::probe_health(b"lagalyzer-trace v1\n"), None);
    assert_eq!(index::probe_health(b""), None);
}

#[test]
fn duration_bands_split_at_documented_thresholds() {
    let cases = [
        (DurationNs::from_millis(2), DurationBand::Short),
        (DurationNs::from_millis(3), DurationBand::Brief),
        (DurationNs::from_millis(99), DurationBand::Brief),
        (DurationNs::from_millis(100), DurationBand::Perceptible),
        (DurationNs::from_millis(999), DurationBand::Perceptible),
        (DurationNs::from_millis(1000), DurationBand::Severe),
    ];
    for (duration, band) in cases {
        assert_eq!(DurationBand::of(duration), band, "at {duration:?}");
    }
}

#[test]
fn filter_admits_extents_and_episodes_identically() {
    let trace = fixed_trace(8);
    let indexed = IndexedTrace::open(encode(&trace)).unwrap();
    let filters = [
        EpisodeFilter::new(),
        EpisodeFilter::new().min_duration(DurationNs::from_millis(100)),
        EpisodeFilter::new().window(TimeNs::from_millis(200), TimeNs::from_millis(700)),
        EpisodeFilter::new()
            .min_duration(DurationNs::from_millis(110))
            .window(TimeNs::from_millis(0), TimeNs::from_millis(500)),
    ];
    for filter in filters {
        for (extent, episode) in indexed.extents().iter().zip(trace.episodes()) {
            assert_eq!(
                filter.admits_extent(extent),
                filter.admits_episode(episode),
                "filter {filter:?} disagrees on episode {:?}",
                episode.id()
            );
        }
    }
}

/// Deterministic jobs sweep over every trace class the decoder handles:
/// clean v2, legacy v1, fault-injected-then-salvaged, and filtered. The
/// proptest suites below cover the same properties over random inputs;
/// this test pins the exact `jobs ∈ {1, 2, 3, 8}` matrix on a fixed
/// corpus so a scheduling bug cannot hide behind shrinking.
#[test]
fn par_decode_byte_identical_at_every_job_count() {
    const JOBS: [usize; 4] = [1, 2, 3, 8];
    let trace = fixed_trace(23);

    // Clean v2 (footer) and legacy v1 (scan-built index).
    let v2 = encode(&trace);
    let serial = binary::read(v2.as_slice()).unwrap();
    let indexed = IndexedTrace::open(v2.clone()).unwrap();
    let legacy = IndexedTrace::open(encode_legacy(&trace)).unwrap();
    for jobs in JOBS {
        assert_byte_identical(&indexed.par_decode(jobs).unwrap(), &serial);
        assert_byte_identical(&legacy.par_decode(jobs).unwrap(), &serial);
    }

    // Fault-injected: whenever salvage opens, every job count must agree
    // with the serial salvage reader.
    let mut injector = FaultInjector::new(0xC1);
    let mut salvaged_cases = 0;
    for _ in 0..16 {
        let (damaged, _fault) = injector.inject(&v2);
        let (Ok(serial), Ok(indexed)) = (
            read_bytes_salvage(&damaged),
            IndexedTrace::open_salvage(damaged.clone()),
        ) else {
            continue;
        };
        salvaged_cases += 1;
        for jobs in JOBS {
            assert_byte_identical(&indexed.par_decode(jobs).unwrap(), &serial.trace);
        }
    }
    assert!(salvaged_cases > 0, "no injected fault was salvageable");

    // Filter that excludes some episodes (durations alternate through
    // 20/110/200/290 ms, so a 100 ms minimum drops a quarter of them).
    let filter = EpisodeFilter::new().min_duration(DurationNs::PERCEPTIBLE_DEFAULT);
    let expected = filter.retain(serial);
    assert!(expected.episodes().len() < trace.episodes().len());
    assert!(!expected.episodes().is_empty());
    for jobs in JOBS {
        assert_byte_identical(
            &indexed.par_decode_filtered(jobs, &filter).unwrap(),
            &expected,
        );
    }
}

/// Shard batching hands each worker contiguous ascending extent ranges,
/// so the decoded episodes come back in exactly the serial order no
/// matter how many workers claim batches.
#[test]
fn shard_batching_preserves_episode_ordering() {
    let trace = fixed_trace(57);
    let indexed = IndexedTrace::open(encode(&trace)).unwrap();
    let expected: Vec<EpisodeId> = trace.episodes().iter().map(Episode::id).collect();
    for jobs in [1, 2, 3, 8] {
        let decoded = indexed.par_decode(jobs).unwrap();
        let order: Vec<EpisodeId> = decoded.episodes().iter().map(Episode::id).collect();
        assert_eq!(order, expected, "jobs={jobs} permuted the episode order");
    }
}

#[test]
fn empty_trace_round_trips_with_empty_index() {
    let trace = build_trace(&[], 0);
    let indexed = IndexedTrace::open(encode(&trace)).unwrap();
    assert!(indexed.is_empty());
    assert_eq!(indexed.health(), &IndexHealth::FooterValid);
    assert_byte_identical(&indexed.par_decode(8).unwrap(), &trace);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases::or_env(48)))]

    /// The tentpole property: indexed parallel decode is byte-identical to
    /// the serial reader at every job count, on clean traces.
    #[test]
    fn par_decode_matches_serial_reader(
        specs in proptest::collection::vec(episode_spec(), 0..10),
        short in 0u64..1_000_000,
        jobs in 0usize..9,
    ) {
        let trace = build_trace(&specs, short);
        let bytes = encode(&trace);
        let serial = binary::read(bytes.as_slice()).unwrap();
        let indexed = IndexedTrace::open(bytes).unwrap();
        prop_assert_eq!(indexed.health(), &IndexHealth::FooterValid);
        let parallel = indexed.par_decode(jobs).unwrap();
        assert_byte_identical(&parallel, &serial);
    }

    /// Legacy (footerless) traces decode identically through the scan-built
    /// index.
    #[test]
    fn par_decode_matches_serial_reader_on_legacy_traces(
        specs in proptest::collection::vec(episode_spec(), 0..8),
        jobs in 0usize..9,
    ) {
        let trace = build_trace(&specs, 3);
        let bytes = encode_legacy(&trace);
        let serial = binary::read(bytes.as_slice()).unwrap();
        let indexed = IndexedTrace::open(bytes).unwrap();
        prop_assert_eq!(indexed.health(), &IndexHealth::FooterAbsent);
        assert_byte_identical(&indexed.par_decode(jobs).unwrap(), &serial);
    }

    /// On fault-injected traces, whenever both the serial salvage reader
    /// and the indexed salvage open succeed, their decodes agree — at any
    /// job count.
    #[test]
    fn salvaged_par_decode_matches_serial_salvage(
        specs in proptest::collection::vec(episode_spec(), 1..8),
        seed in any::<u64>(),
        jobs in 0usize..9,
    ) {
        let trace = build_trace(&specs, 9);
        let bytes = encode(&trace);
        let mut injector = FaultInjector::new(seed);
        for _ in 0..3 {
            let (damaged, _fault) = injector.inject(&bytes);
            let serial = read_bytes_salvage(&damaged);
            let indexed = IndexedTrace::open_salvage(damaged);
            match (serial, indexed) {
                (Ok(serial), Ok(indexed)) => {
                    let parallel = indexed.par_decode(jobs).unwrap();
                    assert_byte_identical(&parallel, &serial.trace);
                    prop_assert_eq!(
                        indexed.salvage_report().unwrap().episodes_recovered,
                        serial.report.episodes_recovered
                    );
                }
                (Err(_), Err(_)) => {}
                (serial, indexed) => {
                    prop_assert!(
                        false,
                        "salvage outcomes diverge: serial={:?} indexed={:?}",
                        serial.map(|s| s.report),
                        indexed.map(|i| i.salvage_report().cloned())
                    );
                }
            }
        }
    }

    /// The salvage decode the tools run reports exactly what the serial
    /// salvage reference reports and decodes the same episodes — on
    /// fault-injected traces, and on the same damage resealed under a
    /// valid trailer checksum, where the strict open accepts the trace
    /// without decoding its episodes.
    #[test]
    fn salvage_decode_reports_like_serial_salvage(
        specs in proptest::collection::vec(episode_spec(), 1..8),
        seed in any::<u64>(),
        jobs in 0usize..9,
    ) {
        let trace = build_trace(&specs, 9);
        let mut with_rollup = Vec::new();
        binary::write_with_rollup(&trace, &mut with_rollup, Rollup::default()).unwrap();
        let mut injector = FaultInjector::new(seed);
        let v3 = encode(&trace);
        for bytes in [
            faults::with_version(&v3, 2),
            v3,
            encode_legacy(&trace),
            faults::with_version(&with_rollup, 2),
            with_rollup,
        ] {
            let (damaged, _fault) = injector.inject(&bytes);
            let resealed = reseal(&damaged);
            for input in [damaged, resealed] {
                match (read_bytes_salvage(&input), decode_bytes_salvage(input.to_vec(), jobs)) {
                    (Ok(serial), Ok((salvaged, indexed))) => {
                        prop_assert_eq!(&salvaged.report, &serial.report);
                        assert_byte_identical(&salvaged.trace, &serial.trace);
                        // One episode per extent: a rule fold, which hands
                        // each episode its own extent, and a check of the
                        // decoded trace give the same byte spans.
                        let indexed = indexed.expect("a binary trace keeps its index");
                        prop_assert_eq!(indexed.len(), salvaged.trace.episodes().len());
                    }
                    (Err(_), Err(_)) => {}
                    (serial, decoded) => {
                        prop_assert!(
                            false,
                            "salvage outcomes diverge: serial={:?} decoded={:?}",
                            serial.map(|s| s.report),
                            decoded.map(|(s, _)| s.report)
                        );
                    }
                }
            }
        }
    }

    /// Skip-decode filtering equals decode-then-filter: evaluating the
    /// predicate against index entries admits exactly the episodes that
    /// surviving a full decode would.
    #[test]
    fn filtered_par_decode_matches_decode_then_filter(
        specs in proptest::collection::vec(episode_spec(), 0..10),
        jobs in 0usize..9,
        min_ms in 0u64..300,
        window in (0u64..500, 0u64..2000),
    ) {
        let trace = build_trace(&specs, 5);
        let bytes = encode(&trace);
        let filter = EpisodeFilter::new()
            .min_duration(DurationNs::from_millis(min_ms))
            .window(
                TimeNs::from_millis(window.0),
                TimeNs::from_millis(window.0 + window.1),
            );
        let indexed = IndexedTrace::open(bytes.clone()).unwrap();
        let fast = indexed.par_decode_filtered(jobs, &filter).unwrap();
        let slow = filter.retain(binary::read(bytes.as_slice()).unwrap());
        assert_byte_identical(&fast, &slow);
    }

    /// Garbage never panics the indexed open paths.
    #[test]
    fn indexed_open_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut input = b"LGLZTRC\x02".to_vec();
        input.extend_from_slice(&bytes);
        let _ = IndexedTrace::open(input.clone());
        let _ = IndexedTrace::open_salvage(input);
        let _ = index::probe_health(&bytes);
    }
}
