//! Property tests for the `.lgzc` corpus container: packing N sessions
//! and decoding them out of the corpus must be byte-identical (at the
//! model level) to decoding the N original files separately — for clean
//! v2 inputs, legacy v1 inputs, and fault-injected salvaged inputs, at
//! any job count, compressed or raw, and a compressed corpus, whose
//! payloads decompress into each decoding worker's buffer, must fold and
//! decode like the same sessions packed raw. `compact` must be idempotent,
//! and the global string pool must hold each symbol exactly once.

use lagalyzer_model::prelude::*;
use lagalyzer_model::{Analysis, Scope};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::faults::FaultInjector;
use lagalyzer_trace::{binary, EpisodeFilter, IndexedTrace};
use proptest::prelude::*;

#[path = "support/cases.rs"]
mod cases;

/// Shared symbol pool — every session draws from it, so a packed corpus
/// must deduplicate these strings down to one copy each.
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
    children: Vec<(u8, u8)>,
    dur_ms: u64,
    samples: Vec<(u64, u8)>,
}

fn episode_spec() -> impl Strategy<Value = EpisodeSpec> {
    (
        proptest::collection::vec((0u8..5, 0u8..6), 0..5),
        4u64..2000,
        proptest::collection::vec((0u64..100, 0u8..4), 0..4),
    )
        .prop_map(|(children, dur_ms, samples)| EpisodeSpec {
            children,
            dur_ms,
            samples,
        })
}

/// A corpus strategy: up to four sessions of up to six episodes each.
fn session_specs() -> impl Strategy<Value = Vec<Vec<EpisodeSpec>>> {
    proptest::collection::vec(proptest::collection::vec(episode_spec(), 0..6), 1..4)
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

fn build_trace(session: u32, specs: &[EpisodeSpec]) -> SessionTrace {
    let meta = SessionMeta {
        application: "CorpusApp".into(),
        session: SessionId::from_raw(session),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(3600),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let pool: Vec<MethodRef> = symbol_pool()
        .into_iter()
        // Sessions intern in different orders so local ids disagree
        // across sessions — the remap has to earn its keep.
        .skip(session as usize % 3)
        .chain(symbol_pool().into_iter().take(session as usize % 3))
        .map(|(c, m)| b.symbols_mut().method(c, m))
        .collect();

    let mut cursor = 5u64;
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
    if session % 2 == 0 {
        b.push_gc(GcEvent {
            start: TimeNs::from_millis(1),
            end: TimeNs::from_millis(3),
            major: session % 4 == 0,
        });
    }
    b.add_short_episodes(u64::from(session) * 7 + 1, DurationNs::from_micros(900));
    b.finish()
}

fn encode_all(specs: &[Vec<EpisodeSpec>], legacy_mask: u32) -> Vec<Vec<u8>> {
    specs
        .iter()
        .enumerate()
        .map(|(i, episode_specs)| {
            let trace = build_trace(i as u32, episode_specs);
            let mut buf = Vec::new();
            if legacy_mask & (1 << i) != 0 {
                binary::write_legacy(&trace, &mut buf).unwrap();
            } else {
                binary::write(&trace, &mut buf).unwrap();
            }
            buf
        })
        .collect()
}

fn symbols_vec(table: &SymbolTable) -> Vec<(u32, String)> {
    table
        .iter()
        .map(|(id, s)| (id.as_raw(), s.into()))
        .collect()
}

fn assert_same_trace(corpus_side: &SessionTrace, file_side: &SessionTrace) {
    assert_eq!(corpus_side.meta(), file_side.meta());
    assert_eq!(corpus_side.episodes(), file_side.episodes());
    assert_eq!(corpus_side.gc_events(), file_side.gc_events());
    assert_eq!(
        corpus_side.short_episode_count(),
        file_side.short_episode_count()
    );
    assert_eq!(
        corpus_side.short_episode_time(),
        file_side.short_episode_time()
    );
    assert_eq!(
        symbols_vec(corpus_side.symbols()),
        symbols_vec(file_side.symbols())
    );
}

/// Collects every episode a fold lends, with its position, in order.
struct Collect;

impl Analysis for Collect {
    type Shard = Vec<(usize, Episode)>;
    type Output = Vec<(usize, Episode)>;

    fn shard(&self, _: Scope<'_>) -> Self::Shard {
        Vec::new()
    }

    fn push(&self, _: Scope<'_>, shard: &mut Self::Shard, position: usize, episode: &Episode) {
        shard.push((position, episode.clone()));
    }

    fn finish(&self, _: Scope<'_>, shards: Vec<Self::Shard>) -> Self::Output {
        shards.concat()
    }
}

/// A decode's value, or its error's text.
fn outcome<T>(result: Result<T, lagalyzer_trace::TraceError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

/// Packs the given encoded files (strict or salvage open per the mask)
/// and checks corpus decodes against per-file decodes at several job
/// counts; a compressed corpus's members also fold and decode like the
/// same corpus packed raw.
fn assert_corpus_matches_files(files: &[Vec<u8>], salvage: bool, options: PackOptions) {
    let opened: Vec<IndexedTrace> = files
        .iter()
        .map(|bytes| {
            if salvage {
                IndexedTrace::open_salvage(bytes.clone()).unwrap()
            } else {
                IndexedTrace::open(bytes.clone()).unwrap()
            }
        })
        .collect();
    let packed = corpus::pack(&opened, options).unwrap();
    let reader = CorpusReader::open(packed).unwrap();
    assert_eq!(reader.len(), files.len());

    let expected: Vec<SessionTrace> = opened.iter().map(|t| t.par_decode(2).unwrap()).collect();
    for jobs in [1, 2, 5] {
        let decoded = reader.par_decode(jobs).unwrap();
        assert_eq!(decoded.len(), expected.len());
        for (corpus_side, file_side) in decoded.iter().zip(&expected) {
            assert_same_trace(corpus_side, file_side);
        }
    }
    // Per-session decode and O(1) random access agree too.
    for (i, file_side) in expected.iter().enumerate() {
        let source = reader.session(i).source();
        assert_same_trace(&source.decode(2).unwrap(), file_side);
        for (j, episode) in file_side.episodes().iter().enumerate() {
            assert_eq!(&source.decode_episode(j).unwrap(), episode);
        }
    }
    if options.compress {
        let raw = corpus::pack(&opened, PackOptions::default()).unwrap();
        let raw = CorpusReader::open(raw).unwrap();
        let all = EpisodeFilter::default();
        for (lz, raw) in reader.sessions().zip(raw.sessions()) {
            let (lz, raw) = (lz.source(), raw.source());
            let subset: Vec<usize> = (0..raw.len()).rev().chain(0..raw.len()).collect();
            for jobs in 1..=4 {
                assert_eq!(
                    outcome(lz.fold(jobs, &all, &Collect)),
                    outcome(raw.fold(jobs, &all, &Collect))
                );
                assert_eq!(
                    outcome(lz.decode_subset(jobs, &subset)),
                    outcome(raw.decode_subset(jobs, &subset))
                );
            }
            for i in 0..raw.len() {
                assert_eq!(
                    outcome(lz.decode_episode(i)),
                    outcome(raw.decode_episode(i))
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases::or_env(24)))]

    /// Clean v2 inputs: corpus decode == per-file decode, raw and
    /// compressed, at any job count.
    #[test]
    fn pack_matches_individual_decodes(specs in session_specs()) {
        let files = encode_all(&specs, 0);
        assert_corpus_matches_files(&files, false, PackOptions::default());
        assert_corpus_matches_files(&files, false, PackOptions { compress: true });
    }

    /// Legacy v1 inputs (no extent footer: index built by scan) pack and
    /// decode identically too.
    #[test]
    fn legacy_v1_inputs_pack_identically(specs in session_specs(), mask in any::<u32>()) {
        let files = encode_all(&specs, mask);
        assert_corpus_matches_files(&files, false, PackOptions::default());
    }

    /// Fault-injected inputs opened in salvage mode: whatever the
    /// salvage open recovers, the corpus preserves exactly.
    #[test]
    fn salvaged_inputs_pack_identically(specs in session_specs(), seed in any::<u64>()) {
        let mut files = encode_all(&specs, 0);
        let mut injector = FaultInjector::new(seed);
        let (damaged, _fault) = injector.inject(&files[0]);
        // Only keep corpora whose damaged member still opens in salvage
        // mode; unrecoverable inputs are pack's caller's problem.
        if IndexedTrace::open_salvage(damaged.clone()).is_ok() {
            files[0] = damaged;
            assert_corpus_matches_files(&files, true, PackOptions::default());
            assert_corpus_matches_files(&files, true, PackOptions { compress: true });
        }
    }

    /// `compact` is idempotent: compacting a compacted corpus is
    /// byte-for-byte the same file.
    #[test]
    fn compact_is_idempotent(specs in session_specs(), compress in any::<bool>()) {
        let files = encode_all(&specs, 0);
        let opened: Vec<IndexedTrace> = files
            .iter()
            .map(|b| IndexedTrace::open(b.clone()).unwrap())
            .collect();
        let options = PackOptions { compress };
        let packed = corpus::pack(&opened, options).unwrap();
        let once = corpus::compact(&CorpusReader::open(packed).unwrap(), 2, options).unwrap();
        let twice = corpus::compact(&CorpusReader::open(once.clone()).unwrap(), 2, options).unwrap();
        prop_assert_eq!(&once, &twice);
        // And compaction preserves the decoded model.
        let a = CorpusReader::open(once).unwrap().par_decode(2).unwrap();
        for (compacted, original) in a.iter().zip(opened.iter()) {
            assert_same_trace(compacted, &original.par_decode(2).unwrap());
        }
    }

    /// Filters riding the corpus extent index match the per-file
    /// filtered decode.
    #[test]
    fn filtered_decode_matches(specs in session_specs(), min_ms in 0u64..500) {
        let files = encode_all(&specs, 0);
        let opened: Vec<IndexedTrace> = files
            .iter()
            .map(|b| IndexedTrace::open(b.clone()).unwrap())
            .collect();
        let packed = corpus::pack(&opened, PackOptions::default()).unwrap();
        let reader = CorpusReader::open(packed).unwrap();
        let filter = EpisodeFilter::new().min_duration(DurationNs::from_millis(min_ms));
        for (i, trace) in opened.iter().enumerate() {
            let expected = trace.par_decode_filtered(2, &filter).unwrap();
            let got = reader.session(i).source().decode_filtered(2, &filter).unwrap();
            assert_same_trace(&got, &expected);
        }
    }
}

/// Symbols are interned once corpus-wide: the global pool is exactly the
/// distinct-string set, and each symbol's bytes appear exactly once in
/// the packed (raw) file.
#[test]
fn global_string_pool_is_deduplicated() {
    let specs: Vec<Vec<EpisodeSpec>> = (0..3)
        .map(|_| {
            vec![EpisodeSpec {
                children: vec![(0, 0), (1, 1), (2, 2), (3, 3), (0, 4)],
                dur_ms: 400,
                samples: vec![(50, 1)],
            }]
        })
        .collect();
    let files = encode_all(&specs, 0);
    let opened: Vec<IndexedTrace> = files
        .iter()
        .map(|b| IndexedTrace::open(b.clone()).unwrap())
        .collect();
    let packed = corpus::pack(&opened, PackOptions::default()).unwrap();
    let reader = CorpusReader::open(packed.clone()).unwrap();

    let per_session_total: usize = opened.iter().map(|t| t.symbols().len()).sum();
    let mut distinct: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for trace in &opened {
        for (_, name) in trace.symbols().iter() {
            distinct.insert(name);
        }
    }
    assert_eq!(reader.global_symbols().len(), distinct.len());
    assert!(
        reader.global_symbols().len() < per_session_total,
        "three same-pool sessions must dedup: {} global vs {} summed",
        reader.global_symbols().len(),
        per_session_total
    );
    // The strongest form: each symbol's bytes occur exactly once in the
    // whole (uncompressed) corpus file, vs once per file before packing.
    for needle in ["javax.swing.JFrame", "org.app.Model", "recompute"] {
        let count = packed
            .windows(needle.len())
            .filter(|w| *w == needle.as_bytes())
            .count();
        assert_eq!(count, 1, "{needle} stored {count} times in the corpus");
        let across_files: usize = files
            .iter()
            .map(|f| {
                f.windows(needle.len())
                    .filter(|w| *w == needle.as_bytes())
                    .count()
            })
            .sum();
        assert_eq!(
            across_files, 3,
            "{needle} duplicated across the separate files"
        );
    }
}

/// Truncation and bit flips anywhere in a corpus file never panic the
/// reader — they error (usually a checksum mismatch).
#[test]
fn corrupt_corpus_never_panics() {
    let specs = vec![vec![EpisodeSpec {
        children: vec![(0, 0)],
        dur_ms: 120,
        samples: vec![],
    }]];
    let files = encode_all(&specs, 0);
    let opened: Vec<IndexedTrace> = files
        .iter()
        .map(|b| IndexedTrace::open(b.clone()).unwrap())
        .collect();
    for options in [PackOptions::default(), PackOptions { compress: true }] {
        let packed = corpus::pack(&opened, options).unwrap();
        for cut in [0, 7, 8, 20, packed.len() / 2, packed.len() - 1] {
            assert!(CorpusReader::open(packed[..cut].to_vec()).is_err());
        }
        for i in (0..packed.len()).step_by(13) {
            let mut flipped = packed.clone();
            flipped[i] ^= 0x40;
            let _ = CorpusReader::open(flipped);
        }
    }
}

/// The corpus magic is recognized and never collides with `.lgz`.
#[test]
fn sniffing() {
    let files = encode_all(
        &[vec![EpisodeSpec {
            children: vec![],
            dur_ms: 50,
            samples: vec![],
        }]],
        0,
    );
    let opened = vec![IndexedTrace::open(files[0].clone()).unwrap()];
    let packed = corpus::pack(&opened, PackOptions::default()).unwrap();
    assert!(corpus::is_corpus(&packed));
    assert!(!corpus::is_corpus(&files[0]));
}
