//! Property tests for the flat sample layout: however snapshots and
//! thread entries arrive, an episode stores them in one canonical order
//! (snapshots by time, threads by id, both sorts stable on ties), so
//! equal samples compare equal and every codec round trip is exact.
//!
//! The fixed cases the interpreter-checked unit run covers are in
//! `sample.rs` and `episode.rs`.

use lagalyzer_model::prelude::*;
use lagalyzer_trace::{binary, text, IndexedTrace};
use proptest::prelude::*;

/// One thread entry: id (few, so ties are common), state, stack of
/// `(class, method, native)`.
type ThreadSpec = (u32, u8, Vec<(u32, u32, bool)>);
/// One snapshot: time in 10 ms steps (few, so ties are common), threads.
type SnapshotSpec = (u64, Vec<ThreadSpec>);

const SYMBOLS: u32 = 6;

fn snapshot_spec() -> impl Strategy<Value = SnapshotSpec> {
    (
        0u64..8,
        proptest::collection::vec(
            (
                0u32..3,
                0u8..4,
                proptest::collection::vec((0..SYMBOLS, 0..SYMBOLS, any::<bool>()), 0..4),
            ),
            0..4,
        ),
    )
}

/// A snapshot exactly as specified: a struct literal, so not even
/// `SampleSnapshot::new` reorders its threads.
fn raw_snapshot(start_ms: u64, (step, threads): &SnapshotSpec) -> SampleSnapshot {
    SampleSnapshot {
        time: TimeNs::from_millis(start_ms + step * 10),
        threads: threads
            .iter()
            .map(|(id, state, stack)| {
                ThreadSample::new(
                    ThreadId::from_raw(*id),
                    ThreadState::ALL[*state as usize],
                    stack
                        .iter()
                        .map(|&(class, method, native)| StackFrame {
                            method: MethodRef {
                                class: SymbolId::from_raw(class),
                                method: SymbolId::from_raw(method),
                            },
                            native,
                        })
                        .collect(),
                )
            })
            .collect(),
    }
}

/// The canonical order, derived independently of the layout: std's
/// stable sorts over the nested values.
fn canonical(mut snapshots: Vec<SampleSnapshot>) -> Vec<SampleSnapshot> {
    snapshots.sort_by_key(|s| s.time);
    for s in &mut snapshots {
        s.threads.sort_by_key(|t| t.thread);
    }
    snapshots
}

fn dispatch(start_ms: u64) -> IntervalTree {
    let mut b = IntervalTreeBuilder::new();
    b.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(start_ms))
        .unwrap();
    b.exit(TimeNs::from_millis(start_ms + 100)).unwrap();
    b.finish().unwrap()
}

fn built(id: u32, start_ms: u64, snapshots: Vec<SampleSnapshot>) -> Episode {
    EpisodeBuilder::new(EpisodeId::from_raw(id), ThreadId::from_raw(0))
        .tree(dispatch(start_ms))
        .samples(snapshots)
        .build()
        .unwrap()
}

/// The decoders' path: pushed record by record into a reused buffer.
fn decoded(id: u32, start_ms: u64, snapshots: &[SampleSnapshot], buffer: &mut Samples) -> Episode {
    for s in snapshots {
        buffer.push_snapshot(s.time);
        for t in &s.threads {
            buffer.push_thread(t.thread, t.state);
            for &frame in &t.stack {
                buffer.push_frame(frame);
            }
        }
    }
    Episode::from_buffer(
        EpisodeId::from_raw(id),
        ThreadId::from_raw(0),
        dispatch(start_ms),
        buffer,
    )
    .unwrap()
}

fn session(episodes: Vec<Episode>) -> SessionTrace {
    let meta = SessionMeta {
        application: "Layout".into(),
        session: SessionId::from_raw(0),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(60),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut symbols = SymbolTable::new();
    for i in 0..SYMBOLS {
        symbols.intern(&format!("s{i}"));
    }
    let mut b = SessionTraceBuilder::new(meta, symbols);
    for e in episodes {
        b.push_episode(e).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    #[cfg_attr(miri, ignore)]
    fn shuffled_samples_build_the_canonical_episode(
        specs in proptest::collection::vec(proptest::collection::vec(snapshot_spec(), 0..6), 1..4)
    ) {
        let mut buffer = Samples::new();
        let mut episodes = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let start_ms = 200 * i as u64;
            let arrived: Vec<SampleSnapshot> =
                spec.iter().map(|s| raw_snapshot(start_ms, s)).collect();
            let sorted = canonical(arrived.clone());
            let id = i as u32;
            let episode = built(id, start_ms, arrived.clone());
            prop_assert_eq!(&episode, &built(id, start_ms, sorted.clone()));
            prop_assert_eq!(&episode, &decoded(id, start_ms, &arrived, &mut buffer));
            prop_assert!(buffer.is_empty());
            let stored: Vec<SampleSnapshot> =
                episode.samples().iter().map(|s| s.to_snapshot()).collect();
            prop_assert_eq!(&stored, &sorted);
            episodes.push(episode);
        }

        let trace = session(episodes);
        let mut bytes = Vec::new();
        binary::write(&trace, &mut bytes).unwrap();
        let indexed = IndexedTrace::open(bytes.clone()).unwrap();
        let mut textual = Vec::new();
        text::write(&trace, &mut textual).unwrap();
        let round_trips = [
            indexed.par_decode(1).unwrap(),
            indexed.par_decode(3).unwrap(),
            binary::read(bytes.as_slice()).unwrap(),
            text::read(textual.as_slice()).unwrap(),
        ];
        for back in &round_trips {
            prop_assert_eq!(back.episodes(), trace.episodes());
        }
    }
}
