//! Test support shared by the codec round-trip properties and the
//! writer's unit tests: small well-formed traces generated from specs.

use lagalyzer_model::prelude::*;
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

/// One generated episode: its dispatch's children, its duration and its
/// samples.
#[derive(Clone, Debug)]
pub struct EpisodeSpec {
    children: Vec<(u8, u8)>, // (kind selector, symbol selector)
    dur_ms: u64,
    samples: Vec<(u64, u8)>, // (offset pct 0..100, state selector)
}

/// Strategy for one episode's spec.
pub fn episode_spec() -> impl Strategy<Value = EpisodeSpec> {
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

fn state_for(sel: u8) -> ThreadState {
    ThreadState::ALL[sel as usize % 4]
}

/// A session of one episode per spec, laid end to end, with `short`
/// filtered episodes.
pub fn build_trace(specs: &[EpisodeSpec], short: u64) -> SessionTrace {
    let meta = SessionMeta {
        application: "PropApp".into(),
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
        // Lay children side by side inside the dispatch window.
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
                    state_for(*ssel),
                    vec![StackFrame::java(pool[*ssel as usize % pool.len()])],
                )],
            ));
        }
        b.push_episode(eb.build().unwrap()).unwrap();
        cursor = end + 10;
    }
    b.add_short_episodes(short, DurationNs::from_micros(short * 300));
    b.finish()
}
