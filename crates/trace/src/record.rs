//! The flat record stream underlying both codecs.
//!
//! A [`lagalyzer_model::SessionTrace`] lowers to a linear sequence of
//! [`TraceRecord`]s — the same event vocabulary the LiLa instrumentation
//! emits — and is reassembled through the model builders, which re-validates
//! nesting, ordering and sample-window invariants on every decode.

use lagalyzer_model::prelude::*;

use crate::error::TraceError;

/// One record of a trace stream.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// Defines interned symbol `id` (ids are dense, in order).
    Symbol {
        /// The dense symbol id being defined.
        id: SymbolId,
        /// The symbol's string.
        name: String,
    },
    /// A session-level garbage collection.
    Gc(GcEvent),
    /// `count` episodes were dropped by the tracer-side filter.
    ShortEpisodes {
        /// How many episodes were dropped.
        count: u64,
        /// Their combined measured duration.
        total: DurationNs,
    },
    /// Begins an episode dispatched on `thread`.
    EpisodeBegin {
        /// The episode's id.
        id: EpisodeId,
        /// The dispatching thread.
        thread: ThreadId,
    },
    /// An interval was entered.
    Enter {
        /// Interval type.
        kind: IntervalKind,
        /// Optional symbolic information.
        symbol: Option<MethodRef>,
        /// Enter time.
        at: TimeNs,
    },
    /// The innermost open interval was exited.
    Exit {
        /// Exit time.
        at: TimeNs,
    },
    /// A call-stack sample of all threads.
    Sample(SampleSnapshot),
    /// Ends the current episode.
    EpisodeEnd,
}

/// Lowers a session trace to its record stream (excluding the header, which
/// each codec writes in its own framing).
pub fn records_from_trace(trace: &SessionTrace) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    for (id, name) in trace.symbols().iter() {
        out.push(TraceRecord::Symbol {
            id,
            name: name.to_owned(),
        });
    }
    for gc in trace.gc_events() {
        out.push(TraceRecord::Gc(*gc));
    }
    if trace.short_episode_count() > 0 {
        out.push(TraceRecord::ShortEpisodes {
            count: trace.short_episode_count(),
            total: trace.short_episode_time(),
        });
    }
    for episode in trace.episodes() {
        out.push(TraceRecord::EpisodeBegin {
            id: episode.id(),
            thread: episode.thread(),
        });
        emit_tree_events(episode.tree(), &mut out);
        for snap in episode.samples() {
            out.push(TraceRecord::Sample(snap.to_snapshot()));
        }
        out.push(TraceRecord::EpisodeEnd);
    }
    out
}

/// Emits enter/exit events for a tree in chronological order.
fn emit_tree_events(tree: &IntervalTree, out: &mut Vec<TraceRecord>) {
    let lowered = walk_tree(tree, &mut |event| {
        out.push(match event {
            TreeEvent::Enter(interval) => TraceRecord::Enter {
                kind: interval.kind,
                symbol: interval.symbol,
                at: interval.start,
            },
            TreeEvent::Exit(at) => TraceRecord::Exit { at },
        });
        Ok::<(), std::convert::Infallible>(())
    });
    lowered.unwrap_or_else(|never| match never {});
}

/// One enter or exit event of an interval tree's record stream.
pub(crate) enum TreeEvent<'a> {
    /// The interval is entered at its start.
    Enter(&'a Interval),
    /// The innermost open interval is exited at this time.
    Exit(TimeNs),
}

/// Walks a tree's intervals in the order the records carry them: each
/// interval is entered, its children (in start order) are walked, and it
/// is exited. Both the record lowering and the binary episode writer
/// walk trees through here; `visit`'s first error stops the walk.
pub(crate) fn walk_tree<E>(
    tree: &IntervalTree,
    visit: &mut impl FnMut(TreeEvent<'_>) -> Result<(), E>,
) -> Result<(), E> {
    fn recurse<E>(
        tree: &IntervalTree,
        id: NodeId,
        visit: &mut impl FnMut(TreeEvent<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let interval = tree.interval(id);
        visit(TreeEvent::Enter(interval))?;
        for &child in tree.children(id) {
            recurse(tree, child, visit)?;
        }
        visit(TreeEvent::Exit(interval.end))
    }
    recurse(tree, tree.root(), visit)
}

/// Reassembles a session trace from a record stream and header metadata.
///
/// # Errors
///
/// Returns a [`ModelError`] when the stream violates a structural invariant
/// (mismatched enters/exits, samples outside their episode, out-of-order
/// episodes, ...). Symbol records may appear anywhere before first use; the
/// decoder requires their ids to be dense and in order.
pub fn trace_from_records(
    meta: SessionMeta,
    records: Vec<TraceRecord>,
) -> Result<SessionTrace, ModelError> {
    let mut symbols = SymbolTable::new();
    // First pass: intern symbols so episodes can reference them; the ids
    // must come out identical because they are dense and ordered.
    for rec in &records {
        if let TraceRecord::Symbol { id, name } = rec {
            let interned = symbols.intern(name);
            if interned != *id {
                // Out-of-order or duplicate definitions: tolerate duplicates
                // mapping to the same id, reject anything else by treating
                // it as a missing root downstream. In practice codecs only
                // produce dense streams; this guards hand-built ones.
                debug_assert_eq!(interned, *id, "non-dense symbol stream");
            }
        }
    }
    let mut builder = SessionTraceBuilder::new(meta, symbols);
    // Short-episode counters add up saturating, as in every other decoder.
    let mut short = SessionRecords::default();

    // Second pass: replay episodes.
    let mut current: Option<(
        EpisodeId,
        ThreadId,
        IntervalTreeBuilder,
        Vec<SampleSnapshot>,
    )> = None;
    for rec in records {
        match rec {
            TraceRecord::Symbol { .. } => {}
            TraceRecord::Gc(gc) => builder.push_gc(gc),
            TraceRecord::ShortEpisodes { count, total } => short.add_short(count, total),
            TraceRecord::EpisodeBegin { id, thread } => {
                current = Some((id, thread, IntervalTreeBuilder::new(), Vec::new()));
            }
            TraceRecord::Enter { kind, symbol, at } => {
                let (_, _, tree, _) = current.as_mut().ok_or(ModelError::MissingRoot)?;
                tree.enter(kind, symbol, at)?;
            }
            TraceRecord::Exit { at } => {
                let (_, _, tree, _) = current.as_mut().ok_or(ModelError::MissingRoot)?;
                tree.exit(at)?;
            }
            TraceRecord::Sample(snap) => {
                let (_, _, _, samples) = current.as_mut().ok_or(ModelError::MissingRoot)?;
                samples.push(snap);
            }
            TraceRecord::EpisodeEnd => {
                let (id, thread, tree, samples) = current.take().ok_or(ModelError::MissingRoot)?;
                let episode = EpisodeBuilder::new(id, thread)
                    .tree(tree.finish()?)
                    .samples(samples)
                    .build()?;
                builder.push_episode(episode)?;
            }
        }
    }
    builder.add_short_episodes(short.short_count, short.short_time);
    Ok(builder.finish())
}

/// A session's session-level records: everything in a trace that is not
/// an episode. The strict indexed open, the salvage scan,
/// [`IndexedTrace`](crate::IndexedTrace) and the corpus reader and writer
/// each hold these as one value, and a
/// [`SessionSource`](crate::SessionSource) borrows it.
#[derive(Clone, Debug, Default)]
pub(crate) struct SessionRecords {
    /// The interned symbols (dense ids, in definition order).
    pub(crate) symbols: SymbolTable,
    /// Session-level GC events.
    pub(crate) gc_events: Vec<GcEvent>,
    /// Episodes dropped by the tracer-side filter.
    pub(crate) short_count: u64,
    /// Their combined measured duration.
    pub(crate) short_time: DurationNs,
}

impl SessionRecords {
    /// Adds one short-episode record's counters; saturating, so a corrupt
    /// count cannot overflow.
    pub(crate) fn add_short(&mut self, count: u64, total: DurationNs) {
        self.short_count = self.short_count.saturating_add(count);
        self.short_time =
            DurationNs::from_nanos(self.short_time.as_nanos().saturating_add(total.as_nanos()));
    }

    /// Strictly absorbs a record found *outside* every episode extent:
    /// symbol ids must be dense, and an episode record there means the
    /// index (or the trace) is corrupt.
    pub(crate) fn absorb(&mut self, record: TraceRecord) -> Result<(), TraceError> {
        match record {
            TraceRecord::Symbol { id, name } => {
                if self.symbols.intern_owned(name) != id {
                    return Err(TraceError::corrupt("symbol record", "non-dense symbol ids"));
                }
            }
            TraceRecord::Gc(gc) => self.gc_events.push(gc),
            TraceRecord::ShortEpisodes { count, total } => self.add_short(count, total),
            _ => {
                return Err(TraceError::corrupt(
                    "trace layout",
                    "episode record outside an indexed extent",
                ))
            }
        }
        Ok(())
    }

    /// Finishes a trace whose episodes are already in `b` (built over these
    /// symbols): adds the GC events and the short-episode counters.
    pub(crate) fn finish(&self, mut b: SessionTraceBuilder) -> SessionTrace {
        for gc in &self.gc_events {
            b.push_gc(*gc);
        }
        b.add_short_episodes(self.short_count, self.short_time);
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            application: "App".into(),
            session: SessionId::from_raw(2),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(60),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        }
    }

    fn sample_trace() -> SessionTrace {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        let paint = b.symbols_mut().method("javax.swing.JFrame", "paint");
        let listener = b.symbols_mut().method("app.Main", "actionPerformed");

        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.enter(IntervalKind::Listener, Some(listener), ms(1))
            .unwrap();
        t.leaf(IntervalKind::Paint, Some(paint), ms(2), ms(90))
            .unwrap();
        t.exit(ms(110)).unwrap();
        t.exit(ms(120)).unwrap();
        let snap = SampleSnapshot::new(
            ms(50),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![StackFrame::java(paint)],
            )],
        );
        let e0 = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .sample(snap)
            .build()
            .unwrap();
        b.push_episode(e0).unwrap();

        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(200)).unwrap();
        t.exit(ms(205)).unwrap();
        let e1 = EpisodeBuilder::new(EpisodeId::from_raw(1), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .build()
            .unwrap();
        b.push_episode(e1).unwrap();

        b.add_short_episodes(42, DurationNs::from_millis(21));
        b.push_gc(GcEvent {
            start: ms(60),
            end: ms(65),
            major: false,
        });
        b.finish()
    }

    #[test]
    fn lower_and_reassemble_round_trips() {
        let trace = sample_trace();
        let records = records_from_trace(&trace);
        let back = trace_from_records(trace.meta().clone(), records).unwrap();
        assert_eq!(back.episodes().len(), trace.episodes().len());
        assert_eq!(back.short_episode_count(), 42);
        assert_eq!(back.short_episode_time(), DurationNs::from_millis(21));
        assert_eq!(back.gc_events(), trace.gc_events());
        assert_eq!(back.episodes()[0], trace.episodes()[0]);
        assert_eq!(back.episodes()[1], trace.episodes()[1]);
        assert_eq!(back.symbols().len(), trace.symbols().len());
    }

    #[test]
    fn tree_events_are_chronological() {
        let trace = sample_trace();
        let records = records_from_trace(&trace);
        let mut last = TimeNs::ZERO;
        let mut in_episode = false;
        for rec in &records {
            let at = match rec {
                TraceRecord::EpisodeBegin { .. } => {
                    in_episode = true;
                    last = TimeNs::ZERO;
                    continue;
                }
                TraceRecord::EpisodeEnd => {
                    in_episode = false;
                    continue;
                }
                TraceRecord::Enter { at, .. } | TraceRecord::Exit { at } => *at,
                _ => continue,
            };
            if in_episode {
                assert!(at >= last, "event at {at} precedes {last}");
                last = at;
            }
        }
    }

    #[test]
    fn orphan_events_rejected() {
        let err = trace_from_records(
            meta(),
            vec![TraceRecord::Enter {
                kind: IntervalKind::Paint,
                symbol: None,
                at: ms(0),
            }],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::MissingRoot);
        let err = trace_from_records(meta(), vec![TraceRecord::EpisodeEnd]).unwrap_err();
        assert_eq!(err, ModelError::MissingRoot);
    }

    #[test]
    fn malformed_tree_rejected() {
        let records = vec![
            TraceRecord::EpisodeBegin {
                id: EpisodeId::from_raw(0),
                thread: ThreadId::from_raw(0),
            },
            TraceRecord::Enter {
                kind: IntervalKind::Dispatch,
                symbol: None,
                at: ms(0),
            },
            // Missing exit.
            TraceRecord::EpisodeEnd,
        ];
        let err = trace_from_records(meta(), records).unwrap_err();
        assert_eq!(err, ModelError::UnclosedIntervals { open: 1 });
    }

    #[test]
    fn empty_stream_gives_empty_trace() {
        let trace = trace_from_records(meta(), Vec::new()).unwrap();
        assert!(trace.episodes().is_empty());
        assert_eq!(trace.short_episode_count(), 0);
    }
}
