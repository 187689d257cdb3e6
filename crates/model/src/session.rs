//! Whole-session traces.
//!
//! A [`SessionTrace`] is the in-memory representation of one recorded
//! interactive session: metadata, the symbol table, every traced episode
//! (≥ filter threshold), the count of episodes the tracer filtered out,
//! and session-level garbage-collection events.

use crate::episode::Episode;
use crate::error::ModelError;
use crate::ids::{SessionId, ThreadId};
use crate::symbols::SymbolTable;
use crate::time::{DurationNs, TimeNs};

/// A session-level garbage collection event (start/end of one collection).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GcEvent {
    /// Collection start (all threads at safe point).
    pub start: TimeNs,
    /// Collection end (threads released).
    pub end: TimeNs,
    /// True for a major (full) collection, false for a minor one.
    pub major: bool,
}

impl GcEvent {
    /// The collection's duration.
    pub fn duration(&self) -> DurationNs {
        self.end - self.start
    }
}

/// Descriptive metadata about a recorded session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionMeta {
    /// Application name (e.g. "JMol").
    pub application: String,
    /// Session identifier (the paper records four sessions per app).
    pub session: SessionId,
    /// The designated GUI (event dispatch) thread.
    pub gui_thread: ThreadId,
    /// End-to-end session duration (the paper's Table III "E2E" column).
    pub end_to_end: DurationNs,
    /// Tracer-side filter threshold; episodes shorter than this were
    /// dropped and only counted (paper: 3 ms).
    pub filter_threshold: DurationNs,
}

/// The complete trace of one interactive session.
#[derive(Clone, Debug)]
pub struct SessionTrace {
    meta: SessionMeta,
    symbols: SymbolTable,
    episodes: Vec<Episode>,
    /// Number of episodes shorter than the filter threshold, which the
    /// tracer dropped (Table III column "< 3ms").
    short_episode_count: u64,
    /// Total duration of the dropped episodes. The tracer measures every
    /// episode before deciding to drop it, so this is exact, and it keeps
    /// the "In-Eps" statistic honest even with a million dropped episodes.
    short_episode_time: DurationNs,
    gc_events: Vec<GcEvent>,
}

impl SessionTrace {
    /// Session metadata.
    pub fn meta(&self) -> &SessionMeta {
        &self.meta
    }

    /// The interned symbol table shared by all episodes.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// All traced episodes, in dispatch order.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Count of episodes dropped by the tracer-side filter.
    pub fn short_episode_count(&self) -> u64 {
        self.short_episode_count
    }

    /// Total duration of the episodes dropped by the tracer-side filter.
    pub fn short_episode_time(&self) -> DurationNs {
        self.short_episode_time
    }

    /// Session-level GC events, in time order.
    pub fn gc_events(&self) -> &[GcEvent] {
        &self.gc_events
    }

    /// Total time spent inside episodes (the numerator of Table III's
    /// "In-Eps" column): traced episode time plus the measured total time
    /// of the filtered-out short episodes.
    pub fn in_episode_time(&self) -> DurationNs {
        let traced: DurationNs = self.episodes.iter().map(Episode::duration).sum();
        traced + self.short_episode_time
    }

    /// Fraction of end-to-end time spent in episodes, in `[0, 1]`.
    pub fn in_episode_fraction(&self) -> f64 {
        self.in_episode_time()
            .fraction_of(self.meta.end_to_end)
            .min(1.0)
    }

    /// Episodes at or above the given perceptibility threshold.
    pub fn perceptible_episodes(&self, threshold: DurationNs) -> impl Iterator<Item = &Episode> {
        self.episodes
            .iter()
            .filter(move |e| e.is_perceptible(threshold))
    }
}

/// Builder assembling a [`SessionTrace`];
/// [`push_episode`](SessionTraceBuilder::push_episode) validates episode
/// ordering.
#[derive(Debug)]
pub struct SessionTraceBuilder {
    meta: SessionMeta,
    symbols: SymbolTable,
    episodes: Vec<Episode>,
    short_episode_count: u64,
    short_episode_time: DurationNs,
    gc_events: Vec<GcEvent>,
}

impl SessionTraceBuilder {
    /// Starts a session trace with the given metadata and symbol table.
    pub fn new(meta: SessionMeta, symbols: SymbolTable) -> Self {
        SessionTraceBuilder {
            meta,
            symbols,
            episodes: Vec::new(),
            short_episode_count: 0,
            short_episode_time: DurationNs::ZERO,
            gc_events: Vec::new(),
        }
    }

    /// Mutable access to the symbol table while building.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Appends a traced episode.
    ///
    /// # Errors
    ///
    /// Fails if the episode starts before the previously added one.
    pub fn push_episode(&mut self, episode: Episode) -> Result<(), ModelError> {
        if let Some(last) = self.episodes.last() {
            if episode.start() < last.start() {
                return Err(ModelError::EpisodeOrder {
                    previous: last.start(),
                    at: episode.start(),
                });
            }
        }
        self.episodes.push(episode);
        Ok(())
    }

    /// Moves runs of decoded episodes into the trace, reserving their total
    /// once and then moving each run in one `Vec::append`.
    ///
    /// Unlike [`push_episode`](Self::push_episode), this does not check
    /// the order (debug builds assert it): the runs must already be in
    /// dispatch order, each starting no earlier than the episodes before
    /// it. A sharded decode enforces that as it decodes, so its merge does
    /// not compare the episodes a second time.
    pub fn append_ordered(&mut self, runs: Vec<Vec<Episode>>) {
        self.episodes.reserve(runs.iter().map(Vec::len).sum());
        for mut run in runs {
            self.episodes.append(&mut run);
        }
        debug_assert!(self
            .episodes
            .windows(2)
            .all(|w| w[0].start() <= w[1].start()));
    }

    /// Records that `n` more episodes with `total` combined duration were
    /// dropped by the tracer filter.
    pub fn add_short_episodes(&mut self, n: u64, total: DurationNs) {
        self.short_episode_count += n;
        self.short_episode_time += total;
    }

    /// Records a session-level GC event.
    pub fn push_gc(&mut self, gc: GcEvent) {
        self.gc_events.push(gc);
    }

    /// Finalizes the trace.
    pub fn finish(mut self) -> SessionTrace {
        self.gc_events.sort_by_key(|g| g.start);
        SessionTrace {
            meta: self.meta,
            symbols: self.symbols,
            episodes: self.episodes,
            short_episode_count: self.short_episode_count,
            short_episode_time: self.short_episode_time,
            gc_events: self.gc_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::EpisodeBuilder;
    use crate::ids::EpisodeId;
    use crate::interval::IntervalKind;
    use crate::tree::IntervalTreeBuilder;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            application: "TestApp".to_owned(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(10),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        }
    }

    fn episode(id: u32, start_ms: u64, end_ms: u64) -> Episode {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(start_ms)).unwrap();
        b.exit(ms(end_ms)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(id), ThreadId::from_raw(0))
            .tree(b.finish().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_query() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        b.push_episode(episode(0, 0, 50)).unwrap();
        b.push_episode(episode(1, 100, 300)).unwrap();
        b.add_short_episodes(10, DurationNs::from_millis(5));
        b.push_gc(GcEvent {
            start: ms(20),
            end: ms(25),
            major: false,
        });
        let trace = b.finish();
        assert_eq!(trace.episodes().len(), 2);
        assert_eq!(trace.short_episode_count(), 10);
        assert_eq!(trace.gc_events().len(), 1);
        assert_eq!(trace.meta().application, "TestApp");
    }

    #[test]
    fn episode_order_enforced() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        b.push_episode(episode(0, 100, 200)).unwrap();
        let err = b.push_episode(episode(1, 50, 80)).unwrap_err();
        assert!(matches!(err, ModelError::EpisodeOrder { .. }));
    }

    #[test]
    fn in_episode_time_counts_short_episode_time() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        b.push_episode(episode(0, 0, 100)).unwrap(); // 100 ms
        b.add_short_episodes(1000, DurationNs::from_millis(1500));
        let trace = b.finish();
        assert_eq!(trace.short_episode_time(), DurationNs::from_millis(1500));
        assert_eq!(trace.in_episode_time(), DurationNs::from_millis(1600));
        // 1.6s of 10s end-to-end.
        assert!((trace.in_episode_fraction() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn in_episode_fraction_clamped() {
        let mut m = meta();
        m.end_to_end = DurationNs::from_millis(50);
        let mut b = SessionTraceBuilder::new(m, SymbolTable::new());
        b.push_episode(episode(0, 0, 100)).unwrap();
        assert_eq!(b.finish().in_episode_fraction(), 1.0);
    }

    #[test]
    fn perceptible_filtering() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        b.push_episode(episode(0, 0, 50)).unwrap();
        b.push_episode(episode(1, 100, 250)).unwrap();
        b.push_episode(episode(2, 300, 401)).unwrap();
        let trace = b.finish();
        let long: Vec<u32> = trace
            .perceptible_episodes(DurationNs::PERCEPTIBLE_DEFAULT)
            .map(|e| e.id().as_raw())
            .collect();
        assert_eq!(long, vec![1, 2]);
    }

    #[test]
    fn gc_events_sorted_on_finish() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        b.push_gc(GcEvent {
            start: ms(50),
            end: ms(60),
            major: true,
        });
        b.push_gc(GcEvent {
            start: ms(10),
            end: ms(12),
            major: false,
        });
        let trace = b.finish();
        assert_eq!(trace.gc_events()[0].start, ms(10));
        assert_eq!(trace.gc_events()[1].duration(), DurationNs::from_millis(10));
    }

    #[test]
    fn symbols_accessible_during_build() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        let m = b.symbols_mut().method("a.B", "c");
        let trace = b.finish();
        assert_eq!(trace.symbols().render(m), "a.B.c");
    }

    #[test]
    fn equal_start_episodes_allowed() {
        // Two dispatches can begin at the same instant when timer events
        // coalesce; ordering only forbids going backwards.
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        b.push_episode(episode(0, 100, 110)).unwrap();
        b.push_episode(episode(1, 100, 120)).unwrap();
        assert_eq!(b.finish().episodes().len(), 2);
    }
}
