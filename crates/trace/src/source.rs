//! The single decode path: a borrowed view of one opened session.
//!
//! Whether a session lives in a `.lgz` file ([`IndexedTrace`]) or inside
//! a `.lgzc` corpus ([`SessionView`]), decoding it takes the same parts:
//! the header metadata, the extent index, the payload the extent offsets
//! point into, and the session-level records hoisted out of the episode
//! stream (symbol table, GC events, short-episode counters). A corpus
//! member's LZ payload is decompressed by each decode that reads it, on
//! the worker that decodes it, into that worker's reused buffer.
//! A [`SessionSource`] borrows exactly those parts, plus the salvaged
//! (lenient) flag and the rollup, and holds the only implementation of
//! filtered, subset and single-episode decode. That is what makes a
//! corpus session decode byte-identical to its original file.
//!
//! Every decode of a session's admitted extents is one sharded fold,
//! [`SessionSource::fold`]: workers decode contiguous shards, and the
//! shard loop and its merge are the one place that applies the ordering
//! rule, drops what a lenient session drops, and checks the declared
//! record count. A fold lends each decoded episode to an [`Analysis`] and
//! drops it, so an analysis never holds more than one decoded episode per
//! worker; [`SessionSource::decode_filtered`] is the same shard loop with
//! a step that keeps each episode, and its merge moves each shard's
//! episodes into the trace at once. Both fail where
//! [`binary::read`] would: on an episode that does not decode or comes
//! out of order and, when they admit every extent of a footer-indexed
//! `.lgz`, on a record count other than the declared one.
//!
//! [`binary::read`]: crate::binary::read
//!
//! [`IndexedTrace`]: crate::IndexedTrace
//! [`SessionView`]: crate::SessionView

use std::ops::Range;

use lagalyzer_model::parallel::map_shards_init;
use lagalyzer_model::{
    Analysis, DurationNs, Episode, GcEvent, ModelError, Scope, SessionMeta, SessionTrace,
    SessionTraceBuilder, SymbolTable, TimeNs,
};

use crate::corpus::LzSection;
use crate::error::TraceError;
use crate::index::{DecodeScratch, EpisodeExtent, EpisodeFilter};
use crate::record::SessionRecords;
use crate::rollup::Rollup;
use crate::SessionView;

/// One opened session, borrowed from the [`IndexedTrace`] or corpus that
/// owns its bytes. Cheap to copy; build one with
/// [`IndexedTrace::source`] or [`SessionView::source`].
///
/// [`IndexedTrace`]: crate::IndexedTrace
/// [`IndexedTrace::source`]: crate::IndexedTrace::source
/// [`SessionView::source`]: crate::SessionView::source
#[derive(Clone, Copy)]
pub struct SessionSource<'a> {
    pub(crate) meta: &'a SessionMeta,
    pub(crate) records: &'a SessionRecords,
    pub(crate) extents: &'a [EpisodeExtent],
    /// What the extent offsets index: the whole file for a `.lgz`, the
    /// payload section for a corpus session.
    pub(crate) payload: Payload<'a>,
    pub(crate) lenient: bool,
    pub(crate) rollup: RollupRef<'a>,
    /// A footer-indexed `.lgz`'s declared record count, and the records
    /// its open decoded outside the extents: the episodes must decode to
    /// the rest. `None` when a record scan counted them, or in a corpus.
    pub(crate) declared: Option<(u64, u64)>,
}

/// The records the writer emits for one episode of `intervals` intervals
/// and `samples` samples: a begin, an enter and an exit per interval, the
/// samples, and an end. The writer declares its record count by this
/// rule, and a verified fold checks the declared count by it.
pub(crate) fn records_of(intervals: usize, samples: usize) -> u64 {
    2 + 2 * intervals as u64 + samples as u64
}

/// The bytes a [`SessionSource`]'s extent offsets index.
#[derive(Clone, Copy)]
pub(crate) enum Payload<'a> {
    /// In place: a `.lgz` file, or a corpus member's raw payload section.
    Bytes(&'a [u8]),
    /// A corpus member's LZ payload section, decompressed by each decode
    /// that reads it into its worker's buffer (see [`DecodeScratch`]).
    Lz(LzSection<'a>),
}

/// Where a [`SessionSource`] finds its rollup.
#[derive(Clone, Copy)]
pub(crate) enum RollupRef<'a> {
    /// Validated when the `.lgz` file was opened, from the snapshot its
    /// one trailer pass takes.
    Opened(Option<&'a Rollup>),
    /// A corpus session, whose rollup section is validated on first use.
    Corpus(SessionView<'a>),
}

impl<'a> SessionSource<'a> {
    /// The session metadata.
    pub fn meta(&self) -> &'a SessionMeta {
        self.meta
    }

    /// The session's symbol table.
    pub fn symbols(&self) -> &'a SymbolTable {
        &self.records.symbols
    }

    /// The session as an [`Analysis`] sees it.
    pub fn scope(&self) -> Scope<'a> {
        Scope {
            meta: self.meta,
            symbols: &self.records.symbols,
        }
    }

    /// The extent index, one entry per episode in dispatch order.
    pub fn extents(&self) -> &'a [EpisodeExtent] {
        self.extents
    }

    /// Session-level GC events, in record order (a decoded trace keeps
    /// them sorted by start).
    pub fn gc_events(&self) -> &'a [GcEvent] {
        &self.records.gc_events
    }

    /// Episodes below the tracer-side filter threshold (counted, not
    /// recorded individually).
    pub fn short_episode_count(&self) -> u64 {
        self.records.short_count
    }

    /// Total time spent in short (untraced) episodes.
    pub fn short_episode_time(&self) -> DurationNs {
        self.records.short_time
    }

    /// `true` when the session came out of a salvage-mode open: decoding
    /// drops out-of-order episodes instead of failing.
    pub fn is_lenient(&self) -> bool {
        self.lenient
    }

    /// The validated rollup, when one is present and trustworthy. A
    /// corpus session's rollup section is validated on the first call;
    /// no other method of a source touches it.
    pub fn rollup(&self) -> Option<&'a Rollup> {
        match self.rollup {
            RollupRef::Opened(rollup) => rollup,
            RollupRef::Corpus(view) => view.rollup(),
        }
    }

    /// Number of indexed episodes.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// `true` when the session has no traced episodes.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Episodes the filter would exclude, counted from the index alone.
    pub fn excluded_by(&self, filter: &EpisodeFilter) -> usize {
        self.extents
            .iter()
            .filter(|e| !filter.admits_extent(e))
            .count()
    }

    /// Randomly accesses episode `i`: strictly decodes just its extent (a
    /// corpus member's LZ payload is decompressed for it).
    ///
    /// # Errors
    ///
    /// Fails when `i` is out of range, the member's payload does not
    /// decompress, or the extent's bytes do not decode to a well-formed
    /// episode.
    pub fn decode_episode(&self, i: usize) -> Result<Episode, TraceError> {
        self.decode_with(i, &mut DecodeScratch::default())
    }

    /// Decodes episode `i` reusing per-worker `scratch`, whose payload
    /// buffer keeps this member's decompressed LZ payload for the next
    /// call.
    pub(crate) fn decode_with(
        &self,
        i: usize,
        scratch: &mut DecodeScratch<'a>,
    ) -> Result<Episode, TraceError> {
        let extent = self.extents.get(i).ok_or_else(|| {
            TraceError::corrupt("episode extent", format!("no episode {i} in the index"))
        })?;
        scratch.decode(self.payload, extent)
    }

    /// The extent positions the filter admits, ascending; `None` when it
    /// admits every one (the unrestricted fast path shards the extent
    /// table directly instead of materializing an index vector).
    fn admitted(&self, filter: &EpisodeFilter) -> Option<Vec<usize>> {
        (!filter.is_unrestricted()).then(|| {
            (0..self.extents.len())
                .filter(|&i| filter.admits_extent(&self.extents[i]))
                .collect()
        })
    }

    /// Decodes the whole session over `jobs` workers.
    ///
    /// # Errors
    ///
    /// As [`decode_filtered`](Self::decode_filtered).
    pub fn decode(&self, jobs: usize) -> Result<SessionTrace, TraceError> {
        self.decode_filtered(jobs, &EpisodeFilter::default())
    }

    /// Decodes the episodes the filter admits, fanning them over `jobs`
    /// workers; excluded episodes' bytes are never parsed. Session-level
    /// state (GC events, short-episode counts) is always preserved.
    ///
    /// This is [`fold`](Self::fold) with a step that keeps each episode:
    /// every worker decodes its shards into owned runs under the fold's
    /// ordering rule, and the fold's merge moves each run into the trace in
    /// one `Vec::append`, so the result is the serial reader's for any job
    /// count.
    ///
    /// # Errors
    ///
    /// As [`fold`](Self::fold).
    pub fn decode_filtered(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
    ) -> Result<SessionTrace, TraceError> {
        let indices = self.admitted(filter);
        let fold = ShardedFold {
            source: self,
            indices: indices.as_deref(),
        };
        let runs = map_shards_init(
            fold.slots(),
            jobs,
            DecodeScratch::default,
            |scratch, range| fold.run(scratch, range, None),
        );
        fold.collect(runs.into_iter().collect::<Result<_, _>>()?)
    }

    /// Decodes the extents at positions `range` into one owned run: a
    /// shard of [`decode`](Self::decode), for a caller that cuts the
    /// shards itself and hands them to [`collect_runs`](Self::collect_runs).
    pub(crate) fn decode_run(
        &self,
        scratch: &mut DecodeScratch<'a>,
        range: Range<usize>,
    ) -> Result<DecodedRun, TraceError> {
        ShardedFold::every(self).run(scratch, range, None)
    }

    /// Merges runs of [`decode_run`](Self::decode_run) that cover every
    /// extent in order into the session's trace, as [`decode`](Self::decode)
    /// merges its own.
    pub(crate) fn collect_runs(&self, runs: Vec<DecodedRun>) -> Result<SessionTrace, TraceError> {
        ShardedFold::every(self).collect(runs)
    }

    /// The trace of runs the ordering rule already kept, in episode order,
    /// and the session-level records.
    fn trace_of(&self, runs: Vec<Vec<Episode>>) -> SessionTrace {
        let mut b = SessionTraceBuilder::new(self.meta.clone(), self.records.symbols.clone());
        b.append_ordered(runs);
        self.records.finish(b)
    }

    /// `false` when a footer-indexed `.lgz`'s extent index cannot account
    /// for its declared record count: the records outside the extents plus
    /// 2 + 2·intervals + samples per extent add up to another number.
    /// Counted from the index alone, with no decode. Every trace the writer
    /// produces adds up, and so does every source whose count a record scan
    /// checked.
    pub fn extents_add_up(&self) -> bool {
        self.declared.map_or(true, |(declared, gaps)| {
            let counted = self.extents.iter().fold(gaps, |sum, e| {
                sum.saturating_add(records_of(e.intervals as usize, e.samples as usize))
            });
            counted == declared
        })
    }

    /// Fails when a strict decode of every extent of a footer-indexed
    /// `.lgz` decoded other than the declared record count. A filtered
    /// decode reads only what it admits, and a lenient one may drop
    /// episodes, so neither has a count to check.
    fn verify_count(&self, indices: Option<&[usize]>, decoded: u64) -> Result<(), TraceError> {
        let every = !self.lenient && indices.map_or(true, |ix| ix.len() == self.extents.len());
        match self.declared {
            Some((declared, gaps)) if every && gaps + decoded != declared => {
                Err(TraceError::corrupt(
                    "record count",
                    format!("declared {declared}, decoded {}", gaps + decoded),
                ))
            }
            _ => Ok(()),
        }
    }

    /// Runs `analysis` over the episodes the filter admits without
    /// keeping them: each worker decodes an extent into its scratch, lends
    /// the episode to [`Analysis::push`] together with its extent
    /// position, and drops it. Every worker folds contiguous ascending
    /// shards, and [`Analysis::finish`] merges them in shard order. Each
    /// call sees this source's [`scope`](Self::scope).
    ///
    /// The episodes `analysis` sees are the ones a serial pass keeps, in the
    /// same order, for any `jobs`: each admitted extent decoded in index
    /// order, where a strict session fails on an episode that starts
    /// before the one kept ahead of it and a lenient (salvaged) session
    /// drops it. A shard whose first kept episode starts before the
    /// previous shards' last one is folded again from a fresh state with
    /// that floor, so a strict session fails on it and a lenient one drops
    /// the same episodes a serial pass would.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's first decode or ordering
    /// failure, then the first ordering failure between shards, then, when
    /// a strict fold admits every extent of a footer-indexed `.lgz`, a
    /// record count other than the declared one.
    pub fn fold<A: Analysis>(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
        analysis: &A,
    ) -> Result<A::Output, TraceError> {
        let scope = self.scope();
        let indices = self.admitted(filter);
        let fold = ShardedFold {
            source: self,
            indices: indices.as_deref(),
        };
        let init = || analysis.shard(scope);
        let lend = |shard: &mut A::Shard, i, episode: Episode| {
            analysis.push(scope, shard, i, &episode);
        };
        let shards = map_shards_init(
            fold.slots(),
            jobs,
            DecodeScratch::default,
            |scratch, range| fold.shard(scratch, range, None, init(), lend),
        );
        let shards = fold.merge(
            shards.into_iter().collect::<Result<_, _>>()?,
            |range, floor| fold.shard(&mut DecodeScratch::default(), range, floor, init(), lend),
        )?;
        Ok(analysis.finish(scope, shards))
    }

    /// [`fold`](Self::fold) on the calling thread, in one pass into one
    /// `state` stepped by a closure: for a consumer that must see every
    /// episode in order and holds `&mut` state across them.
    ///
    /// # Errors
    ///
    /// As [`fold`](Self::fold).
    pub fn fold_serial<S>(
        &self,
        filter: &EpisodeFilter,
        state: S,
        mut step: impl FnMut(&mut S, usize, &Episode),
    ) -> Result<S, TraceError> {
        let indices = self.admitted(filter);
        let fold = ShardedFold {
            source: self,
            indices: indices.as_deref(),
        };
        let range = 0..fold.slots();
        let lend = |state: &mut S, i, episode: Episode| step(state, i, &episode);
        let shard = fold.shard(&mut DecodeScratch::default(), range, None, state, lend)?;
        self.verify_count(fold.indices, shard.records)?;
        Ok(shard.state)
    }

    /// The shards of a fold over the ranges `split` cuts the admitted
    /// slots into, each handed its episodes by value, folded in order on
    /// the calling thread and merged: the merge and the lenient refold for
    /// any shard layout, whatever the machine's parallelism.
    #[cfg(test)]
    fn fold_split<S>(
        &self,
        filter: &EpisodeFilter,
        split: impl FnOnce(usize) -> Vec<Range<usize>>,
        init: impl Fn() -> S,
        step: impl Fn(&mut S, usize, Episode),
    ) -> Result<Vec<S>, TraceError> {
        let indices = self.admitted(filter);
        let fold = ShardedFold {
            source: self,
            indices: indices.as_deref(),
        };
        let mut scratch = DecodeScratch::default();
        let shards = split(fold.slots())
            .into_iter()
            .map(|range| fold.shard(&mut scratch, range, None, init(), &step))
            .collect::<Result<_, _>>()?;
        fold.merge(shards, |range, floor| {
            fold.shard(&mut scratch, range, floor, init(), &step)
        })
    }

    /// Decodes exactly the extents named by `indices`, in the given order,
    /// never touching any other episode's bytes — the skip-decode path an
    /// analysis uses to revisit a handful of flagged episodes.
    ///
    /// On a lenient (salvaged) session, extents in the index whose bytes
    /// no longer decode are skipped, so the result may be shorter than
    /// `indices`.
    ///
    /// # Errors
    ///
    /// On any session, an index past the extent table (`no episode N in
    /// the index`) or a payload that does not decompress; on a strict
    /// session, also the first extent that does not decode. Either way the
    /// first failing shard's first failure.
    pub fn decode_subset(
        &self,
        jobs: usize,
        indices: &[usize],
    ) -> Result<Vec<Episode>, TraceError> {
        let shards = map_shards_init(indices.len(), jobs, DecodeScratch::default, |scratch, r| {
            let mut episodes = Vec::with_capacity(r.len());
            for slot in r {
                match self.decode_with(indices[slot], scratch) {
                    Ok(episode) => episodes.push(episode),
                    // No extent's own damage: none of the member reads.
                    Err(TraceError::UnreadablePayload(e)) => {
                        return Err(TraceError::UnreadablePayload(e))
                    }
                    Err(_) if self.lenient && indices[slot] < self.extents.len() => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(episodes)
        });
        let mut out = Vec::with_capacity(indices.len());
        for shard in shards {
            out.extend(shard?);
        }
        Ok(out)
    }
}

/// One [`SessionSource::fold`] in progress: the extents it decodes.
struct ShardedFold<'f, 'a> {
    source: &'f SessionSource<'a>,
    /// The admitted extent positions; `None` when every one is admitted.
    indices: Option<&'f [usize]>,
}

/// One shard of a [`SessionSource::fold`]: the consumer's state, the
/// slots it covered, the starts of the first and last episodes it kept
/// (the last is the floor a lenient refold starts from), and their
/// records.
pub(crate) struct FoldedShard<S> {
    state: S,
    range: Range<usize>,
    first: Option<TimeNs>,
    last: Option<TimeNs>,
    records: u64,
}

/// One shard of a materializing decode: the episodes it kept, by value.
pub(crate) type DecodedRun = FoldedShard<Vec<Episode>>;

impl<'f, 'a> ShardedFold<'f, 'a> {
    /// A fold that admits every extent of `source`.
    fn every(source: &'f SessionSource<'a>) -> Self {
        ShardedFold {
            source,
            indices: None,
        }
    }

    /// The number of admitted extents.
    fn slots(&self) -> usize {
        self.indices
            .map_or(self.source.extents.len(), <[usize]>::len)
    }

    /// Folds the slots in `range` into `state`, handing each decoded
    /// episode to `step` by value. Episodes must not start before the one
    /// kept ahead of them, the first before `floor`: a strict source
    /// fails, a lenient one drops them.
    fn shard<S>(
        &self,
        scratch: &mut DecodeScratch<'a>,
        range: Range<usize>,
        floor: Option<TimeNs>,
        state: S,
        mut step: impl FnMut(&mut S, usize, Episode),
    ) -> Result<FoldedShard<S>, TraceError> {
        let mut shard = FoldedShard {
            state,
            range: range.clone(),
            first: None,
            last: floor,
            records: 0,
        };
        for slot in range {
            let i = self.indices.map_or(slot, |ix| ix[slot]);
            let episode = self.source.decode_with(i, scratch)?;
            let start = episode.start();
            if let Some(previous) = shard.last.filter(|&last| start < last) {
                if self.source.lenient {
                    continue;
                }
                return Err(ModelError::EpisodeOrder {
                    previous,
                    at: start,
                }
                .into());
            }
            shard.first.get_or_insert(start);
            shard.last = Some(start);
            shard.records += records_of(episode.tree().len(), episode.samples().len());
            step(&mut shard.state, i, episode);
        }
        Ok(shard)
    }

    /// The shard of a materializing decode over `range`: its kept
    /// episodes, moved into a run.
    fn run(
        &self,
        scratch: &mut DecodeScratch<'a>,
        range: Range<usize>,
        floor: Option<TimeNs>,
    ) -> Result<DecodedRun, TraceError> {
        let run = Vec::with_capacity(range.len());
        self.shard(scratch, range, floor, run, |run, _, episode| {
            run.push(episode);
        })
    }

    /// Merges a materializing decode's runs as [`merge`](Self::merge)
    /// does, and moves them into the session's trace.
    fn collect(&self, runs: Vec<DecodedRun>) -> Result<SessionTrace, TraceError> {
        let runs = self.merge(runs, |range, floor| {
            self.run(&mut DecodeScratch::default(), range, floor)
        })?;
        Ok(self.source.trace_of(runs))
    }

    /// Merges shards folded in slot order: their states in order, once the
    /// episodes kept across shard boundaries are in order too and their
    /// records add up. A shard whose first episode starts before the
    /// previous shards' last is folded again by `refold` from that floor,
    /// as a serial pass would have seen it: a strict source fails on that
    /// first episode, a lenient one drops what the serial pass drops.
    fn merge<S>(
        &self,
        shards: Vec<FoldedShard<S>>,
        mut refold: impl FnMut(Range<usize>, Option<TimeNs>) -> Result<FoldedShard<S>, TraceError>,
    ) -> Result<Vec<S>, TraceError> {
        let mut states = Vec::with_capacity(shards.len());
        let mut floor: Option<TimeNs> = None;
        let mut records = 0;
        for mut shard in shards {
            if let (Some(previous), Some(first)) = (floor, shard.first) {
                if first < previous {
                    shard = refold(shard.range, Some(previous))?;
                }
            }
            floor = shard.last.or(floor);
            records += shard.records;
            states.push(shard.state);
        }
        self.source.verify_count(self.indices, records)?;
        Ok(states)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;
    use std::fmt::Debug;

    use super::*;
    use crate::binary;
    use crate::IndexedTrace;
    use lagalyzer_model::prelude::*;

    /// A session of `n` episodes of varied lengths, in dispatch order,
    /// with GC events and short-episode counters.
    pub(crate) fn trace(n: u32) -> SessionTrace {
        let meta = SessionMeta {
            application: "FoldApp".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(60),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let mut at = 0;
        for i in 0..n {
            let len = 5 + u64::from(i * 37 % 23);
            let mut t = IntervalTreeBuilder::new();
            t.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(at))
                .unwrap();
            t.exit(TimeNs::from_millis(at + len)).unwrap();
            let episode = EpisodeBuilder::new(EpisodeId::from_raw(i), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap();
            b.push_episode(episode).unwrap();
            if i % 7 == 3 {
                b.push_gc(GcEvent {
                    start: TimeNs::from_millis(at + 1),
                    end: TimeNs::from_millis(at + 3),
                    major: i % 2 == 0,
                });
            }
            at += len + 3;
        }
        b.add_short_episodes(u64::from(n) * 3, DurationNs::from_millis(u64::from(n)));
        b.finish()
    }

    /// Extent orders that put episodes out of dispatch order at, across
    /// and within shard boundaries.
    pub(crate) fn orders(n: usize) -> Vec<Vec<usize>> {
        let mut orders = vec![
            (0..n).collect::<Vec<_>>(),
            (0..n).rev().collect(),
            (0..n).map(|i| (i + n / 3) % n).collect(),
        ];
        let mut swapped: Vec<usize> = (0..n).collect();
        swapped.swap(4, n - 5);
        orders.push(swapped);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..6 {
            let mut shuffled: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            orders.push(shuffled);
        }
        orders
    }

    /// Cuts `slots` into contiguous shards: `layout` 0–4 are even splits
    /// into 1–5 shards, and the rest put a single-slot shard first, last
    /// or both.
    pub(crate) fn split(slots: usize, layout: usize) -> Vec<Range<usize>> {
        if slots == 0 {
            return Vec::new();
        }
        let cuts = match layout {
            0..=4 => return lagalyzer_model::parallel::shard_ranges(slots, layout + 1),
            5 => vec![1],
            6 => vec![slots - 1],
            _ => vec![1, slots / 2, slots - 1],
        };
        let mut bounds = vec![0];
        bounds.extend(cuts.into_iter().filter(|&c| 0 < c && c < slots));
        bounds.push(slots);
        bounds.dedup();
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// The serial rule every sharded decode is held to: each admitted
    /// extent decoded in index order and pushed through
    /// [`SessionTraceBuilder::push_episode`]; a lenient source ignores the
    /// order error.
    pub(crate) fn serial(
        source: &SessionSource<'_>,
        filter: &EpisodeFilter,
    ) -> Result<SessionTrace, TraceError> {
        let mut b = SessionTraceBuilder::new(source.meta().clone(), source.symbols().clone());
        for (i, extent) in source.extents().iter().enumerate() {
            if filter.admits_extent(extent) {
                match b.push_episode(source.decode_episode(i)?) {
                    Err(_) if source.is_lenient() => {}
                    pushed => pushed?,
                }
            }
        }
        Ok(source.records.finish(b))
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

    /// What a decoded trace holds, bar its symbols: metadata, episodes,
    /// GC events and the short-episode counters.
    pub(crate) type Parts = (SessionMeta, Vec<Episode>, Vec<GcEvent>, u64, DurationNs);

    pub(crate) fn parts(trace: &SessionTrace) -> Parts {
        (
            trace.meta().clone(),
            trace.episodes().to_vec(),
            trace.gc_events().to_vec(),
            trace.short_episode_count(),
            trace.short_episode_time(),
        )
    }

    /// Holds a sharded result to the serial one: the same value, or both
    /// failing, with the same error text when `exact` and otherwise with
    /// some ordering error.
    pub(crate) fn assert_same<T: PartialEq + Debug>(
        got: Result<T, TraceError>,
        want: Result<&T, &TraceError>,
        exact: bool,
        context: &str,
    ) {
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(&got, want, "{context}"),
            (Err(got), Err(want)) if exact => {
                assert_eq!(got.to_string(), want.to_string(), "{context}");
            }
            (Err(TraceError::Model(ModelError::EpisodeOrder { .. })), Err(_)) => {}
            (got, want) => panic!("{context}: {got:?} vs {want:?}"),
        }
    }

    /// `decode_filtered` keeps, and the fold lends, exactly the episodes
    /// the serial rule keeps, on strict and lenient sources whose extents
    /// are out of order, for every job count and with or without a
    /// filter: whole traces are equal, and at `--jobs 1` so are the error
    /// texts. The merge and the lenient refold are also run over shard
    /// layouts cut by hand, whatever the machine's parallelism. A strict
    /// source fails exactly when the serial rule does, with an ordering
    /// error (which one depends on the layout, as on `--jobs`).
    #[test]
    fn fold_and_decode_keep_what_the_serial_rule_keeps() {
        let n = 40;
        let mut bytes = Vec::new();
        binary::write(&trace(n as u32), &mut bytes).unwrap();
        let indexed = IndexedTrace::open(bytes).unwrap();
        let filters = [
            EpisodeFilter::new(),
            EpisodeFilter::new().min_duration(DurationNs::from_millis(12)),
        ];
        let (inits, shards, mut refolds) = (Cell::new(0), Cell::new(0), 0);
        for order in orders(n) {
            let extents: Vec<EpisodeExtent> = order.iter().map(|&i| indexed.extents()[i]).collect();
            for lenient in [false, true] {
                let mut source = indexed.source();
                source.extents = &extents;
                source.lenient = lenient;
                for filter in &filters {
                    let reference = serial(&source, filter).map(|t| parts(&t));
                    let ids = serial(&source, filter)
                        .map(|t| t.episodes().iter().map(Episode::id).collect::<Vec<_>>());
                    for jobs in 1..=4 {
                        let context = format!("order {order:?} lenient {lenient} jobs {jobs}");
                        let decoded = source.decode_filtered(jobs, filter).map(|t| parts(&t));
                        assert_same(decoded, reference.as_ref(), jobs == 1, &context);
                        let folded = source.fold(jobs, filter, &Ids);
                        assert_same(folded, ids.as_ref(), jobs == 1, &context);
                    }
                    for layout in 0..8 {
                        inits.set(0);
                        let decoded = source
                            .fold_split(
                                filter,
                                |slots| {
                                    let ranges = split(slots, layout);
                                    shards.set(ranges.len());
                                    ranges
                                },
                                || {
                                    inits.set(inits.get() + 1);
                                    Vec::new()
                                },
                                |run, _, e| run.push(e),
                            )
                            .map(|runs| parts(&source.trace_of(runs)));
                        if decoded.is_ok() {
                            refolds += inits.get() - shards.get();
                        }
                        let context = format!("order {order:?} lenient {lenient} layout {layout}");
                        assert_same(decoded, reference.as_ref(), false, &context);
                    }
                }
            }
        }
        // Some lenient shard started before its predecessors' last episode
        // and was refolded.
        assert!(refolds > 0);
    }
}
