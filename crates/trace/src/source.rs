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
//! Every decode of admitted extents is one sharded fold, over one session
//! ([`SessionSource::fold`]) or every member of a corpus
//! ([`CorpusReader::fold`]): workers decode contiguous shards of the
//! sources' admitted extents as one flat slot space, and the shard loop
//! and its per-source merge are the one place that applies the ordering
//! rule, drops what a lenient session drops, and checks the declared
//! record count. A fold lends each decoded episode to an [`Analysis`] and
//! drops it, so an analysis never holds more than one decoded episode per
//! worker; [`SessionSource::decode_filtered`] and
//! [`CorpusReader::par_decode`] are the same fold with a step that keeps
//! each episode, and its merge moves each shard's episodes into the trace
//! at once. All fail where [`binary::read`] would: on an episode that does
//! not decode or comes out of order and, when they admit every extent of
//! a footer-indexed `.lgz`, on a record count other than the declared one.
//!
//! [`binary::read`]: crate::binary::read
//! [`CorpusReader::fold`]: crate::CorpusReader::fold
//! [`CorpusReader::par_decode`]: crate::CorpusReader::par_decode
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
        let mut traces = ShardedFold::new(std::slice::from_ref(self), filter).decode(jobs)?;
        Ok(traces.pop().expect("one trace per source"))
    }

    /// The trace of runs the ordering rule already kept, in episode order,
    /// and the session-level records.
    pub(crate) fn trace_of(&self, runs: Vec<Vec<Episode>>) -> SessionTrace {
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
        let fold = ShardedFold::new(std::slice::from_ref(self), filter);
        let mut outputs = fold.analyze(jobs, analysis)?;
        Ok(outputs.pop().expect("one output per source"))
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
        let fold = ShardedFold::new(std::slice::from_ref(self), filter);
        let scratch = &mut DecodeScratch::default();
        let lend = |state: &mut S, i, episode: Episode| step(state, i, &episode);
        let shard = fold.shard(0, scratch, 0..fold.slots(), None, state, lend)?;
        self.verify_count(fold.admitted[0].as_deref(), shard.records)?;
        Ok(shard.state)
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

/// The one sharded fold (see the module doc): the sources' admitted slots
/// as one flat space cut into shards over the workers, so a short session
/// never strands a worker, and each worker keeps one [`DecodeScratch`]
/// across every source it reaches.
pub(crate) struct ShardedFold<'f, 'a> {
    sources: &'f [SessionSource<'a>],
    /// Each source's admitted extent positions, ascending; `None` when the
    /// filter admits every one (the unrestricted fast path shards the
    /// extent table directly instead of materializing an index vector).
    admitted: Vec<Option<Vec<usize>>>,
    /// Source `k`'s first flat slot, and after the last source the total.
    base: Vec<usize>,
}

/// One source's piece of a shard: the consumer's state, the slots of that
/// source it covered, the starts of the first and last episodes it kept
/// (the last is the floor a lenient refold starts from), and their
/// records.
struct FoldedShard<S> {
    state: S,
    range: Range<usize>,
    first: Option<TimeNs>,
    last: Option<TimeNs>,
    records: u64,
}

/// What one shard of flat slots folded: a piece per source it covered,
/// in order, each with its source, the last a failure if one stopped it.
type Cut<S> = Vec<(usize, Result<FoldedShard<S>, TraceError>)>;

impl<'f, 'a> ShardedFold<'f, 'a> {
    /// The fold of the episodes `filter` admits in each of `sources`.
    pub(crate) fn new(sources: &'f [SessionSource<'a>], filter: &EpisodeFilter) -> Self {
        let admitted: Vec<_> = sources
            .iter()
            .map(|source| {
                let admits = |&i: &usize| filter.admits_extent(&source.extents[i]);
                (!filter.is_unrestricted()).then(|| (0..source.len()).filter(admits).collect())
            })
            .collect();
        let mut base = vec![0];
        for (source, admitted) in sources.iter().zip(&admitted) {
            let slots = admitted.as_ref().map_or(source.len(), Vec::len);
            base.push(base[base.len() - 1] + slots);
        }
        ShardedFold {
            sources,
            admitted,
            base,
        }
    }

    /// The number of admitted slots, across every source.
    fn slots(&self) -> usize {
        self.base[self.sources.len()]
    }

    /// Folds `analysis` over every source, each call seeing its source's
    /// [`scope`](SessionSource::scope): one output per source, in order.
    pub(crate) fn analyze<A: Analysis>(
        &self,
        jobs: usize,
        analysis: &A,
    ) -> Result<Vec<A::Output>, TraceError> {
        self.fold(
            jobs,
            |source, _| (source.scope(), analysis.shard(source.scope())),
            |(scope, shard), i, episode| analysis.push(*scope, shard, i, &episode),
            |source, shards| {
                let shards = shards.into_iter().map(|(_, shard)| shard).collect();
                analysis.finish(source.scope(), shards)
            },
        )
    }

    /// Decodes every source into its trace: each piece keeps its episodes
    /// by value, and the merge moves them into the trace.
    pub(crate) fn decode(&self, jobs: usize) -> Result<Vec<SessionTrace>, TraceError> {
        self.fold(
            jobs,
            |_, slots| Vec::with_capacity(slots),
            |run, _, episode| run.push(episode),
            SessionSource::trace_of,
        )
    }

    /// Folds the flat slots over `jobs` workers: each piece starts from
    /// `init` (given its source and its number of slots) and `step` hands
    /// it each episode it keeps; `finish` turns a source's states into its
    /// output. It fails as [`merge`](Self::merge) does.
    fn fold<S: Send, T>(
        &self,
        jobs: usize,
        init: impl Fn(&SessionSource<'a>, usize) -> S + Sync,
        step: impl Fn(&mut S, usize, Episode) + Sync,
        finish: impl FnMut(&SessionSource<'a>, Vec<S>) -> T,
    ) -> Result<Vec<T>, TraceError> {
        let cuts = map_shards_init(
            self.slots(),
            jobs,
            DecodeScratch::default,
            |scratch, slots| self.cut(scratch, slots, &init, &step),
        );
        self.merge(cuts, &init, &step, finish)
    }

    /// [`fold`](Self::fold) over the given flat `shards`, folded in order
    /// on the calling thread: the merge and the lenient refold for any
    /// shard layout, whatever the machine's parallelism. With `one_worker`,
    /// one scratch serves every shard, as when one worker claims them all;
    /// otherwise each shard has its own.
    #[cfg(test)]
    pub(crate) fn fold_split<S, T>(
        &self,
        shards: &[Range<usize>],
        one_worker: bool,
        init: impl Fn(&SessionSource<'a>, usize) -> S,
        step: impl Fn(&mut S, usize, Episode),
        finish: impl FnMut(&SessionSource<'a>, Vec<S>) -> T,
    ) -> Result<Vec<T>, TraceError> {
        let mut scratch = DecodeScratch::default();
        let cuts = shards
            .iter()
            .map(|slots| {
                if one_worker {
                    self.cut(&mut scratch, slots.clone(), &init, &step)
                } else {
                    self.cut(&mut DecodeScratch::default(), slots.clone(), &init, &step)
                }
            })
            .collect();
        drop(scratch);
        self.merge(cuts, &init, &step, finish)
    }

    /// Folds one shard's flat `slots` with the worker's `scratch`, cut at
    /// source boundaries into one piece per source they cover. The shard
    /// stops at its first failure.
    fn cut<S>(
        &self,
        scratch: &mut DecodeScratch<'a>,
        slots: Range<usize>,
        init: &impl Fn(&SessionSource<'a>, usize) -> S,
        step: &impl Fn(&mut S, usize, Episode),
    ) -> Cut<S> {
        let mut cut: Cut<S> = Vec::new();
        let mut slot = slots.start;
        while slot < slots.end && cut.last().map_or(true, |(_, piece)| piece.is_ok()) {
            let k = self.base.partition_point(|&base| base <= slot) - 1;
            let range = slot - self.base[k]..slots.end.min(self.base[k + 1]) - self.base[k];
            slot += range.len();
            let state = init(&self.sources[k], range.len());
            cut.push((k, self.shard(k, scratch, range, None, state, step)));
        }
        cut
    }

    /// Folds source `k`'s slots in `range` into `state`, handing each
    /// decoded episode to `step` by value. Episodes must not start before
    /// the one kept ahead of them, the first before `floor`: a strict
    /// source fails, a lenient one drops them.
    fn shard<S>(
        &self,
        k: usize,
        scratch: &mut DecodeScratch<'a>,
        range: Range<usize>,
        floor: Option<TimeNs>,
        state: S,
        mut step: impl FnMut(&mut S, usize, Episode),
    ) -> Result<FoldedShard<S>, TraceError> {
        let (source, indices) = (&self.sources[k], self.admitted[k].as_deref());
        let mut shard = FoldedShard {
            state,
            range: range.clone(),
            first: None,
            last: floor,
            records: 0,
        };
        for slot in range {
            let i = indices.map_or(slot, |ix| ix[slot]);
            let episode = source.decode_with(i, scratch)?;
            let start = episode.start();
            if let Some(previous) = shard.last.filter(|&last| start < last) {
                if source.lenient {
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

    /// Merges the cuts, given in slot order, source by source into
    /// `finish` (a source no shard reached gets no states); the first
    /// source that fails decides the error. A source fails on the first
    /// failure a shard met in it, else its pieces merge in order once their
    /// records add up: a piece whose first episode starts before the
    /// previous pieces' last is folded again from that floor, as a serial
    /// pass would see it, so a strict source fails on that episode and a
    /// lenient one drops what the serial pass drops. A cut stops at its
    /// failure, so cuts meet failures in source order, and the sources
    /// ahead of the first failure have all their pieces.
    fn merge<S, T>(
        &self,
        cuts: Vec<Cut<S>>,
        init: &impl Fn(&SessionSource<'a>, usize) -> S,
        step: &impl Fn(&mut S, usize, Episode),
        mut finish: impl FnMut(&SessionSource<'a>, Vec<S>) -> T,
    ) -> Result<Vec<T>, TraceError> {
        let mut pieces: Vec<Vec<FoldedShard<S>>> =
            self.sources.iter().map(|_| Vec::new()).collect();
        let mut failure = None;
        for (k, piece) in cuts.into_iter().flatten() {
            match piece {
                Ok(piece) => pieces[k].push(piece),
                Err(e) => failure = failure.or(Some((k, e))),
            }
        }
        let failed = failure.as_ref().map_or(self.sources.len(), |(k, _)| *k);
        let mut outputs = Vec::with_capacity(failed);
        for (k, pieces) in pieces.into_iter().enumerate().take(failed) {
            let source = &self.sources[k];
            let mut states = Vec::with_capacity(pieces.len());
            let (mut floor, mut records) = (None, 0);
            for mut piece in pieces {
                if let (Some(previous), Some(first)) = (floor, piece.first) {
                    if first < previous {
                        let state = init(source, piece.range.len());
                        let scratch = &mut DecodeScratch::default();
                        piece = self.shard(k, scratch, piece.range, Some(previous), state, step)?;
                    }
                }
                floor = piece.last.or(floor);
                records += piece.records;
                states.push(piece.state);
            }
            source.verify_count(self.admitted[k].as_deref(), records)?;
            outputs.push(finish(source, states));
        }
        failure.map_or(Ok(outputs), |(_, e)| Err(e))
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
    pub(crate) struct Ids;

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
        let (inits, mut refolds) = (Cell::new(0), 0);
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
                    let fold = ShardedFold::new(std::slice::from_ref(&source), filter);
                    for layout in 0..8 {
                        inits.set(0);
                        let shards = split(fold.slots(), layout);
                        let init = |_: &_, _| {
                            inits.set(inits.get() + 1);
                            Vec::new()
                        };
                        let decoded = fold
                            .fold_split(
                                &shards,
                                true,
                                init,
                                |run, _, e| run.push(e),
                                |_, runs| runs,
                            )
                            .map(|mut runs| parts(&source.trace_of(runs.remove(0))));
                        if decoded.is_ok() {
                            refolds += inits.get() - shards.len();
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
