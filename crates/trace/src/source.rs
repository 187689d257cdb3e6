//! The single decode path: a borrowed view of one opened session.
//!
//! Whether a session lives in a `.lgz` file ([`IndexedTrace`]) or inside
//! a `.lgzc` corpus ([`SessionView`]), decoding it takes the same parts:
//! the header metadata, the extent index, the payload bytes the extent
//! offsets point into, and the session-level records hoisted out of the
//! episode stream (symbol table, GC events, short-episode counters).
//! A [`SessionSource`] borrows exactly those parts, plus the salvaged
//! (lenient) flag and the rollup, and holds the only
//! implementation of filtered, subset and single-episode decode and of
//! assembling decoded fragments into a [`SessionTrace`]. That is what makes
//! a corpus session decode byte-identical to its original file.
//!
//! [`SessionSource::fold`] is the streaming twin of
//! [`SessionSource::decode_filtered`]: the same extents, checks and
//! ordering rule, but each decoded episode is lent to a consumer and
//! dropped instead of being kept in a trace, so an analysis that is a fold
//! over episodes never holds more than one decoded episode per worker.
//! Both fail where [`binary::read`] would: on an episode that does not
//! decode or comes out of order and, when they admit every extent of a
//! footer-indexed `.lgz`, on a record count other than the declared one.
//!
//! [`binary::read`]: crate::binary::read
//!
//! [`IndexedTrace`]: crate::IndexedTrace
//! [`SessionView`]: crate::SessionView

use std::ops::Range;

use lagalyzer_model::parallel::map_shards_init;
use lagalyzer_model::{
    DurationNs, Episode, EpisodeFragment, GcEvent, ModelError, SessionMeta, SessionTrace,
    SessionTraceBuilder, SymbolTable, TimeNs,
};

use crate::error::TraceError;
use crate::index::{decode_extent, DecodeScratch, EpisodeExtent, EpisodeFilter};
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
    /// The bytes the extent offsets index: the whole file for a `.lgz`,
    /// the (decompressed) payload section for a corpus session.
    pub(crate) payload: &'a [u8],
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

    /// Borrows episode `i`'s record bytes zero-copy.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn episode_bytes(&self, i: usize) -> &'a [u8] {
        let e = &self.extents[i];
        &self.payload[e.offset as usize..(e.offset + e.len) as usize]
    }

    /// Randomly accesses episode `i`: strictly decodes just its extent.
    ///
    /// # Errors
    ///
    /// Fails when `i` is out of range or the extent's bytes do not decode
    /// to a well-formed episode.
    pub fn decode_episode(&self, i: usize) -> Result<Episode, TraceError> {
        self.decode_with(i, &mut DecodeScratch::default())
    }

    /// Decodes episode `i` reusing per-worker `scratch`.
    pub(crate) fn decode_with(
        &self,
        i: usize,
        scratch: &mut DecodeScratch,
    ) -> Result<Episode, TraceError> {
        let extent = self.extents.get(i).ok_or_else(|| {
            TraceError::corrupt("episode extent", format!("no episode {i} in the index"))
        })?;
        let span = &self.payload[extent.offset as usize..(extent.offset + extent.len) as usize];
        decode_extent(span, extent, scratch)
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
    /// Propagates the first extent decode failure.
    pub fn decode(&self, jobs: usize) -> Result<SessionTrace, TraceError> {
        self.decode_filtered(jobs, &EpisodeFilter::default())
    }

    /// Decodes the episodes the filter admits, fanning them over `jobs`
    /// workers; excluded episodes' bytes are never parsed. Session-level
    /// state (GC events, short-episode counts) is always preserved.
    ///
    /// Each worker keeps one decode scratch alive across its shard and
    /// fills an ordered `EpisodeFragment`; fragments are merged in shard
    /// order, so the result is identical to the serial reader's for any
    /// job count.
    ///
    /// # Errors
    ///
    /// Propagates the first (in episode order) extent decode failure, then
    /// a record count other than the declared one.
    pub fn decode_filtered(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
    ) -> Result<SessionTrace, TraceError> {
        let indices = self.admitted(filter);
        let slots = indices.as_ref().map_or(self.extents.len(), Vec::len);
        let fragments = map_shards_init(slots, jobs, DecodeScratch::default, |scratch, range| {
            let mut fragment = EpisodeFragment::with_capacity(range.len());
            for slot in range {
                let i = indices.as_ref().map_or(slot, |ix| ix[slot]);
                self.push(&mut fragment, self.decode_with(i, scratch)?)?;
            }
            Ok(fragment)
        })
        .into_iter()
        .collect::<Result<Vec<EpisodeFragment>, TraceError>>()?;
        let trace = self.assemble(fragments)?;
        let records = trace
            .episodes()
            .iter()
            .map(|e| records_of(e.tree().len(), e.samples().len()))
            .sum();
        self.verify_count(indices.as_deref(), records)?;
        Ok(trace)
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

    /// Streams the episodes the filter admits through `step` without
    /// keeping them: each worker decodes an extent into its scratch, lends
    /// the episode to `step` together with its extent position, and drops
    /// it. Every worker folds contiguous ascending shards into states made
    /// by `init`; the states come back in shard order, for the caller to
    /// merge in that order.
    ///
    /// The episodes `step` sees are exactly the ones
    /// [`decode_filtered`](Self::decode_filtered) would keep, in the same
    /// order, for any `jobs`: every extent check is the same, and so is the
    /// ordering rule. A strict session fails on an episode that starts
    /// before the one kept ahead of it; a lenient (salvaged) session drops
    /// it. A shard whose first kept episode starts before the previous
    /// shards' last one is folded again from a fresh state with that
    /// floor, so a strict session fails on it and a lenient one drops the
    /// same episodes a serial pass would.
    ///
    /// # Errors
    ///
    /// Propagates the first failing shard's first decode or ordering
    /// failure, then the first ordering failure between shards, then a
    /// record count other than the declared one, as
    /// [`decode_filtered`](Self::decode_filtered) does.
    pub fn fold<S, I, F>(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
        init: I,
        step: F,
    ) -> Result<Vec<S>, TraceError>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &Episode) + Sync,
    {
        let indices = self.admitted(filter);
        let fold = ShardedFold {
            source: self,
            indices: indices.as_deref(),
        };
        let shards = map_shards_init(
            fold.slots(),
            jobs,
            DecodeScratch::default,
            |scratch, range| fold.shard(scratch, range, None, init(), &step),
        );
        fold.merge(shards, |range, floor| {
            fold.shard(&mut DecodeScratch::default(), range, floor, init(), &step)
        })
    }

    /// [`fold`](Self::fold) on the calling thread, in one pass into one
    /// `state`: for a consumer that must see every episode in order.
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
        let shard = fold.shard(&mut DecodeScratch::default(), range, None, state, &mut step)?;
        self.verify_count(fold.indices, shard.records)?;
        Ok(shard.state)
    }

    /// [`fold`](Self::fold) over the shard ranges `split` cuts the
    /// admitted slots into, folded in order on the calling thread: the
    /// merge and the lenient refold for any shard layout, whatever the
    /// machine's parallelism.
    #[cfg(test)]
    fn fold_split<S, I, F>(
        &self,
        filter: &EpisodeFilter,
        split: impl FnOnce(usize) -> Vec<Range<usize>>,
        init: I,
        step: F,
    ) -> Result<Vec<S>, TraceError>
    where
        I: Fn() -> S,
        F: Fn(&mut S, usize, &Episode),
    {
        let indices = self.admitted(filter);
        let fold = ShardedFold {
            source: self,
            indices: indices.as_deref(),
        };
        let mut scratch = DecodeScratch::default();
        let shards = split(fold.slots())
            .into_iter()
            .map(|range| fold.shard(&mut scratch, range, None, init(), &step))
            .collect();
        fold.merge(shards, |range, floor| {
            fold.shard(&mut scratch, range, floor, init(), &step)
        })
    }

    /// Decodes exactly the extents named by `indices`, in the given order,
    /// never touching any other episode's bytes — the skip-decode path an
    /// analysis uses to revisit a handful of flagged episodes.
    ///
    /// On a lenient (salvaged) session, extents whose bytes no longer
    /// decode are skipped, so the result may be shorter than `indices`.
    ///
    /// # Errors
    ///
    /// On a strict session, propagates the first decode failure
    /// (including out-of-range indices).
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
                    Err(_) if self.lenient => {}
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

    /// Appends a decoded episode to a worker's fragment; a lenient session
    /// drops an out-of-order episode, a strict one fails on it.
    pub(crate) fn push(
        &self,
        fragment: &mut EpisodeFragment,
        episode: Episode,
    ) -> Result<(), TraceError> {
        if self.lenient {
            fragment.push_lenient(episode);
        } else {
            fragment.push(episode)?;
        }
        Ok(())
    }

    /// Assembles decoded fragments (in episode order) and the session-level
    /// records into the finished trace.
    pub(crate) fn assemble(
        &self,
        fragments: Vec<EpisodeFragment>,
    ) -> Result<SessionTrace, TraceError> {
        let mut b = SessionTraceBuilder::new(self.meta.clone(), self.records.symbols.clone());
        b.reserve_episodes(fragments.iter().map(EpisodeFragment::len).sum());
        for fragment in fragments {
            if self.lenient {
                b.append_fragment_lenient(fragment);
            } else {
                b.append_fragment(fragment)?;
            }
        }
        Ok(self.records.finish(b))
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
struct FoldedShard<S> {
    state: S,
    range: Range<usize>,
    first: Option<TimeNs>,
    last: Option<TimeNs>,
    records: u64,
}

impl ShardedFold<'_, '_> {
    /// The number of admitted extents.
    fn slots(&self) -> usize {
        self.indices
            .map_or(self.source.extents.len(), <[usize]>::len)
    }

    /// Folds the slots in `range` into `state`, each decoded episode
    /// dropped after `step`. Episodes must not start before the one kept
    /// ahead of them, the first before `floor`: a strict source fails, a
    /// lenient one drops them.
    fn shard<S>(
        &self,
        scratch: &mut DecodeScratch,
        range: Range<usize>,
        floor: Option<TimeNs>,
        state: S,
        mut step: impl FnMut(&mut S, usize, &Episode),
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
            step(&mut shard.state, i, &episode);
        }
        Ok(shard)
    }

    /// Merges shards folded in slot order: the first failing shard's
    /// error, else their states in order once the episodes kept across
    /// shard boundaries are in order too and their records add up. A shard whose first episode starts before the previous
    /// shards' last is folded again by `refold` from that floor, as a
    /// serial pass would have seen it: a strict source fails on that first
    /// episode, a lenient one drops what the serial pass drops.
    fn merge<S>(
        &self,
        shards: Vec<Result<FoldedShard<S>, TraceError>>,
        mut refold: impl FnMut(Range<usize>, Option<TimeNs>) -> Result<FoldedShard<S>, TraceError>,
    ) -> Result<Vec<S>, TraceError> {
        let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
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
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::binary;
    use crate::IndexedTrace;
    use lagalyzer_model::prelude::*;

    /// A session of `n` episodes of varied lengths, in dispatch order.
    fn trace(n: u32) -> SessionTrace {
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
            at += len + 3;
        }
        b.finish()
    }

    /// Extent orders that put episodes out of dispatch order at, across
    /// and within shard boundaries.
    fn orders(n: usize) -> Vec<Vec<usize>> {
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
    fn split(slots: usize, layout: usize) -> Vec<Range<usize>> {
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

    /// The fold lends exactly the episodes `decode_filtered` keeps, in
    /// order, and fails where it fails with the same error, on strict and
    /// lenient sources whose extents are out of order, for every job
    /// count and with or without a filter. The merge and the lenient
    /// refold are also run over shard layouts cut by hand, whatever the
    /// machine's parallelism: a lenient fold keeps what a serial decode
    /// keeps, and a strict one fails exactly when it does, with an
    /// ordering error (which one depends on the layout, as on `--jobs`).
    #[test]
    fn fold_keeps_what_decode_keeps_under_the_ordering_rule() {
        let n = 40;
        let mut bytes = Vec::new();
        binary::write(&trace(n as u32), &mut bytes).unwrap();
        let indexed = IndexedTrace::open(bytes).unwrap();
        let filters = [
            EpisodeFilter::new(),
            EpisodeFilter::new().min_duration(DurationNs::from_millis(12)),
        ];
        let ids = |t: SessionTrace| t.episodes().iter().map(Episode::id).collect::<Vec<_>>();
        let (inits, shards, mut refolds) = (Cell::new(0), Cell::new(0), 0);
        for order in orders(n) {
            let extents: Vec<EpisodeExtent> = order.iter().map(|&i| indexed.extents()[i]).collect();
            for lenient in [false, true] {
                let mut source = indexed.source();
                source.extents = &extents;
                source.lenient = lenient;
                for filter in &filters {
                    for jobs in 1..=4 {
                        let reference = source.decode_filtered(jobs, filter).map(ids);
                        let folded = source
                            .fold(jobs, filter, Vec::new, |ids, _, e| ids.push(e.id()))
                            .map(|shards| shards.concat());
                        let context = format!("order {order:?} lenient {lenient} jobs {jobs}");
                        match (reference, folded) {
                            (Ok(want), Ok(got)) => assert_eq!(got, want, "{context}"),
                            (Err(want), Err(got)) => {
                                assert_eq!(got.to_string(), want.to_string(), "{context}");
                            }
                            (want, got) => panic!("{context}: {want:?} vs {got:?}"),
                        }
                    }
                    let serial = source.decode_filtered(1, filter).map(ids);
                    for layout in 0..8 {
                        inits.set(0);
                        let folded = source
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
                                |ids, _, e| ids.push(e.id()),
                            )
                            .map(|states| states.concat());
                        let context = format!("order {order:?} lenient {lenient} layout {layout}");
                        match (&serial, folded) {
                            (Ok(want), Ok(got)) => {
                                assert_eq!(&got, want, "{context}");
                                refolds += inits.get() - shards.get();
                            }
                            (Err(_), Err(TraceError::Model(ModelError::EpisodeOrder { .. }))) => {}
                            (want, got) => panic!("{context}: {want:?} vs {got:?}"),
                        }
                    }
                }
            }
        }
        // Some lenient shard started before its predecessors' last episode
        // and was refolded.
        assert!(refolds > 0);
    }
}
