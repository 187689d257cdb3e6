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
//! [`IndexedTrace`]: crate::IndexedTrace
//! [`SessionView`]: crate::SessionView

use lagalyzer_model::parallel::map_shards_init;
use lagalyzer_model::{
    DurationNs, Episode, EpisodeFragment, SessionMeta, SessionTrace, SessionTraceBuilder,
    SymbolTable,
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
    /// Propagates the first (in episode order) extent decode failure.
    pub fn decode_filtered(
        &self,
        jobs: usize,
        filter: &EpisodeFilter,
    ) -> Result<SessionTrace, TraceError> {
        // The unrestricted fast path shards the extent table directly
        // instead of materializing an index vector.
        let indices: Option<Vec<usize>> = (!filter.is_unrestricted()).then(|| {
            (0..self.extents.len())
                .filter(|&i| filter.admits_extent(&self.extents[i]))
                .collect()
        });
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
        self.assemble(fragments)
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
