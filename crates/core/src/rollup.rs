//! Building rollups by folding decoded episodes.
//!
//! The `lagalyzer-trace` crate defines the rollup *format* (see its
//! `rollup` module): per-episode summaries plus derived aggregates,
//! persisted as an optional section next to the episode payloads. A
//! [`RollupBuilder`] is the one place those are computed — summaries and
//! their shapes in first-use order (through the [`Summarizer`]), lag
//! breakdowns, band grids and per-shape histograms. It is an [`Analysis`]:
//! it folds episodes one at a time into [`RollupShard`]s, as
//! [`SessionSource::fold`] lends them, and merges the shards in order into
//! the rollup a serial pass would build, for any number of shards.
//!
//! The cold analysis path folds a session into an in-memory rollup and
//! reads it through the constructor the warm path reads a persisted one
//! with (see [`crate::summary::Summaries::of_rollup`]), and `pack` folds
//! the rollups it persists, so warm and cold answers are byte-identical.
//! [`build`] runs the same builder over a decoded trace.
//!
//! [`SessionSource::fold`]: lagalyzer_trace::SessionSource::fold
//!
//! The builder does **not** stamp the content checksum: the writer that
//! persists the rollup computes it over the episode record bytes it
//! actually emits (see `lagalyzer_trace::binary::write_with_rollup` and
//! the corpus packers), which is the only place those bytes are known.

use lagalyzer_model::{
    fold_episodes, Analysis, DurationNs, Episode, EpisodeId, Scope, SessionTrace,
};
use lagalyzer_trace::index::DurationBand;
use lagalyzer_trace::rollup::{
    BandGrid, EpisodeSummary, Rollup, GRID_BANDS, GRID_GRANULARITIES, SHAPE_HIST_BUCKETS,
};

use crate::outliers::{IoClasses, LagBreakdown};
use crate::summary::Summarizer;

/// Computes the full rollup of `trace` (checksum left zero; the persisting
/// writer stamps it).
pub fn build(trace: &SessionTrace) -> Rollup {
    let scope = Scope::of_trace(trace);
    fold_episodes(&RollupBuilder::default(), scope, trace.episodes(), 1).rollup
}

/// Folds one session's decoded episodes into its rollup: the [`Analysis`]
/// whose output is a [`Folded`] rollup. Lag breakdowns resolve I/O
/// classes in the folded session's symbol table, and the grids' time
/// buckets cut its end-to-end span.
#[derive(Clone, Copy, Debug)]
pub struct RollupBuilder {
    breakdowns: bool,
}

/// One shard's share of a rollup fold. Its summaries index the shard's
/// own shape table until the builder's [`Analysis::finish`] merges the
/// shards.
#[derive(Clone, Debug)]
pub struct RollupShard {
    summarizer: Summarizer,
    io: IoClasses,
    summaries: Vec<EpisodeSummary>,
    rows: Vec<Row>,
    shape_histograms: Vec<[u64; SHAPE_HIST_BUCKETS]>,
    grids: Vec<BandGrid>,
}

/// The episode behind one summary of a folded rollup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The episode's trace id.
    pub id: EpisodeId,
    /// The episode's duration.
    pub duration: DurationNs,
    /// Where the episode came from: its extent position in the source,
    /// or its index among the decoded trace's episodes.
    pub position: usize,
}

/// A rollup folded from decoded episodes, with the episode behind each of
/// its summaries.
#[derive(Clone, Debug)]
pub struct Folded {
    /// The rollup (checksum zero).
    pub rollup: Rollup,
    /// One row per summary, in summary order.
    pub rows: Vec<Row>,
}

/// A builder that computes lag breakdowns.
impl Default for RollupBuilder {
    fn default() -> RollupBuilder {
        RollupBuilder { breakdowns: true }
    }
}

impl RollupBuilder {
    /// Whether to compute lag breakdowns (the default). Without them every
    /// breakdown stays zero, for an analysis that reads none (pattern
    /// mining); such a rollup must not be persisted.
    #[must_use]
    pub fn breakdowns(mut self, on: bool) -> RollupBuilder {
        self.breakdowns = on;
        self
    }
}

impl Analysis for RollupBuilder {
    type Shard = RollupShard;
    type Output = Folded;

    fn shard(&self, _: Scope<'_>) -> RollupShard {
        RollupShard {
            summarizer: Summarizer::new(),
            io: IoClasses::default(),
            summaries: Vec::new(),
            rows: Vec::new(),
            shape_histograms: Vec::new(),
            grids: empty_grids(),
        }
    }

    fn push(
        &self,
        session: Scope<'_>,
        shard: &mut RollupShard,
        position: usize,
        episode: &Episode,
    ) {
        let summary = shard.summarizer.summarize(episode);
        let shape = summary.shape as usize;
        if shape == shard.shape_histograms.len() {
            shard.shape_histograms.push([0; SHAPE_HIST_BUCKETS]);
        }
        shard.shape_histograms[shape][Rollup::hist_bucket(summary.duration.as_nanos())] += 1;
        let band = DurationBand::of(summary.duration) as usize;
        let span = session.meta.end_to_end.as_nanos();
        for grid in &mut shard.grids {
            let bucket = Rollup::time_bucket(episode.start().as_nanos(), span, grid.buckets);
            grid.counts[band * grid.buckets as usize + bucket] += 1;
        }
        let breakdown = if self.breakdowns {
            LagBreakdown::of_episode_memo(episode, session.symbols, &mut shard.io).to_array()
        } else {
            [0; 7]
        };
        shard.summaries.push(EpisodeSummary {
            structureless: summary.structureless,
            has_gc: summary.has_gc,
            shape: summary.shape,
            tree_size: summary.tree_size as u64,
            tree_depth: summary.tree_depth,
            breakdown,
        });
        shard.rows.push(Row {
            id: summary.id,
            duration: summary.duration,
            position,
        });
    }

    /// Merges shards, in episode order, into the session's rollup. Each
    /// shard's shapes are re-interned in its own first-use order, which
    /// puts the merged table in first-use order over all the episodes.
    fn finish(&self, session: Scope<'_>, shards: Vec<RollupShard>) -> Folded {
        let mut shards = shards.into_iter();
        let mut acc = shards.next().unwrap_or_else(|| self.shard(session));
        for shard in shards {
            let remap = acc.summarizer.absorb(&shard.summarizer);
            for (local, histogram) in shard.shape_histograms.iter().enumerate() {
                let shape = remap[local] as usize;
                if shape == acc.shape_histograms.len() {
                    acc.shape_histograms.push([0; SHAPE_HIST_BUCKETS]);
                }
                for (sum, count) in acc.shape_histograms[shape].iter_mut().zip(histogram) {
                    *sum += count;
                }
            }
            acc.summaries
                .extend(shard.summaries.into_iter().map(|mut summary| {
                    summary.shape = remap[summary.shape as usize];
                    summary
                }));
            for (sum, grid) in acc.grids.iter_mut().zip(&shard.grids) {
                for (total, count) in sum.counts.iter_mut().zip(&grid.counts) {
                    *total += count;
                }
            }
            acc.rows.extend(shard.rows);
        }
        Folded {
            rollup: Rollup {
                content_checksum: 0,
                shapes: acc.summarizer.into_shapes(),
                summaries: acc.summaries,
                grids: acc.grids,
                shape_histograms: acc.shape_histograms,
            },
            rows: acc.rows,
        }
    }
}

/// Zeroed grids, one per granularity.
fn empty_grids() -> Vec<BandGrid> {
    GRID_GRANULARITIES
        .iter()
        .map(|&buckets| BandGrid {
            buckets,
            counts: vec![0; GRID_BANDS * buckets as usize],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{AnalysisConfig, AnalysisSession};
    use lagalyzer_model::prelude::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn sample_trace() -> SessionTrace {
        let meta = SessionMeta {
            application: "R".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(10),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let mut cursor = 0u64;
        for (i, (name, dur, gc)) in [("a.A", 50u64, false), ("a.A", 150, true), ("", 30, false)]
            .iter()
            .enumerate()
        {
            let mut t = IntervalTreeBuilder::new();
            t.enter(IntervalKind::Dispatch, None, ms(cursor)).unwrap();
            if !name.is_empty() {
                let m = b.symbols_mut().method(name, "run");
                t.enter(IntervalKind::Listener, Some(m), ms(cursor + 1))
                    .unwrap();
                if *gc {
                    t.leaf(IntervalKind::Gc, None, ms(cursor + 2), ms(cursor + 3))
                        .unwrap();
                }
                t.exit(ms(cursor + dur - 1)).unwrap();
            }
            t.exit(ms(cursor + dur)).unwrap();
            b.push_episode(
                EpisodeBuilder::new(EpisodeId::from_raw(i as u32), ThreadId::from_raw(0))
                    .tree(t.finish().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
            cursor += dur + 10;
        }
        b.finish()
    }

    #[test]
    fn summaries_mirror_episodes() {
        let trace = sample_trace();
        let rollup = build(&trace);
        assert_eq!(rollup.summaries.len(), 3);
        // The two a.A episodes share a shape (GC excluded from it); the
        // bare dispatch has its own.
        assert_eq!(rollup.shapes.len(), 2);
        assert_eq!(rollup.summaries[0].shape, rollup.summaries[1].shape);
        assert!(rollup.summaries[1].has_gc);
        assert!(!rollup.summaries[0].has_gc);
        assert!(rollup.summaries[2].structureless);
        assert_eq!(rollup.shape_histograms.len(), rollup.shapes.len());
        assert_eq!(rollup.grids.len(), GRID_GRANULARITIES.len());
    }

    #[test]
    fn grids_count_every_episode() {
        let trace = sample_trace();
        let rollup = build(&trace);
        for grid in &rollup.grids {
            let total: u64 = grid.counts.iter().sum();
            assert_eq!(total, 3);
        }
    }

    #[test]
    fn summary_metrics_match_cold_scan() {
        let trace = sample_trace();
        let rollup = build(&trace);
        let session = AnalysisSession::new(trace, AnalysisConfig::default());
        for (summary, episode) in rollup.summaries.iter().zip(session.episodes()) {
            let tree = episode.tree();
            assert_eq!(
                summary.tree_size as usize,
                tree.descendant_count(tree.root())
            );
            assert_eq!(summary.tree_depth, tree.max_depth());
            let breakdown = LagBreakdown::of_episode(episode, session.trace().symbols());
            assert_eq!(summary.breakdown, breakdown.to_array());
        }
    }
}
