//! Building persisted rollups from decoded traces.
//!
//! The `lagalyzer-trace` crate defines the rollup *format* (see its
//! `rollup` module): per-episode summaries plus derived aggregates,
//! persisted as an optional section next to the episode payloads. This
//! module computes those summaries from a decoded [`SessionTrace`] with
//! the [`Summarizer`] the cold analysis path runs on decoded sessions —
//! shape tokens deduplicated in first-use order, tree metrics, flags —
//! plus [`LagBreakdown::of_episode`] for the per-category decomposition,
//! so a warm analysis reconstructed from the rollup is byte-identical to a
//! cold decode-and-analyze pass over the same bytes.
//!
//! The builder does **not** stamp the content checksum: the writer that
//! persists the rollup computes it over the episode record bytes it
//! actually emits (see `lagalyzer_trace::binary::write_with_rollup` and
//! the corpus packers), which is the only place those bytes are known.

use lagalyzer_model::SessionTrace;
use lagalyzer_trace::index::DurationBand;
use lagalyzer_trace::rollup::{
    BandGrid, EpisodeSummary, Rollup, GRID_BANDS, GRID_GRANULARITIES, SHAPE_HIST_BUCKETS,
};

use crate::outliers::LagBreakdown;
use crate::summary::Summarizer;

/// Computes the full rollup of `trace` (checksum left zero; the persisting
/// writer stamps it).
pub fn build(trace: &SessionTrace) -> Rollup {
    let symbols = trace.symbols();
    let span = trace.meta().end_to_end.as_nanos();
    let mut summarizer = Summarizer::new();
    let mut summaries = Vec::with_capacity(trace.episodes().len());
    let mut shape_histograms: Vec<[u64; SHAPE_HIST_BUCKETS]> = Vec::new();
    let mut grids: Vec<BandGrid> = GRID_GRANULARITIES
        .iter()
        .map(|&buckets| BandGrid {
            buckets,
            counts: vec![0; GRID_BANDS * buckets as usize],
        })
        .collect();
    for episode in trace.episodes() {
        let summary = summarizer.summarize(episode);
        let shape = summary.shape as usize;
        if shape == shape_histograms.len() {
            shape_histograms.push([0; SHAPE_HIST_BUCKETS]);
        }
        shape_histograms[shape][Rollup::hist_bucket(summary.duration.as_nanos())] += 1;
        let band = DurationBand::of(summary.duration) as usize;
        for grid in &mut grids {
            let bucket = Rollup::time_bucket(episode.start().as_nanos(), span, grid.buckets);
            grid.counts[band * grid.buckets as usize + bucket] += 1;
        }
        summaries.push(EpisodeSummary {
            structureless: summary.structureless,
            has_gc: summary.has_gc,
            shape: summary.shape,
            tree_size: summary.tree_size as u64,
            tree_depth: summary.tree_depth,
            breakdown: LagBreakdown::of_episode(episode, symbols).to_array(),
        });
    }
    Rollup {
        content_checksum: 0,
        shapes: summarizer.into_shapes(),
        summaries,
        grids,
        shape_histograms,
    }
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
