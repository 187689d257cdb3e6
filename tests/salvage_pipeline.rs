//! Salvage-while-mining: a damaged trace is recovered by the lenient
//! decoder and mined through the parallel pipeline. Sharded mining over
//! the salvaged session, and chunked accumulation of summaries of the
//! extents a salvage open rebuilt, must both match the serial reference
//! exactly — and every result must carry the salvaged provenance flag.

use lagalyzer::core::patterns::{PatternSet, PatternTable};
use lagalyzer::core::prelude::*;
use lagalyzer::core::summary::Summarizer;
use lagalyzer::sim::{apps, runner};
use lagalyzer::trace::{binary, read_bytes_salvage, IndexedTrace};

/// Encodes a simulated session and truncates it mid-record so strict
/// decoding fails but most episodes survive salvage.
fn damaged_trace_bytes() -> Vec<u8> {
    let trace = runner::simulate_session(&apps::crossword_sage(), 0, 21);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();
    bytes.truncate(bytes.len() * 4 / 5);
    bytes
}

fn assert_sets_identical(a: &PatternSet, b: &PatternSet) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.covered_episodes(), b.covered_episodes());
    assert_eq!(a.structureless_episodes(), b.structureless_episodes());
    assert_eq!(a.salvaged(), b.salvaged());
    for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
        assert_eq!(pa.signature(), pb.signature());
        assert_eq!(pa.episode_indices(), pb.episode_indices());
        assert_eq!(pa.stats(), pb.stats());
        assert_eq!(pa.perceptible_count(), pb.perceptible_count());
    }
}

#[test]
fn parallel_mining_over_salvaged_session_matches_serial() {
    let bytes = damaged_trace_bytes();
    let salvaged = read_bytes_salvage(&bytes).expect("truncated trace salvages");
    assert!(!salvaged.report.is_clean(), "truncation must be reported");
    assert!(salvaged.report.episodes_recovered > 100);

    let session = AnalysisSession::with_provenance(
        salvaged.trace,
        AnalysisConfig::default(),
        Provenance::Salvaged {
            skips: salvaged.report.skips.len() as u64,
            episodes_lost: salvaged.report.episodes_lost,
        },
    );
    let serial = session.mine_patterns();
    assert!(serial.salvaged(), "provenance must reach the pattern set");
    for jobs in [2usize, 4, 8] {
        assert_sets_identical(&serial, &session.mine_patterns_with_jobs(jobs));
    }
}

#[test]
fn chunked_mining_over_salvaged_extents_matches_serial() {
    let bytes = damaged_trace_bytes();

    // Serial reference: bulk salvage, then mine.
    let salvaged = read_bytes_salvage(&bytes).unwrap();
    let session = AnalysisSession::with_provenance(
        salvaged.trace,
        AnalysisConfig::default(),
        Provenance::Salvaged {
            skips: salvaged.report.skips.len() as u64,
            episodes_lost: salvaged.report.episodes_lost,
        },
    );
    let reference = session.mine_patterns();
    let threshold = AnalysisConfig::default().perceptible_threshold;

    // Chunked: open leniently, then decode the rebuilt extents 64 at a
    // time and summarize them (one summarizer, so every chunk indexes the
    // same shape table), then accumulate the chunks. The salvage scan
    // collects every symbol definition before the open returns, so the
    // opened table resolves every chunk's signatures.
    let indexed = IndexedTrace::open_salvage(bytes).unwrap();
    assert!(!indexed.salvage_report().unwrap().is_clean());
    let mut summarizer = Summarizer::new();
    let positions: Vec<usize> = (0..indexed.len()).collect();
    let chunks: Vec<(usize, Vec<Summary>)> = positions
        .chunks(64)
        .map(|slots| {
            let episodes = indexed.par_decode_subset(1, slots).unwrap();
            assert_eq!(episodes.len(), slots.len());
            let summaries = episodes.iter().map(|e| summarizer.summarize(e)).collect();
            (slots[0], summaries)
        })
        .collect();
    assert!(chunks.len() > 2, "expected several chunks");
    let symbols = indexed.symbols();

    let mut merged = PatternTable::new();
    merged.mark_salvaged();
    // Merge in reverse chunk order to exercise order-independence.
    for (start, summaries) in chunks.iter().rev() {
        let mut table = PatternTable::new();
        table.accumulate(summaries, *start, threshold);
        merged.merge(table);
    }
    let streamed = merged.into_pattern_set(&summarizer.into_shapes(), symbols);
    assert_sets_identical(&reference, &streamed);
}
