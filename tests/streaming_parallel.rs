//! End-to-end streaming + parallel mining: episodes are decoded chunk by
//! chunk from an indexed binary trace and summarized, and their summaries
//! are handed to accumulation workers while the rest of the trace is still
//! being decoded. The merged result must be byte-identical to the
//! in-memory serial analysis.

use std::sync::mpsc;

use lagalyzer::core::patterns::PatternTable;
use lagalyzer::core::prelude::*;
use lagalyzer::core::summary::Summarizer;
use lagalyzer::sim::{apps, runner};
use lagalyzer::trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer::trace::{binary, IndexedTrace};

#[test]
fn streamed_shards_match_in_memory_mining() {
    let trace = runner::simulate_session(&apps::crossword_sage(), 0, 7);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();

    // The serial reference: decode everything, then mine.
    let session = AnalysisSession::new(trace, AnalysisConfig::default());
    let reference = session.mine_patterns();
    let threshold = AnalysisConfig::default().perceptible_threshold;

    // The streaming pipeline: the main thread decodes and summarizes
    // episodes chunk by chunk through the extent index (one summarizer, so
    // every summary indexes the same shape table) and ships each chunk of
    // summaries to an accumulation worker as soon as it is assembled;
    // workers mine concurrently with the decode. Chunk results arrive in
    // completion order — tables merge by shape index in any order, so
    // that is fine.
    const CHUNK: usize = 128;
    const WORKERS: usize = 3;
    let indexed = IndexedTrace::open(bytes).unwrap();
    let mut summarizer = Summarizer::new();
    let (chunk_tx, chunk_rx) = mpsc::channel::<(usize, Vec<Summary>)>();
    let chunk_rx = std::sync::Mutex::new(chunk_rx);
    let (table_tx, table_rx) = mpsc::channel::<PatternTable>();
    let merged = std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let chunk_rx = &chunk_rx;
            let table_tx = table_tx.clone();
            scope.spawn(move || loop {
                let msg = chunk_rx.lock().unwrap().recv();
                let Ok((base, summaries)) = msg else { break };
                let mut table = PatternTable::new();
                table.accumulate(&summaries, base, threshold);
                table_tx.send(table).unwrap();
            });
        }
        drop(table_tx);

        let mut sent = 0usize;
        let positions: Vec<usize> = (0..indexed.len()).collect();
        for (k, slots) in positions.chunks(CHUNK).enumerate() {
            let episodes = indexed.par_decode_subset(1, slots).unwrap();
            let chunk = episodes.iter().map(|e| summarizer.summarize(e)).collect();
            chunk_tx.send((k * CHUNK, chunk)).unwrap();
            sent += 1;
        }
        drop(chunk_tx);
        assert!(sent > 3, "expected several chunks, got {sent}");

        let mut merged = PatternTable::new();
        for table in table_rx {
            merged.merge(table);
        }
        merged
    });

    let streamed = merged.into_pattern_set(&summarizer.into_shapes(), indexed.symbols());
    assert_eq!(streamed.len(), reference.len());
    assert_eq!(streamed.covered_episodes(), reference.covered_episodes());
    assert_eq!(
        streamed.structureless_episodes(),
        reference.structureless_episodes()
    );
    for (a, b) in streamed.patterns().iter().zip(reference.patterns()) {
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.episode_indices(), b.episode_indices());
        assert_eq!(a.stats().total, b.stats().total);
        assert_eq!(a.perceptible_count(), b.perceptible_count());
    }
}

/// The session-level records (symbols, GC events, short-episode
/// counters) come out of the strict open, the salvage open and a corpus
/// member exactly as the serial reference decodes them.
#[test]
fn session_records_match_bulk_metadata() {
    let trace = runner::simulate_session(&apps::jedit(), 1, 13);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();
    let serial = binary::read(bytes.as_slice()).unwrap();
    assert!(serial.short_episode_count() > 0 && !serial.gc_events().is_empty());

    let strict = IndexedTrace::open(bytes.clone()).unwrap();
    let salvaged = IndexedTrace::open_salvage(bytes).unwrap();
    let packed = corpus::pack(std::slice::from_ref(&strict), PackOptions::default()).unwrap();
    let reader = CorpusReader::open(packed).unwrap();
    let sources = [
        strict.source(),
        salvaged.source(),
        reader.session(0).source(),
    ];
    for source in sources {
        assert_eq!(source.len(), serial.episodes().len());
        assert_eq!(source.short_episode_count(), serial.short_episode_count());
        assert_eq!(source.short_episode_time(), serial.short_episode_time());
        let names: Vec<&str> = source.symbols().iter().map(|(_, name)| name).collect();
        let expected: Vec<&str> = serial.symbols().iter().map(|(_, name)| name).collect();
        assert_eq!(names, expected);
        let decoded = source.decode(2).unwrap();
        assert_eq!(decoded.gc_events(), serial.gc_events());
        assert_eq!(decoded.episodes(), serial.episodes());
    }
    assert_eq!(strict.gc_events(), serial.gc_events());
}
