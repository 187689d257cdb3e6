//! End-to-end streaming + parallel mining: episodes are decoded and
//! summarized incrementally from the binary codec, and their summaries are
//! handed to accumulation workers while the reader is still consuming the
//! byte stream. The merged result must be byte-identical to the in-memory
//! serial analysis.

use std::sync::mpsc;

use lagalyzer::core::patterns::PatternTable;
use lagalyzer::core::prelude::*;
use lagalyzer::core::summary::Summarizer;
use lagalyzer::sim::{apps, runner};
use lagalyzer::trace::{binary, EpisodeStream};

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
    // episodes chunk by chunk (one summarizer, so every summary indexes the
    // same shape table) and ships each chunk of summaries to an
    // accumulation worker as soon as it is assembled; workers mine
    // concurrently with the decode. Chunk results arrive in completion
    // order — tables merge by shape index in any order, so that is fine.
    const CHUNK: usize = 128;
    const WORKERS: usize = 3;
    let mut stream = EpisodeStream::new(bytes.as_slice()).unwrap();
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

        let mut chunk = Vec::new();
        let mut base = 0;
        let mut sent = 0usize;
        for episode in &mut stream {
            chunk.push(summarizer.summarize(&episode.unwrap()));
            if chunk.len() == CHUNK {
                let full = std::mem::take(&mut chunk);
                base += full.len();
                chunk_tx.send((base - full.len(), full)).unwrap();
                sent += 1;
            }
        }
        if !chunk.is_empty() {
            chunk_tx.send((base, chunk)).unwrap();
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

    let symbols = stream.symbols().clone();
    let streamed = merged.into_pattern_set(&summarizer.into_shapes(), &symbols);
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

#[test]
fn stream_tail_matches_bulk_metadata() {
    let trace = runner::simulate_session(&apps::jedit(), 1, 13);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();

    let mut stream = EpisodeStream::new(bytes.as_slice()).unwrap();
    let mut count = 0usize;
    while stream.next_episode().unwrap().is_some() {
        count += 1;
    }
    let tail = stream.finish().unwrap();
    assert_eq!(count, trace.episodes().len());
    assert_eq!(tail.short_episode_count, trace.short_episode_count());
    assert_eq!(tail.gc_events.len(), trace.gc_events().len());
    assert_eq!(tail.symbols.len(), trace.symbols().len());
}
