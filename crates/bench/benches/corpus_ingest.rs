//! Corpus-wide mining vs N separate file loads.
//!
//! Simulates a fleet of sessions of one application, stores them twice —
//! N individual `.lgz` files, and one packed `.lgzc` corpus — and
//! measures the full pipeline on each storage layout: read the bytes
//! back, decode every session, and mine cross-session patterns through
//! the mergeable multi-pattern path. The mining and episode decoding
//! are byte-identical by construction (asserted before timing); the
//! delta is pure ingest overhead, which the corpus pays once instead of
//! N times: one file open and checksum pass, one symbol-table parse
//! (the corpus stores each string exactly once; per-file storage
//! re-parses and re-interns the same strings N times), one header.
//!
//! Ingest-only timings (load + decode, no mining) are reported next to
//! the end-to-end numbers so the two effects are separable.
//!
//! Results land in `BENCH_corpus.json`; `bench-verify gate` enforces
//! corpus-vs-separate speedup > 1.0 on the committed full-budget run.

use criterion::{criterion_group, Criterion};
use lagalyzer_bench::benchjson;
use lagalyzer_core::parallel::available_jobs;
use lagalyzer_core::prelude::*;
use lagalyzer_core::MultiPatternSet;
use lagalyzer_model::SessionTrace;
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{binary, IndexedTrace};
use std::path::PathBuf;

/// Fleet shape: enough sessions that per-file overhead is the story, and
/// small enough sessions that it is not drowned by episode decoding.
const SESSIONS: u32 = 16;

fn fleet_profile() -> lagalyzer_sim::profile::AppProfile {
    let mut profile = apps::crossword_sage();
    profile.name = "CrosswordSage-fleet".into();
    profile.scale.traced_episodes = 400;
    profile.scale.structured_episodes = 360;
    profile.scale.perceptible_episodes = 14;
    profile
}

/// Simulates the fleet and writes both layouts to a scratch directory.
/// Returns the corpus path and the per-session file paths.
fn store_fleet() -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("lagalyzer-corpus-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = fleet_profile();
    let traces = runner::simulate_corpus(&profile, SESSIONS, 42);
    let mut files = Vec::with_capacity(traces.len());
    let mut opened = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let mut bytes = Vec::new();
        binary::write(trace, &mut bytes).unwrap();
        let path = dir.join(format!("session-{i}.lgz"));
        std::fs::write(&path, &bytes).unwrap();
        files.push(path);
        opened.push(IndexedTrace::open(bytes).unwrap());
    }
    let corpus_path = dir.join("fleet.lgzc");
    std::fs::write(
        &corpus_path,
        corpus::pack(&opened, PackOptions::default()).unwrap(),
    )
    .unwrap();
    (corpus_path, files)
}

/// The per-file pipeline: N reads, N opens, N decodes, one merge-mine.
fn load_separate(files: &[PathBuf], jobs: usize) -> Vec<SessionTrace> {
    files
        .iter()
        .map(|path| {
            IndexedTrace::open(std::fs::read(path).unwrap())
                .unwrap()
                .par_decode(jobs)
                .unwrap()
        })
        .collect()
}

/// The corpus pipeline: one read, one open, one fanned decode.
fn load_corpus(path: &PathBuf, jobs: usize) -> Vec<SessionTrace> {
    CorpusReader::open(std::fs::read(path).unwrap())
        .unwrap()
        .par_decode(jobs)
        .unwrap()
}

fn mine(traces: Vec<SessionTrace>, jobs: usize) -> MultiPatternSet {
    let sessions: Vec<AnalysisSession> = traces
        .into_iter()
        .map(|trace| AnalysisSession::new(trace, AnalysisConfig::default()))
        .collect();
    MultiPatternSet::mine_with_jobs(&sessions, jobs)
}

/// Panics unless both pipelines produce the identical mining result.
fn assert_identical(a: &MultiPatternSet, b: &MultiPatternSet) {
    assert_eq!(a.sessions(), b.sessions());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.patterns().iter().zip(b.patterns()) {
        assert_eq!(x.signature(), y.signature());
        assert_eq!(x.total_episodes(), y.total_episodes());
        assert_eq!(x.total_perceptible(), y.total_perceptible());
        assert_eq!(x.total_lag(), y.total_lag());
    }
}

fn bench_corpus_ingest(c: &mut Criterion) {
    let (corpus_path, files) = store_fleet();
    let jobs = available_jobs();
    assert_identical(
        &mine(load_separate(&files, jobs), jobs),
        &mine(load_corpus(&corpus_path, jobs), jobs),
    );
    let mut group = c.benchmark_group("corpus_ingest");
    group.sample_size(10);
    group.bench_function("separate_files_mine", |b| {
        b.iter(|| mine(load_separate(&files, jobs), jobs));
    });
    group.bench_function("corpus_mine", |b| {
        b.iter(|| mine(load_corpus(&corpus_path, jobs), jobs));
    });
    group.finish();
}

/// Timings for both layouts, written to `BENCH_corpus.json`.
fn emit_corpus_json() {
    let budget = benchjson::budget();
    let (corpus_path, files) = store_fleet();
    let jobs = available_jobs();

    let separate_mined = mine(load_separate(&files, jobs), jobs);
    let corpus_mined = mine(load_corpus(&corpus_path, jobs), jobs);
    assert_identical(&separate_mined, &corpus_mined);
    let episodes: usize = load_corpus(&corpus_path, jobs)
        .iter()
        .map(|t| t.episodes().len())
        .sum();
    let separate_bytes: u64 = files
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    let corpus_bytes = std::fs::metadata(&corpus_path).unwrap().len();

    let separate_load_ns = benchjson::time_best_ns(budget, || load_separate(&files, jobs));
    let corpus_load_ns = benchjson::time_best_ns(budget, || load_corpus(&corpus_path, jobs));
    let separate_ns = benchjson::time_best_ns(budget, || mine(load_separate(&files, jobs), jobs));
    let corpus_ns = benchjson::time_best_ns(budget, || mine(load_corpus(&corpus_path, jobs), jobs));

    eprintln!(
        "corpus ingest: {SESSIONS} sessions, {episodes} episodes\n  \
         load only: separate {separate_load_ns:>12.0} ns, corpus {corpus_load_ns:>12.0} ns \
         ({:.2}x)\n  \
         load+mine: separate {separate_ns:>12.0} ns, corpus {corpus_ns:>12.0} ns ({:.2}x)",
        separate_load_ns / corpus_load_ns,
        separate_ns / corpus_ns,
    );

    let json = format!(
        "{{\n  \"corpus\": \"CrosswordSage-fleet\",\n  \"sessions\": {SESSIONS},\n  \
         \"episodes\": {episodes},\n  \"budget_ms\": {budget_ms},\n  \
         \"available_jobs\": {jobs},\n  \
         \"timing\": \"min over budget, result drop untimed\",\n  \
         \"separate_bytes\": {separate_bytes},\n  \"corpus_bytes\": {corpus_bytes},\n  \
         \"load_only\": {{\n    \
         \"separate_files_ns_per_iter\": {separate_load_ns:.1},\n    \
         \"corpus_ns_per_iter\": {corpus_load_ns:.1},\n    \
         \"speedup\": {load_speedup:.3}\n  }},\n  \
         \"load_and_mine\": {{\n    \
         \"separate_files_ns_per_iter\": {separate_ns:.1},\n    \
         \"corpus_ns_per_iter\": {corpus_ns:.1},\n    \
         \"speedup\": {mine_speedup:.3}\n  }}\n}}",
        budget_ms = budget.as_millis(),
        load_speedup = separate_load_ns / corpus_load_ns,
        mine_speedup = separate_ns / corpus_ns,
    );
    benchjson::record_section_in("BENCH_corpus", "corpus_ingest", &json);
}

criterion_group!(benches, bench_corpus_ingest);

fn main() {
    benches();
    emit_corpus_json();
}
