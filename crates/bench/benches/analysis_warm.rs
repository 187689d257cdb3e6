//! Warm (rollup-backed) vs cold (full decode) single-trace analysis.
//!
//! Serializes one simulated session twice — with and without a persisted
//! rollup section — and measures the complete `analyze` pipeline on
//! each: read the bytes back, open the index, and produce the Table III
//! stats row plus the mined pattern set. The cold path decodes every
//! episode payload; the warm path reconstructs both results from the
//! rollup's episode summaries without touching a single payload. The
//! results are byte-identical by construction (asserted before timing),
//! so the measured delta is exactly what the persisted cache buys.
//!
//! Results land in `BENCH_warm.json`; `bench-verify gate` enforces the
//! warm-over-cold speedup on the committed full-budget run.

use criterion::{criterion_group, Criterion};
use lagalyzer_bench::benchjson;
use lagalyzer_core::parallel::available_jobs;
use lagalyzer_core::prelude::*;
use lagalyzer_core::{OutlierConfig, OutlierReport, PatternSet, SessionStats, WarmSession};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::index::EpisodeFilter;
use lagalyzer_trace::{binary, IndexedTrace};
use std::path::PathBuf;

/// Session shape: enough episodes — with realistically deep sampled
/// stacks and a fast sampler cadence — that payload decoding dominates
/// the cold path, as it does on real day-long traces.
fn profile() -> lagalyzer_sim::profile::AppProfile {
    let mut profile = apps::jedit();
    profile.name = "jEdit-warm".into();
    profile.scale.traced_episodes = 1200;
    profile.scale.structured_episodes = 1080;
    profile.scale.perceptible_episodes = 40;
    profile.scale.tree_size = 40;
    profile.scale.tree_depth = 10;
    profile.sample_period = lagalyzer_model::DurationNs::from_millis(2);
    profile.extra_stack_frames = 24;
    profile
}

/// Simulates the session and stores both encodings in a scratch dir.
/// Returns `(with rollup, without rollup)` paths.
fn store_session() -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lagalyzer-warm-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = runner::simulate_session(&profile(), 0, 42);

    let mut warm_bytes = Vec::new();
    let rollup = lagalyzer_core::rollup::build(&trace);
    binary::write_with_rollup(&trace, &mut warm_bytes, rollup).unwrap();
    let warm_path = dir.join("session-warm.lgz");
    std::fs::write(&warm_path, &warm_bytes).unwrap();

    let mut cold_bytes = Vec::new();
    binary::write(&trace, &mut cold_bytes).unwrap();
    let cold_path = dir.join("session-cold.lgz");
    std::fs::write(&cold_path, &cold_bytes).unwrap();

    (warm_path, cold_path)
}

/// The cold `analyze` pipeline, exactly what the CLI computes: read,
/// open, decode every payload, summarize the session once, then the
/// stats row, mined patterns and outlier report over the summaries.
fn analyze_cold(path: &PathBuf, jobs: usize) -> (SessionStats, PatternSet, String) {
    let trace = IndexedTrace::open(std::fs::read(path).unwrap())
        .unwrap()
        .par_decode(jobs)
        .unwrap();
    let session = AnalysisSession::new(trace, AnalysisConfig::default());
    let summaries = Summaries::of_session(&session);
    let patterns = summaries.mine_patterns_with_jobs(jobs);
    let stats = SessionStats::compute_from(&summaries, &patterns, jobs);
    let config = OutlierConfig::default();
    let outliers = OutlierReport::of_summaries(&summaries, &patterns, &config, jobs, &|_| None)
        .expect("a decoded session needs no re-decode")
        .render_text(session.trace().symbols());
    (stats, patterns, outliers)
}

/// The warm pipeline: read, open, answer from the rollup summaries —
/// only the flagged lock/wait episodes get their payloads decoded.
fn analyze_warm(path: &PathBuf, jobs: usize) -> (SessionStats, PatternSet, String) {
    let indexed = IndexedTrace::open(std::fs::read(path).unwrap()).unwrap();
    let warm = WarmSession::of_indexed(
        &indexed,
        AnalysisConfig::default(),
        &EpisodeFilter::default(),
    )
    .expect("bench trace carries a valid rollup");
    let patterns = warm.mine_patterns_with_jobs(jobs);
    let stats = warm.session_stats_from(&patterns, jobs);
    let decode = |positions: &[usize]| indexed.par_decode_subset(jobs, positions).ok();
    let outliers = warm
        .outliers(&patterns, &OutlierConfig::default(), &decode)
        .expect("warm outliers answer from a valid rollup")
        .render_text(warm.symbols());
    (stats, patterns, outliers)
}

/// Panics unless both pipelines produce the identical analysis.
fn assert_identical(
    a: &(SessionStats, PatternSet, String),
    b: &(SessionStats, PatternSet, String),
) {
    assert_eq!(a.0, b.0, "stats rows diverge");
    assert_eq!(a.1.len(), b.1.len());
    assert_eq!(a.1.structureless_episodes(), b.1.structureless_episodes());
    assert_eq!(a.1.covered_episodes(), b.1.covered_episodes());
    for (x, y) in a.1.patterns().iter().zip(b.1.patterns()) {
        assert_eq!(x.signature(), y.signature());
        assert_eq!(x.episode_indices(), y.episode_indices());
        assert_eq!(x.stats(), y.stats());
        assert_eq!(x.perceptible_count(), y.perceptible_count());
    }
    assert_eq!(a.2, b.2, "outlier reports diverge");
}

fn bench_analysis_warm(c: &mut Criterion) {
    let (warm_path, cold_path) = store_session();
    let jobs = available_jobs();
    assert_identical(
        &analyze_cold(&cold_path, jobs),
        &analyze_warm(&warm_path, jobs),
    );
    let mut group = c.benchmark_group("analysis_warm");
    group.sample_size(10);
    group.bench_function("cold_decode_analyze", |b| {
        b.iter(|| analyze_cold(&cold_path, jobs));
    });
    group.bench_function("warm_rollup_analyze", |b| {
        b.iter(|| analyze_warm(&warm_path, jobs));
    });
    group.finish();
}

/// Timings for both paths, written to `BENCH_warm.json`.
fn emit_warm_json() {
    let budget = benchjson::budget();
    let (warm_path, cold_path) = store_session();
    let jobs = available_jobs();

    let cold_result = analyze_cold(&cold_path, jobs);
    let warm_result = analyze_warm(&warm_path, jobs);
    assert_identical(&cold_result, &warm_result);
    let episodes = cold_result.0.traced_count;
    let cold_bytes = std::fs::metadata(&cold_path).unwrap().len();
    let warm_bytes = std::fs::metadata(&warm_path).unwrap().len();

    let cold_ns = benchjson::time_best_ns(budget, || analyze_cold(&cold_path, jobs));
    let warm_ns = benchjson::time_best_ns(budget, || analyze_warm(&warm_path, jobs));

    eprintln!(
        "warm analysis: {episodes} episodes\n  \
         cold {cold_ns:>12.0} ns, warm {warm_ns:>12.0} ns ({:.2}x)",
        cold_ns / warm_ns,
    );

    let json = format!(
        "{{\n  \"corpus\": \"jEdit-warm\",\n  \"episodes\": {episodes},\n  \
         \"budget_ms\": {budget_ms},\n  \"available_jobs\": {jobs},\n  \
         \"timing\": \"min over budget, result drop untimed\",\n  \
         \"trace_bytes\": {cold_bytes},\n  \"trace_bytes_with_rollup\": {warm_bytes},\n  \
         \"analyze\": {{\n    \
         \"cold_ns_per_iter\": {cold_ns:.1},\n    \
         \"warm_ns_per_iter\": {warm_ns:.1},\n    \
         \"speedup\": {speedup:.3}\n  }}\n}}",
        budget_ms = budget.as_millis(),
        speedup = cold_ns / warm_ns,
    );
    benchjson::record_section_in("BENCH_warm", "analysis_warm", &json);
}

criterion_group!(benches, bench_analysis_warm);

fn main() {
    benches();
    emit_warm_json();
}
