//! Pattern-mining scalability over session size, plus the before/after
//! gate for the hash-consed mining hot path.
//!
//! Besides the criterion-style timings printed to stdout, this bench
//! measures [`PatternSet::mine_reference`] (the string-keyed baseline)
//! against [`AnalysisSession::mine_patterns`] (summarize, then mine by
//! shape index) over the whole simulated Table II corpus, serial, and
//! records both in
//! `BENCH_mining.json` (see `lagalyzer_bench::benchjson`).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use lagalyzer_bench::benchjson;
use lagalyzer_core::prelude::*;
use lagalyzer_sim::{apps, runner};

fn bench_mining_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mine_patterns_by_app");
    group.sample_size(15);
    // Small, medium, large episode populations.
    for profile in [apps::crossword_sage(), apps::jmol(), apps::euclide()] {
        let session = AnalysisSession::new(
            runner::simulate_session(&profile, 0, lagalyzer_bench::SEED),
            AnalysisConfig::default(),
        );
        group.throughput(Throughput::Elements(session.episodes().len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!(
                "{}_{}eps",
                profile.name,
                session.episodes().len()
            )),
            &session,
            |b, s| b.iter(|| s.mine_patterns()),
        );
    }
    group.finish();
}

fn bench_reference_mining(c: &mut Criterion) {
    // The string-keyed baseline on the mid-sized app, for a side-by-side
    // with mine_patterns_by_app/Jmol in the printed output.
    let session = AnalysisSession::new(
        runner::simulate_session(&apps::jmol(), 0, lagalyzer_bench::SEED),
        AnalysisConfig::default(),
    );
    let mut group = c.benchmark_group("mine_patterns_reference");
    group.sample_size(15);
    group.throughput(Throughput::Elements(session.episodes().len() as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("Jmol_{}eps", session.episodes().len())),
        &session,
        |b, s| b.iter(|| PatternSet::mine_reference(s)),
    );
    group.finish();
}

fn bench_signature(c: &mut Criterion) {
    let session = AnalysisSession::new(
        runner::simulate_session(&apps::gantt_project(), 0, lagalyzer_bench::SEED),
        AnalysisConfig::default(),
    );
    let symbols = session.trace().symbols();
    // Deep GanttProject trees are the worst case for signatures.
    let deepest = session
        .episodes()
        .iter()
        .max_by_key(|e| e.tree().len())
        .expect("episodes exist");
    c.bench_function("shape_signature_deep_tree", |b| {
        b.iter(|| ShapeSignature::of_tree(deepest.tree(), symbols));
    });
    let mut scratch = Vec::new();
    c.bench_function("shape_tokens_deep_tree", |b| {
        b.iter(|| {
            scratch.clear();
            lagalyzer_core::shape::write_shape_tokens(deepest.tree(), &mut scratch)
        });
    });
}

/// Serial before (string-keyed reference) vs after (summarized) over
/// every Table II application, written to `BENCH_mining.json`.
fn emit_mining_json() {
    let budget = benchjson::budget();
    let mut rows = String::new();
    let mut total_episodes = 0u64;
    let mut total_before_ns = 0.0f64;
    let mut total_after_ns = 0.0f64;
    for profile in apps::standard_suite() {
        let session = AnalysisSession::new(
            runner::simulate_session(&profile, 0, lagalyzer_bench::SEED),
            AnalysisConfig::default(),
        );
        let episodes = session.episodes().len() as u64;
        let before = benchjson::time_mean_ns(budget, || PatternSet::mine_reference(&session));
        let after = benchjson::time_mean_ns(budget, || session.mine_patterns());
        eprintln!(
            "{:<16} {:>6} eps  before {:>12.0} ns  after {:>12.0} ns  speedup {:>5.2}x",
            profile.name,
            episodes,
            before,
            after,
            before / after
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"app\": \"{}\", \"episodes\": {episodes}, \
             \"before_ns_per_iter\": {before:.1}, \"after_ns_per_iter\": {after:.1}, \
             \"speedup\": {:.3}}}",
            benchjson::escape(&profile.name),
            before / after
        ));
        total_episodes += episodes;
        total_before_ns += before;
        total_after_ns += after;
    }
    let json = format!(
        "{{\n  \"corpus\": \"table2_standard_suite\",\n  \"seed\": {seed},\n  \
         \"mode\": \"serial\",\n  \"budget_ms\": {budget_ms},\n  \"apps\": [\n{rows}\n  ],\n  \
         \"total\": {{\"episodes\": {total_episodes}, \
         \"before_ns_per_corpus\": {total_before_ns:.1}, \
         \"after_ns_per_corpus\": {total_after_ns:.1}, \
         \"speedup\": {speedup:.3}}}\n}}",
        seed = lagalyzer_bench::SEED,
        budget_ms = budget.as_millis(),
        speedup = total_before_ns / total_after_ns,
    );
    benchjson::record_section("pattern_mining", &json);
    eprintln!(
        "corpus speedup (serial, string-keyed -> hash-consed): {:.2}x",
        total_before_ns / total_after_ns
    );
}

criterion_group!(
    benches,
    bench_mining_scaling,
    bench_reference_mining,
    bench_signature
);

fn main() {
    benches();
    emit_mining_json();
}
