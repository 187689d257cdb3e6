//! Serial vs sharded lock-graph construction over one simulated session.
//!
//! The hazard analyzer's hot loop is the [`LockGraphs`] fold: every
//! episode's blocked/waiting samples are lifted into contended waits and
//! merged into the session-wide graph. This bench measures the serial
//! fold against the sharded one (episodes fanned over `available_jobs()`
//! workers, shard graphs merged in order) on a session big enough that
//! wait extraction dominates. The two graphs are asserted equal before
//! timing, so the measured delta is pure scheduling.
//!
//! Results land in `BENCH_hazards.json`; `bench-verify check` validates
//! the structure (no performance gate — merge cost makes the speedup
//! hardware-dependent, unlike decode scaling).

use criterion::{criterion_group, Criterion};
use lagalyzer_bench::benchjson;
use lagalyzer_core::parallel::available_jobs;
use lagalyzer_model::{fold_episodes, LockGraph, LockGraphs, Scope, SessionTrace};
use lagalyzer_sim::{apps, runner};

/// `trace`'s lock graph, folded over `jobs` workers.
fn build(trace: &SessionTrace, jobs: usize) -> LockGraph {
    fold_episodes(&LockGraphs, Scope::of_trace(trace), trace.episodes(), jobs).0
}

/// Session shape: jEdit's profile scaled up, with a fast sampler so the
/// contended episodes carry realistically many blocked samples.
fn session() -> SessionTrace {
    let mut profile = apps::jedit();
    profile.name = "jEdit-hazards".into();
    profile.scale.traced_episodes = 1200;
    profile.scale.structured_episodes = 1080;
    profile.scale.perceptible_episodes = 40;
    profile.scale.tree_size = 40;
    profile.scale.tree_depth = 10;
    profile.sample_period = lagalyzer_model::DurationNs::from_millis(2);
    profile.extra_stack_frames = 24;
    runner::simulate_session(&profile, 0, 42)
}

fn bench_hazard_scan(c: &mut Criterion) {
    let trace = session();
    let jobs = available_jobs();
    assert_eq!(
        build(&trace, 1),
        build(&trace, jobs),
        "sharded lock-graph construction must be order-identical"
    );
    let mut group = c.benchmark_group("hazard_scan");
    group.sample_size(10);
    group.bench_function("lockgraph_build_serial", |b| {
        b.iter(|| build(&trace, 1));
    });
    group.bench_function("lockgraph_build_sharded", |b| {
        b.iter(|| build(&trace, jobs));
    });
    group.finish();
}

/// Timings for both schedules, written to `BENCH_hazards.json`.
fn emit_hazards_json() {
    let budget = benchjson::budget();
    let trace = session();
    let jobs = available_jobs();

    let graph = build(&trace, jobs);
    assert_eq!(graph, build(&trace, 1));
    let episodes = trace.episodes().len();
    let waits = graph.waits().len();
    let locks = graph.lock_count();
    let held_edges = graph.edge_count();

    let serial_ns = benchjson::time_best_ns(budget, || build(&trace, 1));
    let sharded_ns = benchjson::time_best_ns(budget, || build(&trace, jobs));

    eprintln!(
        "hazard scan: {episodes} episodes, {waits} waits, {locks} locks\n  \
         serial {serial_ns:>12.0} ns, sharded {sharded_ns:>12.0} ns ({:.2}x)",
        serial_ns / sharded_ns,
    );

    let json = format!(
        "{{\n  \"corpus\": \"jEdit-hazards\",\n  \"episodes\": {episodes},\n  \
         \"budget_ms\": {budget_ms},\n  \"available_jobs\": {jobs},\n  \
         \"timing\": \"min over budget, result drop untimed\",\n  \
         \"waits\": {waits},\n  \"locks\": {locks},\n  \"held_edges\": {held_edges},\n  \
         \"build\": {{\n    \
         \"serial_ns_per_iter\": {serial_ns:.1},\n    \
         \"sharded_ns_per_iter\": {sharded_ns:.1},\n    \
         \"speedup\": {speedup:.3}\n  }}\n}}",
        budget_ms = budget.as_millis(),
        speedup = serial_ns / sharded_ns,
    );
    benchjson::record_section_in("BENCH_hazards", "hazard_scan", &json);
}

criterion_group!(benches, bench_hazard_scan);

fn main() {
    benches();
    emit_hazards_json();
}
