//! Extend LagAlyzer with a custom analysis via the `Analysis` trait —
//! the paper's §II-A promises exactly this extension point.
//!
//! The example implements a "GC blame" analysis: for each pattern, how
//! often do its episodes contain a garbage collection? Because GC nodes
//! are excluded from pattern signatures, a pattern that *always* collects
//! points at the allocation behaviour of that code path (paper §II-D).
//!
//! The analysis is a fold, like every built-in one: it tallies each
//! episode of a `.lgz` trace as the trace decodes on every core, keeps no
//! episode, and merges the per-shard tallies.
//!
//! Run with: `cargo run --release --example custom_analysis`

use std::collections::BTreeMap;

use lagalyzer::core::analysis::{Analysis, Scope};
use lagalyzer::core::prelude::*;
use lagalyzer::model::{Episode, IntervalKind};
use lagalyzer::sim::{apps, runner};
use lagalyzer::trace::{binary, EpisodeFilter, IndexedTrace};

/// Per-pattern GC prevalence.
struct GcBlame;

/// One finding: a pattern and how many of its episodes collected.
#[derive(Debug)]
struct GcFinding {
    signature: String,
    episodes: u64,
    with_gc: u64,
}

/// Episodes, and those that collected, per pattern signature.
type Tally = BTreeMap<ShapeSignature, (u64, u64)>;

impl Analysis for GcBlame {
    type Shard = Tally;
    type Output = Vec<GcFinding>;

    fn shard(&self, _: Scope<'_>) -> Tally {
        Tally::new()
    }

    fn push(&self, session: Scope<'_>, tally: &mut Tally, _: usize, episode: &Episode) {
        // A bare dispatch has no structure, so it is in no pattern.
        if episode.is_structureless() {
            return;
        }
        let signature = ShapeSignature::of_tree(episode.tree(), session.symbols);
        let (episodes, with_gc) = tally.entry(signature).or_default();
        *episodes += 1;
        *with_gc += u64::from(episode.tree().contains_kind(IntervalKind::Gc));
    }

    fn finish(&self, _: Scope<'_>, shards: Vec<Tally>) -> Vec<GcFinding> {
        let mut merged = Tally::new();
        for (signature, (episodes, with_gc)) in shards.into_iter().flatten() {
            let total = merged.entry(signature).or_default();
            total.0 += episodes;
            total.1 += with_gc;
        }
        let mut findings: Vec<GcFinding> = merged
            .into_iter()
            .filter(|(_, (_, with_gc))| *with_gc > 0)
            .map(|(signature, (episodes, with_gc))| GcFinding {
                signature: signature.as_str().to_owned(),
                episodes,
                with_gc,
            })
            .collect();
        findings.sort_by_key(|f| std::cmp::Reverse(f.with_gc));
        findings
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ArgoUML: the paper finds minor collections spread across many
    // patterns (high allocation rate).
    let trace = runner::simulate_session(&apps::argo_uml(), 0, 42);
    let mut lgz = Vec::new();
    binary::write(&trace, &mut lgz)?;
    let indexed = IndexedTrace::open(lgz)?;
    let all = EpisodeFilter::default();
    let findings = indexed.source().fold(available_jobs(), &all, &GcBlame)?;
    println!(
        "analysis \"gc-blame\": {} patterns contain GC",
        findings.len()
    );
    for f in findings.iter().take(8) {
        let pct = f.with_gc as f64 / f.episodes as f64 * 100.0;
        let sig: String = f.signature.chars().take(58).collect();
        println!("  {:>4}/{:<4} ({pct:>5.1}%)  {sig}", f.with_gc, f.episodes);
    }
    Ok(())
}
