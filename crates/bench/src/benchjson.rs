//! Machine-readable bench output: `BENCH_mining.json`, `BENCH_ingest.json`.
//!
//! The vendored criterion stand-in prints human-readable timings only, so
//! the benches record their before/after measurements here as hand-rolled
//! JSON (no serde in the tree). Each bench binary contributes one
//! top-level *section* of one output file; sections are staged as
//! fragment files under `target/experiments/bench-sections/<file>/` and
//! the combined `<file>.json` is regenerated from all of its staged
//! fragments on every [`record_section_in`] call, so the benches feeding
//! one file can run in any order (or alone) and the combined file stays
//! consistent. `BENCH_MINING_JSON` / `BENCH_INGEST_JSON` (the file stem
//! upper-cased plus `_JSON`) move a combined file elsewhere.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `target/experiments` under the *workspace* root.
///
/// Cargo runs benches with the package directory as the working
/// directory (unlike `cargo run`), so a relative `target/experiments`
/// would land in `crates/bench/target/`. Anchor on this crate's manifest
/// dir instead so the artifact always sits next to the experiment
/// binaries' output, wherever the bench is invoked from.
fn workspace_experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Where the combined JSON for `stem` (e.g. `BENCH_mining`) lands; the
/// environment variable `<STEM>_JSON` (upper-cased) overrides.
pub fn output_path_for(stem: &str) -> PathBuf {
    let env_key = format!("{}_JSON", stem.to_uppercase());
    std::env::var_os(&env_key).map_or_else(
        || workspace_experiments_dir().join(format!("{stem}.json")),
        PathBuf::from,
    )
}

fn sections_dir(stem: &str) -> PathBuf {
    let dir = workspace_experiments_dir()
        .join("bench-sections")
        .join(stem);
    fs::create_dir_all(&dir).expect("can create bench-sections dir");
    dir
}

/// Stages `json` (a complete JSON value) as section `key` of the combined
/// file `<stem>.json` and rewrites that file from every staged section.
pub fn record_section_in(stem: &str, key: &str, json: &str) {
    assert!(
        key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
        "section keys are identifiers"
    );
    fs::write(sections_dir(stem).join(format!("{key}.json")), json).expect("write bench section");

    let mut sections: Vec<(String, String)> = fs::read_dir(sections_dir(stem))
        .expect("read bench-sections dir")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_stem()?.to_str()?.to_owned();
            (path.extension()? == "json").then(|| (name, fs::read_to_string(&path).ok()))
        })
        .filter_map(|(name, body)| Some((name, body?)))
        .collect();
    sections.sort();

    let mut combined = String::from("{\n");
    for (i, (name, body)) in sections.iter().enumerate() {
        if i > 0 {
            combined.push_str(",\n");
        }
        combined.push_str(&format!("  \"{name}\": {}", body.trim()));
    }
    combined.push_str("\n}\n");
    let path = output_path_for(stem);
    fs::write(&path, combined).expect("write combined bench JSON");
    eprintln!("wrote {}", path.display());
}

/// Stages `json` as section `key` of the combined `BENCH_mining.json`.
pub fn record_section(key: &str, json: &str) {
    record_section_in("BENCH_mining", key, json);
}

/// Escapes a string for inclusion in JSON (the body of
/// [`lagalyzer_model::json_string`], without the surrounding quotes).
pub fn escape(s: &str) -> String {
    let quoted = lagalyzer_model::json_string(s);
    quoted[1..quoted.len() - 1].to_owned()
}

/// The per-bench time budget (`CRITERION_BUDGET_MS`, default 500 ms) —
/// the same knob the vendored criterion uses, so the JSON emission scales
/// down with it in CI smoke runs.
pub fn budget() -> Duration {
    let ms = std::env::var("CRITERION_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500u64);
    Duration::from_millis(ms)
}

/// Times `routine` repeatedly (one warm-up call, then at least one
/// measured iteration) until `budget` is spent; returns mean ns/iter.
pub fn time_mean_ns<O, R: FnMut() -> O>(budget: Duration, mut routine: R) -> f64 {
    std::hint::black_box(routine());
    let start = Instant::now();
    let mut iters = 0u64;
    let elapsed = loop {
        std::hint::black_box(routine());
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            break elapsed;
        }
    };
    elapsed.as_nanos() as f64 / iters as f64
}

/// Times `routine` repeatedly (one warm-up call, then at least one
/// measured iteration) until `budget` is spent; returns the *minimum*
/// ns/iter observed.
///
/// Two deliberate differences from [`time_mean_ns`] make this the
/// estimator for allocation-heavy before/after comparisons:
///
/// * each iteration's output is dropped *outside* the timed window
///   (criterion's `iter_with_large_drop`), so tearing down the previous
///   result — hundreds of thousands of frees for a decoded session —
///   does not pollute the construction time being compared;
/// * the minimum, not the mean, is reported. On shared, noisy hosts
///   every perturbation (scheduling, frequency drift, page-cache state)
///   only ever *adds* time, so the minimum over many iterations is the
///   stable estimate of what the code costs.
pub fn time_best_ns<O, R: FnMut() -> O>(budget: Duration, mut routine: R) -> f64 {
    std::hint::black_box(routine());
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        let out = routine();
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(&out);
        drop(out);
        best = best.min(ns);
        if start.elapsed() >= budget {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mean_ns_measures() {
        let mean = time_mean_ns(Duration::from_millis(2), || std::hint::black_box(1u64 + 1));
        assert!(mean > 0.0);
    }

    #[test]
    fn time_best_ns_measures() {
        let best = time_best_ns(Duration::from_millis(2), || {
            std::hint::black_box(vec![1u8; 64])
        });
        assert!(best.is_finite() && best > 0.0);
    }

    #[test]
    fn sections_combine_into_one_object() {
        // Use a stem of our own rather than staging a throwaway section
        // into the real BENCH_mining.json: a test section leaking into a
        // shipped artifact is exactly what `bench-verify` rejects.
        const STEM: &str = "zz_benchjson_selftest";

        /// Removes the test stem's staging dir and combined file even
        /// when an assertion below panics mid-test.
        struct Cleanup;
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = fs::remove_dir_all(
                    workspace_experiments_dir().join(format!("bench-sections/{STEM}")),
                );
                let _ = fs::remove_file(output_path_for(STEM));
            }
        }
        let _cleanup = Cleanup;

        record_section_in(STEM, "zz_test_section", r#"{"a": 1}"#);
        let combined = fs::read_to_string(output_path_for(STEM)).unwrap();
        assert!(combined.trim_start().starts_with('{'));
        assert!(combined.contains("\"zz_test_section\": {\"a\": 1}"));
        assert!(combined.trim_end().ends_with('}'));
    }
}
