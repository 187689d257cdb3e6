//! Warm-path (persisted rollup) vs cold-path equivalence, through the
//! real binary.
//!
//! The contract under test: a trace that carries a valid rollup section
//! answers `analyze`/`patterns`/`outliers` without decoding episodes,
//! with stdout byte-identical to the cold decode at any `--jobs`; a
//! stale or corrupt section silently falls back to the cold path with
//! identical output and never panics; legacy v1 inputs never engage the
//! warm path at all. The cache-hit note is a stderr side channel and is
//! snapshot-locked here so its wording cannot drift silently.

use std::path::PathBuf;
use std::process::{Command, Output};

use lagalyzer_sim::scenarios::ground_truths;
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::binary;
use lagalyzer_trace::faults::{self, Fault};
use proptest::prelude::*;

/// Temp scratch dir keyed by pid so parallel test binaries never collide.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-warm-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_scratch(name: &str, bytes: &[u8]) -> PathBuf {
    let path = scratch_dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

fn with_rollup(trace: &lagalyzer_model::SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    let rollup = lagalyzer_core::rollup::build(trace);
    binary::write_with_rollup(trace, &mut bytes, rollup).unwrap();
    bytes
}

fn without_rollup(trace: &lagalyzer_model::SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write(trace, &mut bytes).unwrap();
    bytes
}

/// Runs one subcommand against a path, returning (exit, stdout, stderr).
fn run(sub: &[&str], path: &std::path::Path, extra: &[&str]) -> (i32, Vec<u8>, String) {
    let mut args: Vec<&str> = sub.to_vec();
    let p = path.to_str().unwrap();
    args.push(p);
    args.extend_from_slice(extra);
    let out = lagalyzer(&args);
    (
        out.status.code().expect("no signal/panic"),
        out.stdout,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every (subcommand, extra-args) pair whose warm path must be
/// byte-identical to cold. Filters and formats ride along so the
/// skip-decode answers are exercised, not just the unrestricted view.
fn warm_surfaces() -> Vec<(&'static [&'static str], Vec<&'static str>)> {
    vec![
        (&["analyze"], vec![]),
        (&["analyze"], vec!["--histogram"]),
        (&["analyze"], vec!["--min-lag", "50"]),
        (&["analyze"], vec!["--perceptible", "--threshold-ms", "60"]),
        (&["patterns"], vec![]),
        (&["patterns"], vec!["--sort", "total", "--perceptible-only"]),
        (&["outliers"], vec![]),
        (&["outliers"], vec!["--format", "json"]),
    ]
}

#[test]
fn warm_matches_cold_on_every_surface_and_fixture() {
    for (i, gt) in ground_truths().iter().enumerate() {
        let warm = write_scratch(&format!("warm-{i}.lgz"), &with_rollup(&gt.trace));
        let cold = write_scratch(&format!("cold-{i}.lgz"), &without_rollup(&gt.trace));
        for (sub, extra) in warm_surfaces() {
            for jobs in ["1", "2", "5"] {
                let mut extra_jobs = extra.clone();
                extra_jobs.extend_from_slice(&["--jobs", jobs]);
                let (wc, wout, werr) = run(sub, &warm, &extra_jobs);
                let mut nocache = extra_jobs.clone();
                nocache.push("--no-cache");
                let (nc, nout, nerr) = run(sub, &warm, &nocache);
                let (cc, cout, cerr) = run(sub, &cold, &extra_jobs);
                let ctx = format!("{} {sub:?} {extra:?} --jobs {jobs}", gt.title);
                assert_eq!(wc, nc, "{ctx}: warm exit != --no-cache exit");
                assert_eq!(wc, cc, "{ctx}: warm exit != rollup-less exit");
                assert_eq!(wout, nout, "{ctx}: warm stdout != --no-cache stdout");
                assert_eq!(wout, cout, "{ctx}: warm stdout != rollup-less stdout");
                assert!(
                    werr.contains("rollup: cache hit"),
                    "{ctx}: warm run must announce the cache hit, got: {werr}"
                );
                assert!(
                    !nerr.contains("rollup: cache hit") && !cerr.contains("rollup: cache hit"),
                    "{ctx}: cold runs must not claim a cache hit"
                );
            }
        }
    }
}

/// The stderr note's exact wording, locked per subcommand (the
/// ground-truth scenarios all carry 36 episodes).
#[test]
fn cache_hit_lines_are_snapshot_locked() {
    let gt = &ground_truths()[0];
    let path = write_scratch("snap.lgz", &with_rollup(&gt.trace));
    let n = gt.trace.episodes().len();

    let (_, _, err) = run(&["analyze"], &path, &[]);
    assert!(
        err.contains(&format!(
            "rollup: cache hit ({n} episode summaries, zero decode)"
        )),
        "analyze: {err}"
    );
    let (_, _, err) = run(&["patterns"], &path, &[]);
    assert!(
        err.contains(&format!(
            "rollup: cache hit ({n} episode summaries, zero decode)"
        )),
        "patterns: {err}"
    );
    let (_, _, err) = run(&["outliers"], &path, &[]);
    assert!(
        err.contains(&format!(
            "rollup: cache hit ({n} episode summaries, decoded only flagged lock/wait)"
        )),
        "outliers: {err}"
    );
}

#[test]
fn legacy_v1_never_engages_the_warm_path() {
    let gt = &ground_truths()[0];
    let mut legacy = Vec::new();
    binary::write_legacy(&gt.trace, &mut legacy).unwrap();
    let v1 = write_scratch("legacy.lgz", &legacy);
    let v2 = write_scratch("legacy-v2.lgz", &with_rollup(&gt.trace));

    for (sub, extra) in warm_surfaces() {
        let (c1, out1, err1) = run(sub, &v1, &extra);
        let (c2, out2, _) = run(sub, &v2, &extra);
        assert_eq!(c1, c2, "{sub:?} {extra:?}: v1 exit differs");
        assert_eq!(
            out1, out2,
            "{sub:?} {extra:?}: v1 stdout differs from warm v2"
        );
        assert!(
            !err1.contains("rollup: cache hit"),
            "{sub:?} {extra:?}: v1 input cannot be a cache hit"
        );
    }
}

#[test]
fn salvage_mode_forces_the_cold_path() {
    let gt = ground_truths()
        .into_iter()
        .find(|g| g.title == "lock-contention")
        .unwrap();
    let damaged = Fault::DeleteRecord { index: 30 }.apply(&with_rollup(&gt.trace));
    let path = write_scratch("salvaged.lgz", &damaged);
    for sub in [&["analyze"][..], &["patterns"][..], &["outliers"][..]] {
        let (code, out, err) = run(sub, &path, &["--salvage"]);
        let (code2, out2, _) = run(sub, &path, &["--salvage", "--no-cache"]);
        assert_eq!(code, 2, "{sub:?}: salvaged trace must exit 2: {err}");
        assert_eq!(code, code2);
        assert_eq!(
            out, out2,
            "{sub:?}: --salvage output must not depend on the cache flag"
        );
        assert!(!err.contains("rollup: cache hit"), "{sub:?}: {err}");
    }
}

/// Corpus-wide `analyze` and `patterns` answer each member from its own
/// valid rollup and fold only the members without one: on the committed
/// corpus, members 0–2 answer warm and the salvaged member 3 folds. The
/// note says how many members answered warm; stdout and the exit code are
/// the cold run's.
#[test]
fn corpus_members_answer_warm_one_by_one() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/corpus.lgzc");
    for sub in [&["analyze"][..], &["patterns"][..]] {
        let (code, out, err) = run(sub, &corpus, &[]);
        let (cold_code, cold_out, cold_err) = run(sub, &corpus, &["--no-cache"]);
        assert_eq!(
            code, 2,
            "{sub:?}: the salvaged member makes the corpus exit 2"
        );
        assert_eq!((code, &out), (cold_code, &cold_out), "{sub:?}");
        assert_eq!(
            err.lines()
                .filter(|l| l.starts_with("rollup:"))
                .collect::<Vec<_>>(),
            ["rollup: cache hit (3 of 4 sessions, the rest folded)"],
            "{sub:?}"
        );
        assert!(
            !cold_err.contains("rollup: cache hit"),
            "{sub:?}: {cold_err}"
        );
    }
}

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Simulated sessions (richer and more varied than the ground-truth
    /// scenarios) agree warm-vs-cold on analyze and outliers at a
    /// seed-picked job count.
    #[test]
    fn simulated_sessions_agree_warm_vs_cold(seed in any::<u64>()) {
        let profiles = [apps::jedit(), apps::arabeske(), apps::crossword_sage()];
        let trace = runner::simulate_session(&profiles[(seed % 3) as usize], 0, seed);
        let path = write_scratch(&format!("sim-{seed:016x}.lgz"), &with_rollup(&trace));
        let jobs = ["1", "2", "5"][(seed / 3 % 3) as usize];
        for sub in [&["analyze"][..], &["outliers"][..]] {
            let (wc, wout, werr) = run(sub, &path, &["--jobs", jobs]);
            let (nc, nout, _) = run(sub, &path, &["--jobs", jobs, "--no-cache"]);
            prop_assert!(wc == nc, "{:?}: exit differs ({} vs {})", sub, wc, nc);
            prop_assert!(wout == nout, "{:?}: stdout differs", sub);
            prop_assert!(werr.contains("rollup: cache hit"), "{:?}: {}", sub, werr);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A corrupt byte anywhere in the rollup section must never panic
    /// and must not change a byte of the answer: the reader classifies
    /// the section as stale and the commands fall back to the cold
    /// decode. The trailer is re-sealed after the flip so only the
    /// section's own validation stands between the corruption and the
    /// warm path. The seed picks a v2 or a v3 encoding.
    #[test]
    fn corrupt_rollup_section_falls_back_cold(seed in any::<u64>()) {
        let gt = &ground_truths()[(seed % 3) as usize];
        let version = 2 + (seed / 24 % 2) as u8;
        let mut bytes = faults::with_version(&with_rollup(&gt.trace), version);
        let section = match lagalyzer_trace::probe_rollup(&bytes) {
            Some(lagalyzer_trace::RollupHealth::Valid { section_bytes }) => section_bytes,
            other => panic!("fresh rollup must be valid, got {other:?}"),
        };
        // Positions count back from the trailer: the section occupies
        // [len - 8 - section, len - 8).
        let pos = bytes.len() - 8 - 1 - (seed / 3 % section) as usize;
        bytes[pos] ^= 1u8 << ((seed % 8) as u32);
        faults::reseal(&mut bytes, None);

        let path = write_scratch(&format!("corrupt-{seed:016x}.lgz"), &bytes);
        let cold = write_scratch(
            &format!("corrupt-cold-{seed:016x}.lgz"),
            &without_rollup(&gt.trace),
        );
        for sub in [&["analyze"][..], &["patterns"][..], &["outliers"][..]] {
            let (code, out, err) = run(sub, &path, &[]);
            let (ccode, cout, _) = run(sub, &cold, &[]);
            prop_assert!(code == ccode, "{:?}: exit differs ({} vs {}), stderr: {}", sub, code, ccode, err);
            prop_assert!(out == cout, "{:?}: stdout differs from cold", sub);
            prop_assert!(!err.contains("rollup: cache hit"), "{:?}: {}", sub, err);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cold);
    }
}
