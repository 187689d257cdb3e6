//! Golden corpus and end-to-end tests for the `outliers` subcommand.
//!
//! Every fixture under `tests/corpus/` is a binary encoding of one of
//! the sim's ground-truth scenarios (plus a fault-injected, salvageable
//! variant); the exact `outliers --format json` stdout and exit code for
//! each is locked in `tests/corpus/EXPECTED.txt`. The `*-v3.lgz` set is
//! locked to its generator below; the unsuffixed set was written by the v2
//! writer, which no longer exists, so its bytes are frozen and only its
//! outputs are locked. To regenerate the generated fixtures after an
//! intentional format or report change:
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-cli --test outliers_cli
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};

use lagalyzer_sim::scenarios::ground_truths;
use lagalyzer_trace::binary;
use lagalyzer_trace::faults::{Fault, FaultInjector};
use proptest::prelude::*;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

/// Temp scratch dir keyed by pid so parallel test binaries never collide.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-outliers-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The frozen v2 fixtures and their extra outliers args: the same
/// sessions and damage as [`fixtures`], encoded before v3.
const FROZEN_V2: [(&str, &[&str]); 4] = [
    ("lock-contention.lgz", &[]),
    ("gc-storm.lgz", &[]),
    ("slow-io.lgz", &[]),
    ("salvaged-lock-contention.lgz", &["--salvage"]),
];

/// The generated corpus: `(file name, fixture bytes, extra outliers
/// args)`. The first three are the injected ground-truth scenarios
/// verbatim; the last is the lock-contention trace with one episode record
/// deleted — damaged but salvageable, so `--salvage` analyzes it and exits
/// 2.
fn fixtures() -> Vec<(String, Vec<u8>, Vec<&'static str>)> {
    let mut out = Vec::new();
    let mut lock_bytes = None;
    for gt in ground_truths() {
        let mut bytes = Vec::new();
        // Fixtures carry rollup sections like the simulator's output does;
        // the fault-injected variant below silently invalidates its copy
        // (checksum mismatch), locking in the stale-cache fallback.
        let rollup = lagalyzer_core::rollup::build(&gt.trace);
        binary::write_with_rollup(&gt.trace, &mut bytes, rollup).unwrap();
        if gt.title == "lock-contention" {
            lock_bytes = Some(bytes.clone());
        }
        out.push((format!("{}-v3.lgz", gt.title), bytes, vec![]));
    }
    let clean = lock_bytes.expect("ground truths include lock-contention");
    out.push((
        "salvaged-lock-contention-v3.lgz".into(),
        Fault::DeleteRecord { index: 30 }.apply(&clean),
        vec!["--salvage"],
    ));
    out
}

/// One snapshot entry: the exit code and full JSON stdout of
/// `outliers FIXTURE --format json [extra args]`.
fn snapshot_line(name: &str, path: &std::path::Path, extra: &[&str]) -> String {
    let mut args = vec!["outliers", path.to_str().unwrap(), "--format", "json"];
    args.extend_from_slice(extra);
    let output = lagalyzer(&args);
    let code = output.status.code().expect("no signal/panic");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    format!("{name}: exit={code}\n{name}: {}", stdout.trim_end())
}

/// Every fixture with its extra args, in snapshot order: the frozen v2
/// set first, then the generated v3 set.
fn snapshot_fixtures() -> Vec<(String, Vec<&'static str>)> {
    let frozen = FROZEN_V2
        .iter()
        .map(|(name, extra)| ((*name).to_owned(), extra.to_vec()));
    let generated = fixtures().into_iter().map(|(name, _, extra)| (name, extra));
    frozen.chain(generated).collect()
}

#[test]
fn corpus_outcomes_match_snapshot() {
    let dir = corpus_dir();
    let regen = std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some();
    if regen {
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes, _) in fixtures() {
            std::fs::write(dir.join(&name), &bytes).unwrap();
        }
    }
    let mut actual = String::new();
    for (name, extra) in snapshot_fixtures() {
        let path = dir.join(&name);
        assert!(path.exists(), "corpus fixture {name} missing");
        writeln!(actual, "{}", snapshot_line(&name, &path, &extra)).unwrap();
    }
    if regen {
        std::fs::write(dir.join("EXPECTED.txt"), actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(dir.join("EXPECTED.txt"))
        .expect("tests/corpus/EXPECTED.txt missing — run with LAGALYZER_REGEN_CORPUS=1");
    assert_eq!(
        actual, expected,
        "outliers corpus output changed; if intentional, regenerate with \
         LAGALYZER_REGEN_CORPUS=1 and commit the diff"
    );
}

/// The committed fixture bytes are locked to their generator so an
/// encoder change cannot drift past review unnoticed.
#[test]
fn corpus_fixtures_match_generator() {
    let dir = corpus_dir();
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the snapshot test just rewrote them
    }
    for (name, bytes, _) in fixtures() {
        let on_disk = std::fs::read(dir.join(&name))
            .unwrap_or_else(|e| panic!("corpus fixture {name} unreadable: {e}"));
        assert_eq!(
            on_disk, bytes,
            "fixture {name} no longer matches its generator; if the format \
             change is intentional, regenerate with LAGALYZER_REGEN_CORPUS=1"
        );
    }
}

/// `--jobs` must never change a byte of the report, through the real
/// binary and not just the library API.
#[test]
fn outliers_json_identical_across_jobs_through_the_binary() {
    let path = corpus_dir().join("lock-contention.lgz");
    let path = path.to_str().unwrap();
    let baseline = lagalyzer(&["outliers", path, "--format", "json", "--jobs", "1"]);
    assert_eq!(baseline.status.code(), Some(0));
    for jobs in ["2", "3", "8"] {
        let run = lagalyzer(&["outliers", path, "--format", "json", "--jobs", jobs]);
        assert_eq!(run.status.code(), Some(0));
        assert_eq!(
            run.stdout, baseline.stdout,
            "--jobs {jobs} changed the report bytes"
        );
    }
}

#[test]
fn explain_renders_wait_edges_and_sketch() {
    let path = corpus_dir().join("lock-contention.lgz");
    let output = lagalyzer(&["outliers", path.to_str().unwrap(), "--explain", "0"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("OC-LOCK"), "{stdout}");
    assert!(stdout.contains("com.app.CacheLock.rebuild"), "{stdout}");
}

#[test]
fn exit_codes_distinguish_clean_salvaged_and_errors() {
    let dir = corpus_dir();
    let clean = dir.join("gc-storm.lgz");
    let damaged = dir.join("salvaged-lock-contention.lgz");

    let output = lagalyzer(&["outliers", clean.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0), "clean trace must exit 0");

    let output = lagalyzer(&["outliers", damaged.to_str().unwrap(), "--salvage"]);
    assert_eq!(output.status.code(), Some(2), "salvaged trace must exit 2");

    let output = lagalyzer(&["outliers", damaged.to_str().unwrap()]);
    let code = output.status.code().expect("no panic");
    assert!(
        code != 0 && code != 2,
        "strict decode of damage: got {code}"
    );

    let output = lagalyzer(&["outliers", "/nonexistent/trace.lgz"]);
    assert_eq!(output.status.code(), Some(1), "missing file exits 1");

    for bad in [
        &["outliers"][..],
        &["outliers", clean.to_str().unwrap(), "--format", "xml"],
        &["outliers", clean.to_str().unwrap(), "--mad-k", "nope"],
        &["outliers", clean.to_str().unwrap(), "--mad-k", "-1"],
        &["outliers", clean.to_str().unwrap(), "--explain", "9999"],
    ] {
        let output = lagalyzer(bad);
        assert_eq!(output.status.code(), Some(1), "{bad:?} must exit 1");
    }
}

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Seeded fault injection crossed with outlier attribution: whatever
    /// the corruption, the `outliers --salvage` pipeline must terminate
    /// with a contract exit code (0 clean, 2 salvaged, 3 unrecoverable)
    /// and never panic or hang.
    #[test]
    fn fault_injected_outliers_exit_codes_stay_in_contract(seed in any::<u64>()) {
        let gt = &ground_truths()[(seed % 3) as usize];
        let mut clean = Vec::new();
        binary::write(&gt.trace, &mut clean).unwrap();
        let (mutated, fault) = FaultInjector::new(seed).inject(&clean);

        let path = scratch_dir().join(format!("fuzz-{seed:016x}.lgz"));
        std::fs::write(&path, &mutated).unwrap();
        let output = lagalyzer(&[
            "outliers",
            path.to_str().unwrap(),
            "--format",
            "json",
            "--salvage",
        ]);
        let _ = std::fs::remove_file(&path);

        let code = output.status.code();
        prop_assert!(
            matches!(code, Some(0 | 2 | 3)),
            "fault {fault:?}: exit {code:?}, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // Whenever the run produced a report at all, it must be the
        // stable JSON envelope, not partial output.
        if code == Some(0) || code == Some(2) {
            let stdout = String::from_utf8_lossy(&output.stdout);
            prop_assert!(
                stdout.starts_with("{\"tool\":\"lagalyzer-outliers\""),
                "fault {fault:?}: malformed report: {stdout}"
            );
        }
    }
}
