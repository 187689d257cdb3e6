//! Golden snapshot and end-to-end tests for the `hazards` subcommand.
//!
//! The committed fixtures under `tests/corpus/` (shared with the
//! outliers suite — this suite never rewrites the trace bytes) get their
//! exact `hazards --format json` stdout and exit code locked in
//! `tests/corpus/EXPECTED_HAZARDS.txt`. To regenerate after an
//! intentional format or report change:
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-cli --test hazards_cli
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};

use lagalyzer_sim::scenarios::{abba_inversion, hazard_truths};
use lagalyzer_trace::binary;
use lagalyzer_trace::faults::FaultInjector;
use proptest::prelude::*;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn legacy_v1() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../trace/tests/corpus/legacy-v1.lgz")
}

/// Temp scratch dir keyed by pid so parallel test binaries never collide.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-hazards-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The snapshot set: `(committed fixture name, extra hazards args)`.
/// Covers the three ground-truth traces, the fault-injected salvage
/// variant, and the multi-session corpus (which exercises the `LA025`
/// cross-session path) — each as the frozen `.lgz` v2 and `.lgzc` v1
/// fixtures and as the generated v3 and corpus v2 ones.
const SNAPSHOT_FIXTURES: &[(&str, &[&str])] = &[
    ("gc-storm.lgz", &[]),
    ("lock-contention.lgz", &[]),
    ("slow-io.lgz", &[]),
    ("salvaged-lock-contention.lgz", &["--salvage"]),
    ("corpus.lgzc", &[]),
    ("gc-storm-v3.lgz", &[]),
    ("lock-contention-v3.lgz", &[]),
    ("slow-io-v3.lgz", &[]),
    ("salvaged-lock-contention-v3.lgz", &["--salvage"]),
    ("corpus-v2.lgzc", &[]),
];

/// One snapshot entry: the exit code and full JSON stdout of
/// `hazards FIXTURE --format json [extra args]`.
fn snapshot_line(name: &str, path: &std::path::Path, extra: &[&str]) -> String {
    let mut args = vec!["hazards", path.to_str().unwrap(), "--format", "json"];
    args.extend_from_slice(extra);
    let output = lagalyzer(&args);
    let code = output.status.code().expect("no signal/panic");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    // The snapshot must not depend on the absolute checkout path.
    let stdout = stdout.replace(path.to_str().unwrap(), name);
    format!("{name}: exit={code}\n{name}: {}", stdout.trim_end())
}

#[test]
fn hazards_outcomes_match_snapshot() {
    let dir = corpus_dir();
    let mut actual = String::new();
    for (name, extra) in SNAPSHOT_FIXTURES {
        let path = dir.join(name);
        assert!(path.exists(), "corpus fixture {name} missing");
        writeln!(actual, "{}", snapshot_line(name, &path, extra)).unwrap();
    }
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        std::fs::write(dir.join("EXPECTED_HAZARDS.txt"), actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(dir.join("EXPECTED_HAZARDS.txt"))
        .expect("tests/corpus/EXPECTED_HAZARDS.txt missing — run with LAGALYZER_REGEN_CORPUS=1");
    assert_eq!(
        actual, expected,
        "hazards corpus output changed; if intentional, regenerate with \
         LAGALYZER_REGEN_CORPUS=1 and commit the diff"
    );
}

/// `--jobs` must never change a byte of the report — through the real
/// binary, on a clean fixture, the legacy-v1 format fixture and a
/// salvaged one.
#[test]
fn hazards_json_identical_across_jobs_through_the_binary() {
    let dir = corpus_dir();
    let legacy = legacy_v1();
    let cases: [(&std::path::Path, &[&str]); 3] = [
        (&dir.join("lock-contention.lgz"), &[]),
        (&legacy, &[]),
        (&dir.join("salvaged-lock-contention.lgz"), &["--salvage"]),
    ];
    for (path, extra) in cases {
        let path = path.to_str().unwrap();
        let mut args = vec!["hazards", path, "--format", "json", "--jobs", "1"];
        args.extend_from_slice(extra);
        let baseline = lagalyzer(&args);
        let code = baseline.status.code().expect("no panic");
        assert!(matches!(code, 0 | 2), "{path}: exit {code}");
        for jobs in ["2", "5"] {
            let mut args = vec!["hazards", path, "--format", "json", "--jobs", jobs];
            args.extend_from_slice(extra);
            let run = lagalyzer(&args);
            assert_eq!(run.status.code(), Some(code), "{path}: --jobs {jobs}");
            assert_eq!(
                run.stdout, baseline.stdout,
                "{path}: --jobs {jobs} changed the report bytes"
            );
        }
    }
}

/// The injected ABBA inversion travels the whole distance: sim scenario
/// → binary codec → real binary → `LA020` with both lock identities.
#[test]
fn abba_scenario_reports_la020_through_the_binary() {
    let truth = abba_inversion();
    let mut bytes = Vec::new();
    binary::write(&truth.trace, &mut bytes).unwrap();
    let path = scratch_dir().join("abba.lgz");
    std::fs::write(&path, &bytes).unwrap();

    let output = lagalyzer(&["hazards", path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0), "findings don't change exit");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("LA020"), "{stdout}");
    for lock in &truth.locks {
        assert!(stdout.contains(lock), "missing lock {lock}: {stdout}");
    }
    assert!(
        stdout.contains("verdict: errors") || stdout.contains("errors —"),
        "{stdout}"
    );

    // --explain re-decodes just the flagged episode and prints its
    // contended waits plus the ASCII sketch.
    let output = lagalyzer(&["hazards", path.to_str().unwrap(), "--explain", "0"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("contended waits:"), "{stdout}");
    assert!(stdout.contains("monitor"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

/// The control scenario stays clean through the binary too — the rules
/// discriminate hazards from ordinary consistent-order contention.
#[test]
fn control_scenario_stays_clean_through_the_binary() {
    let truth = hazard_truths()
        .into_iter()
        .find(|t| t.expected_code.is_none())
        .expect("hazard truths include a control");
    let mut bytes = Vec::new();
    binary::write(&truth.trace, &mut bytes).unwrap();
    let path = scratch_dir().join("hazard-control.lgz");
    std::fs::write(&path, &bytes).unwrap();
    let output = lagalyzer(&["hazards", path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("\"verdict\":\"clean\""), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exit_codes_distinguish_clean_salvaged_and_errors() {
    let dir = corpus_dir();
    let clean = dir.join("gc-storm.lgz");
    let damaged = dir.join("salvaged-lock-contention.lgz");
    let corpus = dir.join("corpus.lgzc");

    let output = lagalyzer(&["hazards", clean.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0), "clean trace must exit 0");

    let output = lagalyzer(&["hazards", damaged.to_str().unwrap(), "--salvage"]);
    assert_eq!(output.status.code(), Some(2), "salvaged trace must exit 2");

    let output = lagalyzer(&["hazards", damaged.to_str().unwrap()]);
    let code = output.status.code().expect("no panic");
    assert!(
        code != 0 && code != 2,
        "strict decode of damage: got {code}"
    );

    let output = lagalyzer(&["hazards", "/nonexistent/trace.lgz"]);
    assert_eq!(output.status.code(), Some(1), "missing file exits 1");

    for bad in [
        &["hazards"][..],
        &["hazards", clean.to_str().unwrap(), "--format", "xml"],
        &["hazards", clean.to_str().unwrap(), "--min-samples", "nope"],
        &["hazards", clean.to_str().unwrap(), "--explain", "9999"],
        &["hazards", corpus.to_str().unwrap(), "--explain", "0"],
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

    /// Seeded fault injection crossed with hazard analysis: whatever the
    /// corruption, the `hazards --salvage` pipeline must terminate with
    /// a contract exit code (0 clean, 2 salvaged, 3 unrecoverable) and
    /// never panic or hang.
    #[test]
    fn fault_injected_hazards_exit_codes_stay_in_contract(seed in any::<u64>()) {
        let truths = hazard_truths();
        let truth = &truths[(seed % truths.len() as u64) as usize];
        let mut clean = Vec::new();
        binary::write(&truth.trace, &mut clean).unwrap();
        let (mutated, fault) = FaultInjector::new(seed).inject(&clean);

        let path = scratch_dir().join(format!("fuzz-{seed:016x}.lgz"));
        std::fs::write(&path, &mutated).unwrap();
        let output = lagalyzer(&[
            "hazards",
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
                stdout.starts_with("{\"tool\":\"lagalyzer-hazards\""),
                "fault {fault:?}: malformed report: {stdout}"
            );
        }
    }
}

/// `--salvage` on a clean trace changes nothing: the exit code comes from
/// the same damage verdict as every other subcommand's, so a clean input
/// exits 0 with the strict run's exact report, and only real damage
/// exits 2.
#[test]
fn salvage_flag_on_a_clean_trace_is_a_no_op() {
    let dir = corpus_dir();
    for name in ["gc-storm.lgz", "lock-contention.lgz", "slow-io.lgz"] {
        let path = dir.join(name);
        let path = path.to_str().unwrap();
        let strict = lagalyzer(&["hazards", path, "--format", "json"]);
        let salvage = lagalyzer(&["hazards", path, "--format", "json", "--salvage"]);
        assert_eq!(strict.status.code(), Some(0), "{name}");
        assert_eq!(salvage.status.code(), Some(0), "{name}: --salvage exit");
        assert_eq!(strict.stdout, salvage.stdout, "{name}: --salvage stdout");
    }
    let damaged = dir.join("salvaged-lock-contention.lgz");
    let output = lagalyzer(&["hazards", damaged.to_str().unwrap(), "--salvage"]);
    assert_eq!(output.status.code(), Some(2), "real damage still exits 2");
}
