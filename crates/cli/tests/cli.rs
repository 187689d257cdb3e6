//! End-to-end tests of the `lagalyzer` binary.

use std::process::Command;

use lagalyzer_model::json::{self, Json};
use lagalyzer_trace::faults;

#[cfg(target_os = "linux")]
#[path = "../../trace/tests/support/inflate_footer.rs"]
mod inflate_footer;

fn lagalyzer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
}

fn run_ok(args: &[&str]) -> String {
    let output = lagalyzer().args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "lagalyzer {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn help_lists_commands() {
    let out = run_ok(&["help"]);
    for cmd in [
        "apps",
        "simulate",
        "analyze",
        "patterns",
        "sketch",
        "experiments",
    ] {
        assert!(out.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn no_args_prints_usage() {
    let out = run_ok(&[]);
    assert!(out.contains("usage:"));
}

#[test]
fn apps_lists_the_suite() {
    let out = run_ok(&["apps"]);
    for app in ["Arabeske", "NetBeans", "SwingSet"] {
        assert!(out.contains(app));
    }
    assert_eq!(out.lines().count(), 15, "header + 14 apps");
}

#[test]
fn unknown_command_fails() {
    let output = lagalyzer().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown command"));
}

#[test]
fn simulate_analyze_patterns_sketch_roundtrip() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.lgz");
    let trace_str = trace.to_str().unwrap();

    let out = run_ok(&[
        "simulate",
        "--app",
        "CrosswordSage",
        "--seed",
        "9",
        "--out",
        trace_str,
    ]);
    assert!(out.contains("CrosswordSage"));
    assert!(trace.exists());

    let out = run_ok(&["analyze", trace_str]);
    assert!(out.contains("episodes >= 100ms"));
    assert!(out.contains("distinct patterns"));

    let out = run_ok(&[
        "patterns",
        trace_str,
        "--perceptible-only",
        "--sort",
        "total",
    ]);
    assert!(out.contains("rank"));
    assert!(out.lines().count() > 2);

    let out = run_ok(&["sketch", trace_str, "--episode", "0", "--ascii"]);
    assert!(out.contains("depth 0"));

    let svg_path = dir.join("sketch.svg");
    run_ok(&[
        "sketch",
        trace_str,
        "--episode",
        "1",
        "--out",
        svg_path.to_str().unwrap(),
    ]);
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_format_traces_also_load() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-text-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.lgzt");
    let trace_str = trace.to_str().unwrap();
    run_ok(&["simulate", "--app", "JEdit", "--text", "--out", trace_str]);
    let content = std::fs::read_to_string(&trace).unwrap();
    assert!(content.starts_with("lagalyzer-trace v1"));
    let out = run_ok(&["analyze", trace_str]);
    assert!(out.contains("JEdit"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A text trace and a binary trace of the same simulated session answer
/// every summary-backed command identically: the text trace always
/// decodes cold, the binary one answers warm from its rollup (or cold
/// under `--no-cache`), and all of them run the same analysis code.
#[test]
fn text_and_binary_traces_answer_identically() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-twins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("t.lgzt");
    let binary = dir.join("t.lgz");
    let (text, binary) = (text.to_str().unwrap(), binary.to_str().unwrap());
    // This session has an OC-WAIT outlier, so the warm side re-decodes
    // its culprit episode.
    let simulate = ["simulate", "--app", "JEdit", "--seed", "3", "--out"];
    run_ok(&[&simulate[..], &[text, "--text"]].concat());
    run_ok(&[&simulate[..], &[binary]].concat());
    let commands: [&[&str]; 3] = [
        &["analyze", "--histogram"],
        &["patterns", "--sort", "total"],
        &["outliers"],
    ];
    for command in commands {
        for filter in [&[][..], &["--perceptible"]] {
            for jobs in ["1", "3"] {
                for cache in [&[][..], &["--no-cache"]] {
                    let run = |path: &str| {
                        let args = [command, &[path, "--jobs", jobs], filter, cache].concat();
                        lagalyzer().args(&args).output().expect("binary runs")
                    };
                    let (from_text, from_binary) = (run(text), run(binary));
                    let ctx = format!("{command:?} {filter:?} --jobs {jobs} {cache:?}");
                    assert_eq!(from_text.status.code(), Some(0), "{ctx}");
                    assert_eq!(from_text.status.code(), from_binary.status.code(), "{ctx}");
                    assert_eq!(
                        String::from_utf8_lossy(&from_text.stdout),
                        String::from_utf8_lossy(&from_binary.stdout),
                        "{ctx}: text and binary traces disagree"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An episode lasting the longest duration a trace can record lands in
/// the histogram's unbounded top bucket, warm and cold alike.
#[test]
fn histogram_counts_the_longest_possible_episode() {
    use lagalyzer_model::prelude::*;
    let meta = SessionMeta {
        application: "Longest".into(),
        session: SessionId::from_raw(0),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_nanos(u64::MAX),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut tree = IntervalTreeBuilder::new();
    tree.enter(IntervalKind::Dispatch, None, TimeNs::from_nanos(0))
        .unwrap();
    tree.exit(TimeNs::from_nanos(u64::MAX)).unwrap();
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    b.push_episode(
        EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(tree.finish().unwrap())
            .build()
            .unwrap(),
    )
    .unwrap();
    let trace = b.finish();
    let mut bytes = Vec::new();
    let rollup = lagalyzer_core::rollup::build(&trace);
    lagalyzer_trace::binary::write_with_rollup(&trace, &mut bytes, rollup).unwrap();

    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-longest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("longest.lgz");
    std::fs::write(&path, bytes).unwrap();
    for cache in [&[][..], &["--no-cache"]] {
        let args = [&["analyze", path.to_str().unwrap(), "--histogram"], cache].concat();
        let out = lagalyzer().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{cache:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let row = stdout
            .lines()
            .find(|l| l.trim_start().starts_with("8.19s .. inf"))
            .unwrap_or_else(|| panic!("{cache:?}: no top-bucket row in {stdout}"));
        assert_eq!(row.split_whitespace().nth(3), Some("1"), "{cache:?}: {row}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.lgz");
    std::fs::write(&bad, b"this is not a trace").unwrap();
    let output = lagalyzer()
        .args(["analyze", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_filters_prune_before_decode() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-filter-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.lgz");
    let trace_str = trace.to_str().unwrap();
    run_ok(&[
        "simulate", "--app", "JEdit", "--seed", "7", "--out", trace_str,
    ]);

    let grab = |out: &str, label: &str| -> u64 {
        out.lines()
            .find(|l| l.starts_with(label))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let full = run_ok(&["analyze", trace_str]);
    assert!(
        !full.contains("filtered out"),
        "unfiltered run must not note exclusions"
    );
    let filtered = run_ok(&["analyze", trace_str, "--perceptible", "--jobs", "3"]);
    // Everything below the perceptibility threshold was skipped at ingest;
    // the perceptible population itself is untouched.
    assert_eq!(
        grab(&filtered, "episodes >= 100ms"),
        grab(&full, "episodes >= 100ms")
    );
    assert_eq!(
        grab(&filtered, "episodes >= 3ms"),
        grab(&full, "episodes >= 100ms")
    );
    assert_eq!(
        grab(&filtered, "filtered out"),
        grab(&full, "episodes >= 3ms") - grab(&full, "episodes >= 100ms")
    );

    // --min-lag with the same threshold agrees with --perceptible, and a
    // time window excludes everything outside the session.
    let min_lag = run_ok(&["analyze", trace_str, "--min-lag", "100"]);
    assert_eq!(
        grab(&min_lag, "episodes >= 3ms"),
        grab(&filtered, "episodes >= 3ms")
    );
    let windowed = run_ok(&["analyze", trace_str, "--until-ms", "0"]);
    assert_eq!(grab(&windowed, "episodes >= 3ms"), 0);

    // The text codec honors the same filter (decode-then-drop).
    let text = dir.join("t.txt");
    let text_str = text.to_str().unwrap();
    run_ok(&[
        "simulate", "--app", "JEdit", "--seed", "7", "--text", "--out", text_str,
    ]);
    let text_filtered = run_ok(&["analyze", text_str, "--perceptible"]);
    assert_eq!(
        grab(&text_filtered, "episodes >= 3ms"),
        grab(&filtered, "episodes >= 3ms")
    );
    assert_eq!(
        grab(&text_filtered, "filtered out"),
        grab(&filtered, "filtered out")
    );

    // lint reports index health without changing its exit code.
    let lint_bin = run_ok(&["lint", trace_str]);
    assert!(
        lint_bin.contains("index               footer valid"),
        "{lint_bin}"
    );
    let lint_text = run_ok(&["lint", text_str]);
    assert!(lint_text.contains("not applicable"), "{lint_text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_threshold_flag() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-thr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.lgz");
    run_ok(&[
        "simulate",
        "--app",
        "JMol",
        "--out",
        trace.to_str().unwrap(),
    ]);
    let strict = run_ok(&["analyze", trace.to_str().unwrap(), "--threshold-ms", "50"]);
    let lax = run_ok(&["analyze", trace.to_str().unwrap(), "--threshold-ms", "500"]);
    let count = |s: &str| -> u64 {
        s.lines()
            .find(|l| l.starts_with("episodes >= 100ms"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(count(&strict) > count(&lax));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeline_renders_svg() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-tl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.lgz");
    run_ok(&[
        "simulate",
        "--app",
        "CrosswordSage",
        "--out",
        trace.to_str().unwrap(),
    ]);
    let svg_path = dir.join("timeline.svg");
    run_ok(&[
        "timeline",
        trace.to_str().unwrap(),
        "--out",
        svg_path.to_str().unwrap(),
    ]);
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("CrosswordSage"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stable_merges_multiple_traces() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-st-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let t0 = dir.join("s0.lgz");
    let t1 = dir.join("s1.lgz");
    run_ok(&[
        "simulate",
        "--app",
        "JEdit",
        "--session",
        "0",
        "--out",
        t0.to_str().unwrap(),
    ]);
    run_ok(&[
        "simulate",
        "--app",
        "JEdit",
        "--session",
        "1",
        "--out",
        t1.to_str().unwrap(),
    ]);
    let out = run_ok(&["stable", t0.to_str().unwrap(), t1.to_str().unwrap()]);
    assert!(out.contains("2 traces"));
    assert!(out.contains("merged patterns"));
    assert!(out.contains("stable slow patterns"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sketch_by_pattern_rank() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-pr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.lgz");
    run_ok(&[
        "simulate",
        "--app",
        "JFreeChart",
        "--out",
        trace.to_str().unwrap(),
    ]);
    let out = run_ok(&[
        "sketch",
        trace.to_str().unwrap(),
        "--pattern",
        "0",
        "--ascii",
    ]);
    assert!(out.contains("depth 0"));
    // An out-of-range pattern rank fails cleanly.
    let output = lagalyzer()
        .args(["sketch", trace.to_str().unwrap(), "--pattern", "999999"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Full experiments run — slow, so opt in with `cargo test -- --ignored`.
#[test]
#[ignore = "runs the full 14-app study; invoke with --ignored"]
fn experiments_regenerate_all_figures() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-exp-{}", std::process::id()));
    let out = run_ok(&[
        "experiments",
        "--out-dir",
        dir.to_str().unwrap(),
        "--sessions",
        "1",
        "--seed",
        "3",
    ]);
    assert!(out.contains("Mean"));
    for file in [
        "table3.txt",
        "fig3.svg",
        "fig4.svg",
        "fig5_perceptible.svg",
        "fig6_perceptible_samples.svg",
        "fig7_perceptible.svg",
        "fig8_perceptible.svg",
        "report.html",
    ] {
        assert!(dir.join(file).exists(), "missing {file}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulates a trace and returns `(clean path, truncated copy path)`.
fn clean_and_damaged(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let clean = dir.join("clean.lgz");
    run_ok(&[
        "simulate",
        "--app",
        "CrosswordSage",
        "--seed",
        "17",
        "--out",
        clean.to_str().unwrap(),
    ]);
    let bytes = std::fs::read(&clean).unwrap();
    let damaged = dir.join("damaged.lgz");
    std::fs::write(&damaged, &bytes[..bytes.len() * 3 / 5]).unwrap();
    (clean, damaged)
}

#[test]
fn lint_exit_codes_separate_clean_salvaged_unrecoverable() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-lint-{}", std::process::id()));
    let (clean, damaged) = clean_and_damaged(&dir);

    let output = lagalyzer()
        .args(["lint", clean.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "clean trace must lint clean");
    assert!(String::from_utf8_lossy(&output.stdout).contains("clean"));

    let output = lagalyzer()
        .args(["lint", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "damaged trace must exit 2");
    let out = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(out.contains("damaged trace"), "report missing: {out}");
    assert!(out.contains("episodes recovered"), "report missing: {out}");

    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, b"definitely not a trace").unwrap();
    let output = lagalyzer()
        .args(["lint", garbage.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3), "garbage must exit 3");
    assert!(String::from_utf8_lossy(&output.stdout).contains("unrecoverable"));

    // A missing file is a plain I/O error, exit 1.
    let output = lagalyzer()
        .args(["lint", dir.join("nope.lgz").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_and_patterns_salvage_damaged_traces() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-salv-{}", std::process::id()));
    let (clean, damaged) = clean_and_damaged(&dir);

    // Without --salvage the damaged trace is an error (exit 1).
    let output = lagalyzer()
        .args(["analyze", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));

    // With --salvage it analyzes what survived and exits 2.
    let output = lagalyzer()
        .args(["analyze", damaged.to_str().unwrap(), "--salvage"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "salvaged analyze exits 2");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        stdout.contains("distinct patterns"),
        "stats missing: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(stderr.contains("salvage:"), "summary missing: {stderr}");

    // The pattern table carries the provenance note and also exits 2.
    let output = lagalyzer()
        .args(["patterns", damaged.to_str().unwrap(), "--salvage"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        stdout.contains("note: trace salvaged"),
        "note missing: {stdout}"
    );

    // --salvage on a clean trace is byte-identical to strict: exit 0, no note.
    let strict = run_ok(&["patterns", clean.to_str().unwrap()]);
    let output = lagalyzer()
        .args(["patterns", clean.to_str().unwrap(), "--salvage"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&output.stdout), strict);

    // Unrecoverable input under --salvage exits 3.
    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, b"definitely not a trace").unwrap();
    let output = lagalyzer()
        .args(["analyze", garbage.to_str().unwrap(), "--salvage"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_compares_two_traces() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.lgz");
    let b = dir.join("b.lgz");
    run_ok(&[
        "simulate",
        "--app",
        "FreeMind",
        "--session",
        "0",
        "--out",
        a.to_str().unwrap(),
    ]);
    run_ok(&[
        "simulate",
        "--app",
        "FreeMind",
        "--session",
        "1",
        "--out",
        b.to_str().unwrap(),
    ]);
    let out = run_ok(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.contains("common patterns"));
    // Same app, same library: nothing should appear or disappear.
    assert!(out.contains("0 appeared, 0 disappeared"));
    // One file is an error.
    let output = lagalyzer()
        .args(["diff", a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_exit_codes_separate_clean_warnings_errors_unrecoverable() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-check-{}", std::process::id()));
    let (clean, damaged) = clean_and_damaged(&dir);

    let output = lagalyzer()
        .args(["check", clean.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(0),
        "clean trace must check clean"
    );
    let out = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(out.contains("clean — 0 error(s)"), "report missing: {out}");

    // Truncation surfaces as salvage-skip warnings (LA011) plus a
    // trailer-checksum error (LA012): exit 2.
    let output = lagalyzer()
        .args(["check", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "damaged trace must exit 2");
    let out = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        out.contains("error[LA012]"),
        "missing checksum error: {out}"
    );
    assert!(
        out.contains("warning[LA011]"),
        "missing skip warning: {out}"
    );

    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, b"definitely not a trace").unwrap();
    let output = lagalyzer()
        .args(["check", garbage.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3), "garbage must exit 3");

    let output = lagalyzer()
        .args(["check", dir.join("nope.lgz").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(1),
        "missing file is an I/O error"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_rule_overrides_and_unknown_rules() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-check-ov-{}", std::process::id()));
    let (_clean, damaged) = clean_and_damaged(&dir);
    let damaged = damaged.to_str().unwrap();

    // Allowing every rule the damage trips turns the report clean; rules
    // may be addressed by code or by name.
    for allow in [
        ["--allow", "LA011", "--allow", "LA012", "--allow", "LA013"],
        [
            "--allow",
            "salvage-skip",
            "--allow",
            "checksum-mismatch",
            "--allow",
            "index-degraded",
        ],
    ] {
        let mut args = vec!["check", damaged];
        args.extend(allow);
        let output = lagalyzer().args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(0), "allowed rules must exit 0");
    }

    // Demoting the checksum error to a note leaves only the LA011
    // warnings: exit 1.
    let output = lagalyzer()
        .args([
            "check",
            damaged,
            "--level",
            "LA012=note",
            "--allow",
            "LA013",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1), "warnings alone must exit 1");

    // Unknown rules and malformed severities are usage errors.
    for bad in [
        ["--allow", "LA999"],
        ["--level", "LA012=frobnicate"],
        ["--level", "LA012"],
    ] {
        let mut args = vec!["check", damaged];
        args.extend(bad);
        let output = lagalyzer().args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{bad:?} must be rejected");
        assert!(!String::from_utf8_lossy(&output.stderr).is_empty());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_json_format_and_fix_report() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-check-js-{}", std::process::id()));
    let (clean, damaged) = clean_and_damaged(&dir);

    let stdout = run_ok(&["check", clean.to_str().unwrap(), "--format", "json"]);
    let report = json::parse(&stdout).unwrap_or_else(|e| panic!("not JSON ({e}): {stdout}"));
    assert_eq!(
        report.get("file").and_then(Json::as_str),
        clean.to_str(),
        "{stdout}"
    );
    assert_eq!(report.get("verdict").and_then(Json::as_str), Some("clean"));

    let report_path = dir.join("fix-report.json");
    let output = lagalyzer()
        .args([
            "check",
            damaged.to_str().unwrap(),
            "--fix-report",
            report_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let written = std::fs::read_to_string(&report_path).unwrap();
    assert!(written.ends_with('\n'));
    let report = json::parse(&written).unwrap_or_else(|e| panic!("not JSON ({e}): {written}"));
    assert_eq!(report.get("verdict").and_then(Json::as_str), Some("errors"));
    let codes: Vec<&str> = report
        .get("diagnostics")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|d| d.get("code").and_then(Json::as_str))
        .collect();
    assert!(codes.contains(&"LA012"), "{written}");

    // The stdout text report and the machine report coexist.
    assert!(String::from_utf8_lossy(&output.stdout).contains("error[LA012]"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_check_gates_on_semantic_errors() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-check-an-{}", std::process::id()));
    let (clean, damaged) = clean_and_damaged(&dir);

    let out = run_ok(&["analyze", clean.to_str().unwrap(), "--check"]);
    assert!(
        out.contains("semantic check    0 error(s), 0 warning(s), 0 note(s)"),
        "missing check line: {out}"
    );

    // Semantic errors refuse analysis even under --salvage: the checker
    // runs first and wins.
    for extra in [&[][..], &["--salvage"][..]] {
        let mut args = vec!["analyze", damaged.to_str().unwrap(), "--check"];
        args.extend_from_slice(extra);
        let output = lagalyzer().args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "errors must refuse analysis");
        let err = String::from_utf8_lossy(&output.stderr).to_string();
        assert!(err.contains("refusing analysis"), "stderr: {err}");
        assert!(err.contains("error[LA012]"), "stderr: {err}");
        assert!(
            String::from_utf8_lossy(&output.stdout).is_empty(),
            "no analysis output on refusal"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_documents_check() {
    let out = run_ok(&["help"]);
    assert!(out.contains("check FILE"));
    assert!(out.contains("--fix-report"));
    assert!(out.contains("analyze --check"));
}

/// The input path may follow value-taking flags: every single-input
/// command finds it among the positional arguments, so `--jobs 1 FILE`
/// answers exactly like `FILE --jobs 1`.
#[test]
fn path_may_follow_value_flags() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.lgz");
    let trace = trace.to_str().unwrap();
    run_ok(&[
        "simulate",
        "--app",
        "CrosswordSage",
        "--seed",
        "5",
        "--out",
        trace,
    ]);
    for (command, extra) in [
        ("analyze", &[][..]),
        ("patterns", &["--sort", "total"][..]),
        ("sketch", &["--episode", "1", "--ascii"][..]),
        ("timeline", &[][..]),
        ("lint", &[][..]),
    ] {
        let mut path_first = vec![command, trace, "--jobs", "1"];
        path_first.extend_from_slice(extra);
        let mut flags_first = vec![command, "--jobs", "1"];
        flags_first.extend_from_slice(extra);
        flags_first.push(trace);
        let a = lagalyzer().args(&path_first).output().unwrap();
        let b = lagalyzer().args(&flags_first).output().unwrap();
        assert_eq!(a.status.code(), Some(0), "{command}: path first");
        assert_eq!(
            a.status.code(),
            b.status.code(),
            "{command}: exit differs, stderr: {}",
            String::from_utf8_lossy(&b.stderr)
        );
        assert_eq!(a.stdout, b.stdout, "{command}: stdout differs");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulates a JEdit session into `dir` twice, as `jedit-v3.lgz` (what
/// `simulate` writes) and as the same session re-stamped as v2, and
/// returns the paths with the bytes: every resealed-damage test runs on
/// both checksum hashes.
fn simulated_v2_and_v3(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let v3 = dir.join("jedit-v3.lgz");
    let v3_str = v3.to_str().unwrap();
    run_ok(&["simulate", "--app", "JEdit", "--seed", "7", "--out", v3_str]);
    let bytes = std::fs::read(&v3).unwrap();
    assert_eq!(bytes[7], 3, "simulate writes v3");
    let v2 = dir.join("jedit-v2.lgz");
    vec![
        (
            v2.to_str().unwrap().to_owned(),
            faults::with_version(&bytes, 2),
        ),
        (v3_str.to_owned(), bytes),
    ]
}

/// A trace whose only damage is an extent footer resealed under a valid
/// trailer checksum decodes completely, so `lint`, `check` and the
/// `--salvage` commands all call it clean (exit 0); `lint` still names
/// the unusable footer on its index line.
#[test]
fn resealed_footer_lints_and_checks_clean() {
    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-reseal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (path_str, mut bytes) in simulated_v2_and_v3(&dir) {
        let path_str = path_str.as_str();
        // Step past the rollup section to the footer (both are framed from
        // the end: ... length, magic), flip a byte inside the footer, reseal.
        let len_at = |bytes: &[u8], end: usize| {
            u64::from_le_bytes(bytes[end - 16..end - 8].try_into().unwrap()) as usize
        };
        let mut end = bytes.len() - 8;
        assert_eq!(
            &bytes[end - 8..end],
            b"LGLZRUP\x01",
            "simulate writes a rollup"
        );
        end -= len_at(&bytes, end);
        assert_eq!(&bytes[end - 8..end], b"LGLZIDX\x01");
        let footer_len = len_at(&bytes, end);
        bytes[end - footer_len / 2] ^= 0x01;
        faults::reseal(&mut bytes, None);
        std::fs::write(path_str, &bytes).unwrap();

        let lint = run_ok(&["lint", path_str]);
        assert!(lint.starts_with("clean: no damage detected\n"), "{lint}");
        assert!(
            lint.contains(
                "index               footer invalid (footer checksum mismatch), \
                 index reconstructed by scan\n"
            ),
            "{lint}"
        );
        for args in [
            &["check", path_str][..],
            &["analyze", path_str, "--salvage"],
            &["patterns", path_str, "--salvage"],
        ] {
            run_ok(args);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A record tag flipped inside an episode of a resealed trace is damage,
/// although the trailer checksum verifies: `lint` reports what the serial
/// salvage reference reports and exits 2, and `check`, which runs the same
/// salvage decode, reports the skipped region instead of failing.
#[test]
fn resealed_episode_damage_lints_and_checks_damaged() {
    let dir = std::env::temp_dir().join(format!(
        "lagalyzer-cli-reseal-episode-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for (path_str, mut bytes) in simulated_v2_and_v3(&dir) {
        let path_str = path_str.as_str();
        let extent = lagalyzer_trace::IndexedTrace::open(bytes.clone())
            .unwrap()
            .extents()[100];
        bytes[extent.offset as usize] ^= 0x80;
        faults::reseal(&mut bytes, None);
        std::fs::write(path_str, &bytes).unwrap();
        let reference = lagalyzer_trace::binary::read_salvage(&bytes).unwrap();
        assert!(!reference.report.is_clean());

        let output = lagalyzer().args(["lint", path_str]).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{path_str}");
        let lint = String::from_utf8_lossy(&output.stdout).to_string();
        assert!(lint.starts_with(&reference.report.render()), "{lint}");
        assert!(
            lint.contains("index               footer valid\n"),
            "{lint}"
        );

        // Salvage-skip warnings and no errors: `check` exits 1, not 3.
        let output = lagalyzer().args(["check", path_str]).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{path_str}");
        let check = String::from_utf8_lossy(&output.stdout).to_string();
        assert!(check.contains("warning[LA011]"), "{check}");
        assert!(check.contains("note[LA013]"), "{check}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `lint` prints the same report for the v2 and v3 encodings of one
/// trace, and a v1 trace, which has no section region, keeps its rollup
/// line.
#[test]
fn lint_reads_every_format_version_alike() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace/tests/corpus");
    let lint = |name: &str| run_ok(&["lint", corpus.join(name).to_str().unwrap()]);
    let v2 = lint("clean.lgz");
    assert!(v2.ends_with("index               footer valid\nrollup              absent\n"));
    assert_eq!(lint("clean-v3.lgz"), v2);
    assert!(lint("legacy-v1.lgz")
        .ends_with("rollup              not applicable (no v2 section region)\n"));
}

/// `--salvage` analysis of a trace resealed over undecodable episode
/// bytes reports the damage `lint` sees: the strict open accepts the
/// trace, its cold decode fails, and the input is reopened through the
/// salvage scan. Every analysis command exits 2, notes the salvage on
/// stderr, and prints what it prints for the same damage left unsealed,
/// which the strict open rejects outright.
#[test]
fn resealed_episode_damage_salvages_in_every_analysis_command() {
    let dir = std::env::temp_dir().join(format!(
        "lagalyzer-cli-reseal-salvage-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for (path_str, bytes) in simulated_v2_and_v3(&dir) {
        let extent = lagalyzer_trace::IndexedTrace::open(bytes.clone())
            .unwrap()
            .extents()[100];
        let mut unsealed = bytes;
        unsealed[extent.offset as usize] ^= 0x80;
        let unsealed_path = path_str.replace(".lgz", "-unsealed.lgz");
        std::fs::write(&unsealed_path, &unsealed).unwrap();
        faults::reseal(&mut unsealed, None);
        std::fs::write(&path_str, &unsealed).unwrap();
        for (command, extra) in [
            ("analyze", &[][..]),
            ("patterns", &[]),
            ("outliers", &["--format", "json"]),
            ("hazards", &["--format", "json"]),
        ] {
            let run = |path: &str| {
                let output = lagalyzer()
                    .args([command, path, "--salvage"])
                    .args(extra)
                    .output()
                    .unwrap();
                let stdout = String::from_utf8(output.stdout).unwrap();
                let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
                (output.status.code(), stdout.replace(path, "TRACE"), stderr)
            };
            let (code, stdout, stderr) = run(&path_str);
            assert_eq!(code, Some(2), "{command} {path_str}: {stderr}");
            assert!(stderr.contains("salvage: "), "{command}: {stderr}");
            let (unsealed_code, unsealed_stdout, _) = run(&unsealed_path);
            assert_eq!(unsealed_code, Some(2), "{command} {unsealed_path}");
            assert_eq!(stdout, unsealed_stdout, "{command} {path_str}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A footer that claims 2^20 intervals and samples for every extent
/// passes the strict open once resealed. The decode must size its
/// buffers by the records it reads, not by those claims: under a 2 GB
/// address-space limit `analyze`, `lint` and `check` answer exactly as
/// they do without one (0, 0, and 1 for the LA009 warnings), instead of
/// aborting on a failed allocation.
#[cfg(target_os = "linux")]
#[test]
fn inflated_footer_counts_decode_under_an_address_space_limit() {
    let dir = std::env::temp_dir().join(format!(
        "lagalyzer-cli-inflated-footer-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("arabeske.lgz");
    let path_str = path.to_str().unwrap();
    let profile = lagalyzer_sim::apps::by_name("Arabeske").unwrap();
    let trace = lagalyzer_sim::runner::simulate_session(&profile, 0, 42);
    assert!(trace.episodes().len() >= 100);
    let mut bytes = Vec::new();
    lagalyzer_trace::binary::write(&trace, &mut bytes).unwrap();
    for version in [2, 3] {
        let versioned = faults::with_version(&bytes, version);
        std::fs::write(
            &path,
            inflate_footer::inflate_footer_counts(&versioned, 1 << 20),
        )
        .unwrap();
        answers_under_an_address_space_limit(path_str);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resealed footer whose extents claim more intervals and samples than
/// the records hold does not add up to the declared record count, so
/// `sketch --episode N` folds the trace, which verifies, and draws the
/// honest episode: the clean file's sketch, exit 0.
#[test]
fn inflated_footer_counts_sketch_the_honest_episode() {
    let dir = std::env::temp_dir().join(format!(
        "lagalyzer-cli-inflated-sketch-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let (clean, inflated) = (dir.join("clean.lgz"), dir.join("inflated.lgz"));
    let profile = lagalyzer_sim::apps::by_name("Arabeske").unwrap();
    let trace = lagalyzer_sim::runner::simulate_session(&profile, 0, 42);
    let mut bytes = Vec::new();
    lagalyzer_trace::binary::write(&trace, &mut bytes).unwrap();
    std::fs::write(&clean, &bytes).unwrap();
    std::fs::write(
        &inflated,
        inflate_footer::inflate_footer_counts(&bytes, 1 << 10),
    )
    .unwrap();
    let sketch = |path: &std::path::Path| {
        let path = path.to_str().unwrap();
        lagalyzer()
            .args(["sketch", path, "--episode", "1", "--ascii"])
            .output()
            .unwrap()
    };
    let (want, got) = (sketch(&clean), sketch(&inflated));
    assert_eq!(want.status.code(), Some(0));
    assert_eq!(got.status.code(), Some(0), "{got:?}");
    assert!(!want.stdout.is_empty());
    assert_eq!(got.stdout, want.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

/// `analyze`, `lint` and `check` on `path` exit 0, 0 and 1 (the LA009
/// warnings), and print the same under a 2 GB address-space limit.
#[cfg(target_os = "linux")]
fn answers_under_an_address_space_limit(path_str: &str) {
    for (command, code) in [("analyze", 0), ("lint", 0), ("check", 1)] {
        let free = lagalyzer().args([command, path_str]).output().unwrap();
        assert_eq!(
            free.status.code(),
            Some(code),
            "{command}: {}",
            String::from_utf8_lossy(&free.stderr)
        );
        let limited = Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -v 2000000; exec "$0" "$@""#)
            .arg(env!("CARGO_BIN_EXE_lagalyzer"))
            .args([command, path_str])
            .output()
            .unwrap();
        assert_eq!(
            limited.status.code(),
            Some(code),
            "{command} under the limit: {}",
            String::from_utf8_lossy(&limited.stderr)
        );
        assert_eq!(limited.stdout, free.stdout, "{command}: stdout differs");
    }
}

/// A closed stdout is an I/O error, not a panic: when the reader goes
/// away after a few bytes of an output far larger than a pipe holds, the
/// command exits 1 with an error line on stderr.
#[test]
fn closed_stdout_exits_1_without_panicking() {
    use std::io::Read as _;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("lagalyzer-cli-epipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let argo = dir.join("argo.lgz");
    let jmol = dir.join("jmol.lgz");
    let (argo, jmol) = (argo.to_str().unwrap(), jmol.to_str().unwrap());
    run_ok(&[
        "simulate", "--app", "ArgoUML", "--seed", "42", "--out", argo,
    ]);
    run_ok(&[
        "simulate",
        "--app",
        "JMol",
        "--session",
        "1",
        "--seed",
        "42",
        "--out",
        jmol,
    ]);
    for args in [
        &["patterns", argo, "--no-cache"][..],
        &["outliers", jmol, "--format", "json"],
    ] {
        // The whole output must outgrow the pipe, so the binary is still
        // writing when the read end closes.
        let full = lagalyzer().args(args).output().unwrap();
        assert_eq!(full.status.code(), Some(0), "{args:?}");
        assert!(
            full.stdout.len() > 128 * 1024,
            "{args:?}: {}",
            full.stdout.len()
        );

        let mut child = lagalyzer()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = child.stdout.take().unwrap();
        let mut head = [0u8; 16];
        stdout.read_exact(&mut head).unwrap();
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("error: cannot write output"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
