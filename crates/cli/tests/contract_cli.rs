//! The CLI contract, through the real binary. Every subcommand, on every
//! kind of input (clean, legacy-v1, salvaged, resealed, miscounted,
//! corpus, text, truncated, empty, a directory, a missing file), at
//! `--jobs` 1 and 3,
//! with default, extreme and unknown flags, and with stdout left open or
//! closed early, exits within {0, 1, 2, 3}, never panics, and prints the
//! same bytes at any `--jobs`; with stderr closed it exits with the same
//! code and prints the same stdout. Every `--format json` answer parses
//! back through `lagalyzer_model::json` as one object per line. Every
//! input the flag tables reject is a usage error (exit 1) that prints
//! nothing. The `help` text is locked in
//! `tests/corpus/EXPECTED_HELP.txt`; after an intentional change to a
//! command table or the help notes, regenerate it with
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-cli --test contract_cli
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use lagalyzer_model::json::{self, Json};
use lagalyzer_trace::faults::{self, FaultInjector};
use lagalyzer_trace::IndexedTrace;
use proptest::prelude::*;

/// The largest millisecond count whose nanoseconds fit 64 bits, and the
/// first that does not.
const MAX_MS: &str = "18446744073709";
const OVER_MS: &str = "18446744073710";
const U64_MAX: &str = "18446744073709551615";

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A temp dir per test, keyed by pid so parallel test binaries never
/// collide.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-contract-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    path.to_str().unwrap().to_owned()
}

/// The clean trace every matrix row may pair its input with.
fn clean() -> String {
    fixture("tests/corpus/lock-contention-v3.lgz")
}

/// Damage resealed under a valid trailer checksum: the strict open
/// accepts the file and only its decode fails.
fn resealed(bytes: &[u8]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    let extent = IndexedTrace::open(bytes.clone()).unwrap().extents()[1];
    bytes[extent.offset as usize] ^= 0x80;
    faults::reseal(&mut bytes, None);
    bytes
}

/// Every kind of input, as `(label, path)`; the written ones go in `dir`.
fn inputs(dir: &Path) -> Vec<(&'static str, String)> {
    let written = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path.to_str().unwrap().to_owned()
    };
    let clean_bytes = std::fs::read(clean()).unwrap();
    let resealed = resealed(&clean_bytes);
    // A declared record count one higher, resealed: every record intact.
    let miscounted = faults::miscount(&clean_bytes, true).unwrap();
    vec![
        ("clean", clean()),
        ("legacy-v1", fixture("../trace/tests/corpus/legacy-v1.lgz")),
        (
            "salvaged",
            fixture("tests/corpus/salvaged-lock-contention-v3.lgz"),
        ),
        ("resealed", written("resealed.lgz", &resealed)),
        ("miscounted", written("miscounted.lgz", &miscounted)),
        ("corpus", fixture("tests/corpus/corpus.lgzc")),
        ("text", fixture("../trace/tests/corpus/clean.txt")),
        (
            "truncated",
            fixture("../trace/tests/corpus/truncated-v3.lgz"),
        ),
        ("empty", written("empty.lgz", b"")),
        ("directory", dir.to_str().unwrap().to_owned()),
        (
            "missing",
            dir.join("missing.lgz").to_str().unwrap().to_owned(),
        ),
    ]
}

/// The flags every command that loads a trace through the shared input
/// group takes, as flag sets: each is valid, or a usage error when it is
/// listed in [`usage_errors`].
const INPUT_SETS: &[&[&str]] = &[
    &[],
    &["--salvage"],
    &["--no-cache"],
    &["--min-lag", MAX_MS],
    &["--min-lag", OVER_MS],
    &["--threshold-ms", "0"],
    &["--threshold-ms", OVER_MS],
    &["--since-ms", "0", "--until-ms", "0"],
    &["--until-ms", MAX_MS],
    &["--since-ms", OVER_MS],
    &["--until-ms", OVER_MS],
    &["--since-ms", "5000", "--until-ms", "10"],
    &["--session", U64_MAX],
    &["--session", "0"],
    &["--perceptible", "--salvage"],
    &["--bogus"],
];

/// The flag sets that must be usage errors whatever the input.
fn usage_errors() -> Vec<&'static [&'static str]> {
    vec![
        &["--min-lag", OVER_MS],
        &["--threshold-ms", OVER_MS],
        &["--since-ms", OVER_MS],
        &["--until-ms", OVER_MS],
        &["--since-ms", "5000", "--until-ms", "10"],
        &["--min-excess-ms", OVER_MS],
        &["--mad-k", "-1"],
        &["--bogus"],
    ]
}

/// Every subcommand that reads an input, with its own flag sets on top
/// of [`INPUT_SETS`] for those that take the input group.
const COMMANDS: &[(&str, bool, &[&[&str]])] = &[
    (
        "analyze",
        true,
        &[&["--histogram"], &["--check"], &["--format", "json"]],
    ),
    (
        "patterns",
        true,
        &[&["--sort", "max", "--perceptible-only"]],
    ),
    (
        "outliers",
        true,
        &[
            &["--format", "json"],
            &["--min-excess-ms", OVER_MS],
            &["--min-excess-ms", "0", "--min-count", U64_MAX],
            &["--mad-k", "-1"],
            &["--explain", U64_MAX],
            &["--explain", "0"],
        ],
    ),
    (
        "hazards",
        true,
        &[
            &["--format", "json"],
            &["--min-samples", U64_MAX, "--starvation-streak", "0"],
            &["--explain", U64_MAX],
            &["--explain", "0"],
        ],
    ),
    (
        "sketch",
        true,
        &[
            &["--episode", U64_MAX],
            &["--ascii"],
            &["--pattern", "0", "--gallery"],
            &["--pattern", U64_MAX],
        ],
    ),
    ("timeline", true, &[]),
    ("stable", true, &[]),
    ("diff", true, &[]),
    ("lint", false, &[&[], &["--bogus"]]),
    (
        "check",
        false,
        &[
            &[],
            &["--format", "json"],
            &["--no-cache"],
            &["--session", "0", "--no-cache"],
            &["--list-rules"],
            &["--bogus"],
        ],
    ),
    (
        "pack",
        false,
        &[&[], &["--salvage"], &["--compress"], &["--bogus"]],
    ),
    ("compact", false, &[&[], &["--compress"], &["--bogus"]]),
];

/// The argv of `command` on `input`: `stable` and `diff` pair it with the
/// clean trace, `pack` and `compact` write to `out`.
fn argv<'a>(command: &'a str, input: &'a str, clean: &'a str, out: &'a str) -> Vec<&'a str> {
    match command {
        "stable" | "diff" => vec![command, input, clean],
        "pack" | "compact" => vec![command, input, "--out", out],
        _ => vec![command, input],
    }
}

/// What one run produced: its exit code, stdout, and the file it wrote.
type Run = (i32, Vec<u8>, Option<Vec<u8>>);

/// Runs `args`, writing to `out` if it writes at all, and checks the
/// contract: an exit within {0, 1, 2, 3} and no panic. A `--format json`
/// run that answers (exit 0 or 2) prints one JSON object per non-empty
/// line.
fn run_checked(args: &[&str], out: &Path) -> Run {
    let _ = std::fs::remove_file(out);
    let output = lagalyzer(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let code = output.status.code();
    assert!(
        matches!(code, Some(0..=3)),
        "{args:?}: exit {code:?}, stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    if args.windows(2).any(|w| w == ["--format", "json"]) && matches!(code, Some(0 | 2)) {
        let stdout = std::str::from_utf8(&output.stdout).expect("JSON output is UTF-8");
        for line in stdout.lines().filter(|l| !l.is_empty()) {
            let parsed = json::parse(line);
            assert!(
                matches!(parsed, Ok(Json::Obj(_))),
                "{args:?}: not one JSON object ({parsed:?}): {line}"
            );
        }
    }
    (code.unwrap(), output.stdout, std::fs::read(out).ok())
}

/// Runs `args` at `--jobs` 1 and 3 (or once, for a command without
/// `--jobs`), checks the contract and that both runs agree byte for byte,
/// and returns the run.
fn run_across_jobs(args: &[&str], jobs: bool, out: &Path) -> Run {
    if !jobs {
        return run_checked(args, out);
    }
    let runs: Vec<Run> = ["1", "3"]
        .iter()
        .map(|j| run_checked(&[args, &["--jobs", j]].concat(), out))
        .collect();
    assert!(runs[0] == runs[1], "{args:?}: --jobs 1 and 3 disagree");
    runs.into_iter().next().unwrap()
}

/// Spawns `args` and closes its stdout before reading a byte: the command
/// must end within the exit contract, without a panic.
fn run_with_stdout_closed(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        matches!(output.status.code(), Some(0..=3)),
        "{args:?} with stdout closed: {:?}, stderr: {stderr}",
        output.status
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// The write end of a pipe whose read end is already closed: the stdin of
/// a process that has exited.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .arg("apps")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    let write_end = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    Stdio::from(write_end)
}

/// Runs `args` with stderr a pipe closed before the command starts: every
/// note and error line it writes there fails, and the command must still
/// exit with `code` and print `stdout`, as it does with stderr open.
fn run_with_stderr_closed(args: &[&str], code: i32, stdout: &[u8]) {
    let output = Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .stderr(closed_pipe())
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(code),
        "{args:?} with stderr closed"
    );
    assert!(
        output.stdout == stdout,
        "{args:?} with stderr closed: stdout differs"
    );
}

/// The matrix for the commands in `names`.
fn matrix(tag: &str, names: &[&str]) {
    let dir = scratch_dir(tag);
    let out = dir.join("out.lgzc");
    let out_str = out.to_str().unwrap();
    let clean = clean();
    let usage_errors = usage_errors();
    for &(command, input_group, own) in COMMANDS.iter().filter(|c| names.contains(&c.0)) {
        let sets = own.iter().chain(INPUT_SETS.iter().filter(|_| input_group));
        for flags in sets {
            for (label, input) in inputs(&dir) {
                let args = [argv(command, &input, &clean, out_str), flags.to_vec()].concat();
                let (code, stdout, _) = run_across_jobs(&args, command != "check", &out);
                // A corpus member's leniency is fixed when it is packed:
                // `--salvage` on a corpus alone is refused (`stable` and
                // `diff` also name the clean `.lgz`).
                let salvage_on_corpus = label == "corpus"
                    && input_group
                    && !matches!(command, "stable" | "diff")
                    && flags.contains(&"--salvage");
                // `check` refuses corpora, so `--session K` never applies.
                let session_on_check = command == "check" && flags.contains(&"--session");
                if usage_errors.contains(flags) || salvage_on_corpus || session_on_check {
                    assert_eq!(code, 1, "{label}: {args:?}");
                    assert!(stdout.is_empty(), "{label}: {args:?}");
                }
                if flags.is_empty() {
                    run_with_stdout_closed(&args);
                    run_with_stderr_closed(&args, code, &stdout);
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_analyze_and_patterns() {
    matrix("analyze", &["analyze", "patterns"]);
}

#[test]
fn matrix_outliers_and_hazards() {
    matrix("outliers", &["outliers", "hazards"]);
}

#[test]
fn matrix_sketch_timeline_stable_diff() {
    matrix("sketch", &["sketch", "timeline", "stable", "diff"]);
}

#[test]
fn matrix_lint_check_pack_compact() {
    matrix("lint", &["lint", "check", "pack", "compact"]);
}

/// The commands that read no input: `apps`, `help`, `simulate` and the
/// cheap or failing runs of `experiments`.
#[test]
fn matrix_commands_without_an_input() {
    let dir = scratch_dir("no-input");
    let out = dir.join("sim.lgz");
    let sim = [
        "simulate",
        "--app",
        "CrosswordSage",
        "--out",
        out.to_str().unwrap(),
    ];
    let exp_dir = dir.join("exp");
    let exp = ["experiments", "--out-dir", exp_dir.to_str().unwrap()];
    let cases: Vec<(Vec<&str>, bool, Option<i32>)> = vec![
        (vec!["apps"], false, Some(0)),
        (vec!["apps", "--bogus"], false, Some(1)),
        (vec!["apps", "extra"], false, Some(1)),
        (vec!["help"], false, Some(0)),
        (vec!["help", "--bogus"], false, Some(1)),
        (sim.to_vec(), false, Some(0)),
        (
            [&sim[..], &["--seed", U64_MAX, "--session", "4294967295"]].concat(),
            false,
            Some(0),
        ),
        (
            [&sim[..], &["--sessions", "2", "--compress"]].concat(),
            false,
            Some(0),
        ),
        ([&sim[..], &["--sessions", "0"]].concat(), false, Some(1)),
        (
            [&sim[..], &["--session", "4294967296"]].concat(),
            false,
            Some(1),
        ),
        ([&sim[..], &["--bogus"]].concat(), false, Some(1)),
        (vec!["simulate", "--app", "CrosswordSage"], false, Some(1)),
        ([&exp[..], &["--sessions", "0"]].concat(), true, Some(1)),
        (
            [&exp[..], &["--sessions", "4294967296"]].concat(),
            true,
            Some(1),
        ),
        (
            [&exp[..], &["--sessions", "0", "--bogus"]].concat(),
            true,
            Some(1),
        ),
    ];
    for (args, jobs, want) in cases {
        let (code, stdout, _) = run_across_jobs(&args, jobs, &out);
        assert_eq!(Some(code), want, "{args:?}");
        run_with_stdout_closed(&args);
        run_with_stderr_closed(&args, code, &stdout);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Commands that write notes or an error line to stderr keep their exit
/// code and stdout when stderr is closed; each of these panicked (exit
/// 101) on the write before.
#[test]
fn a_closed_stderr_keeps_the_exit_code_and_stdout() {
    let dir = scratch_dir("stderr");
    let missing = dir.join("missing.lgz");
    let (gc, slow, corpus, salvaged) = (
        fixture("tests/corpus/gc-storm-v3.lgz"),
        fixture("tests/corpus/slow-io-v3.lgz"),
        fixture("tests/corpus/corpus-v2.lgzc"),
        fixture("tests/corpus/salvaged-lock-contention-v3.lgz"),
    );
    for (args, code) in [
        (vec!["analyze", &gc], 0),
        (vec!["analyze", missing.to_str().unwrap()], 1),
        (vec!["patterns", &corpus], 2),
        (vec!["analyze", &salvaged, "--salvage"], 2),
        (vec!["stable", &gc, &slow], 0),
        (vec!["stable", &gc, &slow, &clean()], 0),
    ] {
        let open = lagalyzer(&args);
        assert_eq!(open.status.code(), Some(code), "{args:?}");
        assert!(!open.stderr.is_empty(), "{args:?} writes to stderr");
        run_with_stderr_closed(&args, code, &open.stdout);
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Fault-injected bytes, sealed or resealed, through every command
    /// that reads an input, with and without `--salvage`: the exit
    /// contract holds and `--jobs` 1 and 3 agree.
    #[test]
    fn fault_injected_inputs_keep_the_contract(seed in any::<u64>(), reseal in any::<bool>()) {
        let dir = scratch_dir(&format!("fuzz-{seed:016x}"));
        let (mut bytes, _) = FaultInjector::new(seed).inject(&std::fs::read(clean()).unwrap());
        if reseal {
            faults::reseal(&mut bytes, None);
        }
        let input = dir.join("faulted.lgz");
        std::fs::write(&input, &bytes).unwrap();
        let (input, out) = (input.to_str().unwrap(), dir.join("out.lgzc"));
        let clean = clean();
        for &(command, input_group, _) in COMMANDS {
            let salvage: &[&[&str]] = if input_group { &[&[], &["--salvage"]] } else { &[&[]] };
            for flags in salvage {
                let args = [argv(command, input, &clean, out.to_str().unwrap()), flags.to_vec()].concat();
                run_across_jobs(&args, command != "check", &out);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One test per defect the flag tables close; each exited 0 (or, in a
/// debug binary, panicked with 101) before them.
#[test]
fn unknown_flags_are_usage_errors_on_every_subcommand() {
    let dir = scratch_dir("unknown");
    let (clean, corpus) = (clean(), fixture("tests/corpus/corpus.lgzc"));
    let out = dir.join("out");
    let out = out.to_str().unwrap();
    let exp = dir.join("exp");
    let runs: Vec<Vec<&str>> = vec![
        vec!["apps"],
        vec!["help"],
        vec!["simulate", "--app", "CrosswordSage", "--out", out],
        vec![
            "experiments",
            "--out-dir",
            exp.to_str().unwrap(),
            "--sessions",
            "0",
        ],
        vec!["pack", &clean, "--out", out],
        vec!["compact", &corpus, "--out", out],
        vec!["analyze", &clean],
        vec!["patterns", &clean],
        vec!["outliers", &clean],
        vec!["hazards", &clean],
        vec!["sketch", &clean],
        vec!["timeline", &clean],
        vec!["stable", &clean],
        vec!["diff", &clean, &clean],
        vec!["lint", &clean],
        vec!["check", &clean],
    ];
    for args in runs {
        for typo in ["--no-cahce", "--min-lgs"] {
            let output = lagalyzer(&[&args[..], &[typo, "50"]].concat());
            assert_eq!(output.status.code(), Some(1), "{args:?} {typo}");
            assert!(output.stdout.is_empty(), "{args:?} {typo}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(typo), "{args:?}: {stderr}");
        }
    }
    assert!(!exp.exists() && !Path::new(out).exists(), "nothing ran");
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag its command would ignore on the input or the other flags given
/// is a usage error: exit 1, nothing printed or written, and the error
/// names the flag. Each of these exited as if the flag were absent before.
#[test]
fn flags_a_command_would_ignore_are_usage_errors() {
    let dir = scratch_dir("ignored");
    let (clean, corpus) = (clean(), fixture("tests/corpus/corpus.lgzc"));
    let text = fixture("../trace/tests/corpus/clean.txt");
    let (out, exp) = (dir.join("sim.lgz"), dir.join("exp"));
    let (out, exp) = (out.to_str().unwrap(), exp.to_str().unwrap());
    let sim = ["simulate", "--app", "CrosswordSage", "--out", out];
    let mut runs: Vec<(Vec<&str>, &str)> = vec![
        (vec!["sketch", &clean, "--gallery"], "--gallery"),
        (
            vec!["sketch", &clean, "--pattern", "0", "--episode", "1"],
            "--episode",
        ),
        (vec!["analyze", &corpus, "--histogram"], "--histogram"),
        (vec!["patterns", &corpus, "--sort", "total"], "--sort"),
        (vec!["patterns", &corpus, "--sort", "max"], "--sort"),
        (vec!["patterns", &corpus, "--sort", "perceptible"], "--sort"),
        ([&sim[..], &["--compress"]].concat(), "--compress"),
        (vec!["check", "--list-rules", &clean], "--list-rules"),
        (
            vec!["sketch", &clean, "--pattern", "0", "--gallery", "--ascii"],
            "--ascii",
        ),
        (
            vec!["check", "--list-rules", "--format", "json"],
            "--format",
        ),
        (
            vec!["check", "--list-rules", "--format", "text"],
            "--format",
        ),
        (vec!["check", "--list-rules", "--allow", "LA011"], "--allow"),
        (vec!["check", "--list-rules", "--deny", "LA011"], "--deny"),
        (
            vec!["check", "--list-rules", "--level", "LA011=note"],
            "--level",
        ),
        (
            vec!["check", "--list-rules", "--fix-report", out],
            "--fix-report",
        ),
        (
            vec!["experiments", "--out-dir", exp, "--sessions", "0"],
            "--sessions",
        ),
        (vec!["check", &clean, "--session", "0"], "--session"),
        (
            vec!["check", &corpus, "--session", "0", "--no-cache"],
            "--session",
        ),
    ];
    for command in [
        "analyze", "patterns", "outliers", "hazards", "sketch", "timeline", "stable", "diff",
    ] {
        // `stable` and `diff` refuse `--session K` when no input is a
        // corpus.
        for input in [clean.as_str(), text.as_str()] {
            let mut args = vec![command, input, "--session", "0"];
            if matches!(command, "stable" | "diff") {
                args.insert(2, &clean);
            }
            runs.push((args, "--session"));
        }
        let mut args = vec![command, &corpus, "--salvage"];
        if matches!(command, "stable" | "diff") {
            args.extend([corpus.as_str(), "--session", "0"]);
        }
        runs.push((args, "--salvage"));
    }
    for (args, flag) in runs {
        let output = lagalyzer(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    assert!(
        !Path::new(out).exists() && !Path::new(exp).exists(),
        "nothing was written"
    );
    // Where the flags act, they are accepted.
    for args in [
        vec!["sketch", &clean, "--pattern", "0", "--gallery"],
        vec!["analyze", &corpus, "--session", "0", "--histogram"],
        vec!["patterns", &corpus, "--session", "0", "--sort", "total"],
        vec!["patterns", &corpus, "--sort", "count"],
        vec!["check", "--list-rules"],
        vec!["sketch", &clean, "--pattern", "0", "--ascii"],
        vec![
            "check", &clean, "--format", "json", "--allow", "LA011", "--deny", "LA012",
        ],
        vec![
            "check",
            &clean,
            "--level",
            "LA011=note",
            "--fix-report",
            out,
        ],
        vec!["check", &clean, "--no-cache"],
        vec!["analyze", &clean, "--salvage"],
        vec!["analyze", &text, "--salvage"],
        vec!["stable", &clean, &text, "--salvage"],
        vec!["diff", &clean, &clean, "--salvage"],
        vec!["stable", &clean, &corpus, "--session", "0"],
        vec!["stable", &text, &corpus, "--session", "0"],
        vec!["diff", &clean, &corpus, "--session", "0"],
        vec!["diff", &text, &corpus, "--session", "0"],
    ] {
        let code = lagalyzer(&args).status.code();
        assert!(matches!(code, Some(0 | 2)), "{args:?}: {code:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn millisecond_values_that_overflow_are_usage_errors() {
    let clean = clean();
    for (command, flag) in [
        ("analyze", "--min-lag"),
        ("analyze", "--since-ms"),
        ("analyze", "--until-ms"),
        ("analyze", "--threshold-ms"),
        ("outliers", "--min-excess-ms"),
    ] {
        for no_cache in [&[][..], &["--no-cache"]] {
            let args = [&[command, clean.as_str(), flag, OVER_MS][..], no_cache].concat();
            let output = lagalyzer(&args);
            assert_eq!(output.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(flag) && stderr.contains(MAX_MS), "{stderr}");
            // The largest value that fits is a valid one.
            let args = [&[command, clean.as_str(), flag, MAX_MS][..], no_cache].concat();
            assert_eq!(lagalyzer(&args).status.code(), Some(0), "{args:?}");
        }
    }
}

#[test]
fn an_inverted_window_is_a_usage_error_and_equal_bounds_a_point_window() {
    let clean = clean();
    let output = lagalyzer(&["analyze", &clean, "--since-ms", "5000", "--until-ms", "10"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--since-ms"));
    // `EpisodeFilter::window` is inclusive: the episodes overlapping the
    // instant stay, for the cold path as for the warm one.
    let point = [
        "analyze",
        &clean,
        "--since-ms",
        "5000",
        "--until-ms",
        "5000",
    ];
    let warm = lagalyzer(&point);
    let cold = lagalyzer(&[&point[..], &["--no-cache"]].concat());
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(warm.stdout, cold.stdout);
}

#[test]
fn session_counts_past_u32_are_usage_errors_before_any_work() {
    let dir = scratch_dir("u32");
    let out = dir.join("sim.lgz");
    let exp = dir.join("exp");
    for args in [
        vec![
            "simulate",
            "--app",
            "CrosswordSage",
            "--session",
            "4294967296",
            "--out",
            out.to_str().unwrap(),
        ],
        vec![
            "simulate",
            "--app",
            "CrosswordSage",
            "--sessions",
            "4294967296",
            "--out",
            out.to_str().unwrap(),
        ],
        vec![
            "experiments",
            "--sessions",
            "4294967296",
            "--out-dir",
            exp.to_str().unwrap(),
        ],
    ] {
        let output = lagalyzer(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&output.stderr).contains("4294967295"));
    }
    assert!(!out.exists() && !exp.exists(), "nothing was simulated");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_extra_and_repeated_arguments_are_usage_errors() {
    let clean = clean();
    for args in [
        vec!["analyze", &clean, &clean],
        vec!["analyze"],
        vec!["diff", &clean],
        vec!["diff", &clean, &clean, &clean],
        vec!["lint", &clean, &clean],
        vec!["check", &clean, &clean],
        vec!["analyze", &clean, "--jobs", "1", "--jobs", "2"],
        vec!["analyze", &clean, "--histogram", "--histogram"],
        vec!["analyze", &clean, "--jobs"],
        vec!["analyze", &clean, "--jobs", "x"],
        vec!["analyze", &clean, "--format", "xml"],
        vec!["analyze", &clean, "--session", "-1"],
        vec!["pack", &clean],
    ] {
        let output = lagalyzer(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
    // Repeatable flags stay repeatable; a value may start with `-`.
    let output = lagalyzer(&["check", &clean, "--allow", "LA011", "--allow", "LA012"]);
    assert_eq!(output.status.code(), Some(0));
    let output = lagalyzer(&["outliers", &clean, "--mad-k", "-1"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("positive"));
}

#[test]
fn help_matches_golden() {
    let help = lagalyzer(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    let help = String::from_utf8(help.stdout).unwrap();
    for (alias, args) in [
        ("no args", &[][..]),
        ("--help", &["--help"]),
        ("-h", &["-h"]),
    ] {
        assert_eq!(lagalyzer(args).stdout, help.as_bytes(), "{alias}");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/EXPECTED_HELP.txt");
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        std::fs::write(&path, &help).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .expect("tests/corpus/EXPECTED_HELP.txt missing — run with LAGALYZER_REGEN_CORPUS=1");
    assert_eq!(
        help, expected,
        "help drifted from tests/corpus/EXPECTED_HELP.txt; if intended, regenerate with \
         LAGALYZER_REGEN_CORPUS=1 and commit the diff"
    );
}

/// The flags `<command> --help` lists.
fn help_flags(command: &str) -> BTreeSet<String> {
    let output = lagalyzer(&[command, "--help"]);
    assert_eq!(output.status.code(), Some(0), "{command} --help");
    let help = String::from_utf8(output.stdout).unwrap();
    assert!(
        help.starts_with(&format!("usage: lagalyzer {command}")),
        "{help}"
    );
    help.split_whitespace()
        .map(|w| w.trim_matches(|c| matches!(c, '[' | ']' | '.')).to_owned())
        .filter(|w| w.starts_with("--"))
        .collect()
}

/// Every command `help` lists answers `--help` with its own entry, and
/// every flag in README's `lagalyzer` command lines is in it.
#[test]
fn readme_flags_are_in_each_commands_help() {
    let readme = std::fs::read_to_string(fixture("../../README.md")).unwrap();
    let mut checked = 0;
    for line in readme.lines().filter_map(|l| l.strip_prefix("$ ")) {
        let Some((_, invocation)) = line
            .split_once("lagalyzer-cli -- ")
            .or_else(|| line.split_once("lagalyzer "))
        else {
            continue;
        };
        let invocation = invocation.split('#').next().unwrap();
        let mut words = invocation.split_whitespace();
        let command = words.next().unwrap();
        let listed = help_flags(command);
        for flag in words.filter(|w| w.starts_with("--")) {
            assert!(
                listed.contains(flag),
                "README: `{line}`: {command} --help lacks {flag}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} README flags found");
}
