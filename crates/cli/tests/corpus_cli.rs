//! Golden corpus-container fixture and end-to-end tests for the corpus
//! subcommands (`pack`, `compact`, corpus-aware `analyze`/`lint`).
//!
//! `tests/corpus/corpus.lgzc` is a four-session `.lgzc` built from the
//! committed single-trace fixtures (three clean ground-truth scenarios
//! plus the fault-injected salvaged variant); the exact corpus-wide
//! `analyze --format json` stdout, the `lint` stdout, and both exit
//! codes are locked in `tests/corpus/EXPECTED_CORPUS.txt`. To
//! regenerate after an intentional format change:
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-cli --test corpus_cli
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};

use lagalyzer_trace::corpus::{self, PackOptions};
use lagalyzer_trace::IndexedTrace;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-corpus-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The single-trace fixtures the corpus is packed from: three clean
/// scenarios opened strictly, the damaged one through the salvage path.
const CLEAN_MEMBERS: [&str; 3] = ["gc-storm.lgz", "lock-contention.lgz", "slow-io.lgz"];
const SALVAGED_MEMBER: &str = "salvaged-lock-contention.lgz";

/// Rebuilds the committed `corpus.lgzc` from the committed `.lgz`
/// fixtures — `pack` is deterministic, so the corpus is reproducible
/// byte-for-byte.
fn build_fixture_corpus() -> Vec<u8> {
    let dir = corpus_dir();
    let mut opened: Vec<IndexedTrace> = CLEAN_MEMBERS
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
            IndexedTrace::open(bytes).unwrap()
        })
        .collect();
    let damaged = std::fs::read(dir.join(SALVAGED_MEMBER)).unwrap();
    opened.push(IndexedTrace::open_salvage(damaged).unwrap());
    corpus::pack(&opened, PackOptions::default()).unwrap()
}

/// The snapshot: exit code and stdout of corpus-wide
/// `analyze --format json` and of `lint`, both on the fixture corpus.
fn snapshot(path: &std::path::Path) -> String {
    let mut out = String::new();
    for (label, args) in [
        (
            "analyze",
            vec![
                "analyze",
                path.to_str().unwrap(),
                "--format",
                "json",
                "--jobs",
                "2",
            ],
        ),
        ("lint", vec!["lint", path.to_str().unwrap()]),
    ] {
        let output = lagalyzer(&args);
        let code = output.status.code().expect("no signal/panic");
        let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
        writeln!(out, "{label}: exit={code}").unwrap();
        for line in stdout.trim_end().lines() {
            writeln!(out, "{label}: {line}").unwrap();
        }
    }
    out
}

#[test]
fn corpus_fixture_matches_snapshot() {
    let dir = corpus_dir();
    let regen = std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some();
    let path = dir.join("corpus.lgzc");
    if regen {
        std::fs::write(&path, build_fixture_corpus()).unwrap();
        let expected = snapshot(&path);
        std::fs::write(dir.join("EXPECTED_CORPUS.txt"), expected).unwrap();
        return;
    }
    assert!(
        path.exists(),
        "corpus.lgzc missing — run with LAGALYZER_REGEN_CORPUS=1"
    );
    let expected = std::fs::read_to_string(dir.join("EXPECTED_CORPUS.txt"))
        .expect("tests/corpus/EXPECTED_CORPUS.txt missing — run with LAGALYZER_REGEN_CORPUS=1");
    assert_eq!(
        snapshot(&path),
        expected,
        "corpus analyze/lint output changed; if intentional, regenerate with \
         LAGALYZER_REGEN_CORPUS=1 and commit the diff"
    );
}

/// The committed corpus bytes are locked to their generator (`pack` over
/// the committed `.lgz` fixtures), so a format change cannot drift past
/// review unnoticed.
#[test]
fn corpus_fixture_matches_generator() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the snapshot test just rewrote it
    }
    let on_disk = std::fs::read(corpus_dir().join("corpus.lgzc"))
        .expect("corpus.lgzc unreadable — run with LAGALYZER_REGEN_CORPUS=1");
    assert_eq!(
        on_disk,
        build_fixture_corpus(),
        "corpus.lgzc no longer matches `pack` over the .lgz fixtures; if the \
         format change is intentional, regenerate with LAGALYZER_REGEN_CORPUS=1"
    );
}

/// `lint` on a corpus prints one index-health line per session plus the
/// aggregate verdict, and keeps the 0/1/2/3 exit contract: the fixture
/// corpus has one damaged member, so it exits 2.
#[test]
fn lint_reports_per_session_health_and_aggregate_verdict() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the fixture is being rewritten concurrently
    }
    let path = corpus_dir().join("corpus.lgzc");
    let output = lagalyzer(&["lint", path.to_str().unwrap()]);
    assert_eq!(
        output.status.code(),
        Some(2),
        "damaged member corpus exits 2"
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        stdout.contains("corpus"),
        "missing corpus summary: {stdout}"
    );
    for i in 0..4 {
        assert!(
            stdout.contains(&format!("session {i}")),
            "missing session {i} line: {stdout}"
        );
    }
    assert!(
        stdout.contains("footer valid"),
        "missing index health: {stdout}"
    );
    assert!(
        stdout.contains("aggregate           damaged corpus"),
        "missing aggregate verdict: {stdout}"
    );
}

/// A corpus of only clean members lints clean and exits 0; garbage with
/// a corpus magic exits 3; a missing file exits 1.
#[test]
fn lint_exit_contract_on_corpora() {
    let dir = scratch_dir();
    let clean_path = dir.join("clean.lgzc");
    let opened: Vec<IndexedTrace> = CLEAN_MEMBERS
        .iter()
        .map(|name| IndexedTrace::open(std::fs::read(corpus_dir().join(name)).unwrap()).unwrap())
        .collect();
    std::fs::write(
        &clean_path,
        corpus::pack(&opened, PackOptions::default()).unwrap(),
    )
    .unwrap();
    let output = lagalyzer(&["lint", clean_path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("aggregate           clean"), "{stdout}");

    let garbage_path = dir.join("garbage.lgzc");
    let mut garbage = b"LGLZCRP\x01".to_vec();
    garbage.extend_from_slice(&[0u8; 64]);
    std::fs::write(&garbage_path, garbage).unwrap();
    let output = lagalyzer(&["lint", garbage_path.to_str().unwrap()]);
    assert_eq!(
        output.status.code(),
        Some(3),
        "unrecoverable corpus exits 3"
    );
    assert!(String::from_utf8(output.stdout)
        .unwrap()
        .contains("unrecoverable"));

    let output = lagalyzer(&["lint", dir.join("no-such.lgzc").to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "I/O error exits 1");
}

/// `check` runs the rules over one trace, so a corpus — with or without
/// `--session K` — is a usage error (exit 1) naming corpus files, like
/// `analyze --check`, not an unrecoverable trace (exit 3).
#[test]
fn check_on_a_corpus_is_a_usage_error() {
    let path = corpus_dir().join("corpus.lgzc");
    let path = path.to_str().unwrap();
    for args in [
        &["check", path][..],
        &["check", path, "--session", "0"],
        &["check", path, "--format", "json"],
        &["analyze", path, "--check"],
    ] {
        let output = lagalyzer(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains("not supported on corpus files"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

/// `--session K` selects one member for the single-session commands; the
/// result matches analyzing the original `.lgz` file, and the salvaged
/// member carries its exit-2 provenance through the corpus.
#[test]
fn session_selector_matches_single_file_analysis() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the fixture is being rewritten concurrently
    }
    let corpus_path = corpus_dir().join("corpus.lgzc");
    let corpus_path = corpus_path.to_str().unwrap();
    for (i, name) in CLEAN_MEMBERS.iter().enumerate() {
        let single_path = corpus_dir().join(name);
        let single = lagalyzer(&["analyze", single_path.to_str().unwrap(), "--jobs", "2"]);
        let via_corpus = lagalyzer(&[
            "analyze",
            corpus_path,
            "--session",
            &i.to_string(),
            "--jobs",
            "2",
        ]);
        assert_eq!(single.status.code(), Some(0));
        assert_eq!(via_corpus.status.code(), Some(0));
        assert_eq!(
            String::from_utf8(single.stdout).unwrap(),
            String::from_utf8(via_corpus.stdout).unwrap(),
            "corpus --session {i} must match analyzing {name} directly"
        );
    }
    let salvaged = lagalyzer(&["analyze", corpus_path, "--session", "3"]);
    assert_eq!(
        salvaged.status.code(),
        Some(2),
        "the salvaged member keeps its damaged provenance through the corpus"
    );
    let out_of_range = lagalyzer(&["analyze", corpus_path, "--session", "9"]);
    assert_eq!(out_of_range.status.code(), Some(1));
    let no_selector = lagalyzer(&["outliers", corpus_path]);
    assert_eq!(no_selector.status.code(), Some(1));
    assert!(
        String::from_utf8(no_selector.stderr)
            .unwrap()
            .contains("--session"),
        "the error must point at --session"
    );
}

/// `--session K` answers warm from the member's rollup: for every clean
/// member, `analyze`, `patterns` and `outliers` print exactly what the
/// member `.lgz` and the cold `--no-cache` decode print, at any `--jobs`,
/// and announce the cache hit. The salvaged member stays cold and exits 2.
#[test]
fn session_selector_answers_warm_from_the_member_rollup() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the fixture is being rewritten concurrently
    }
    let corpus_path = corpus_dir().join("corpus.lgzc");
    let corpus_path = corpus_path.to_str().unwrap();
    for command in ["analyze", "patterns", "outliers"] {
        for jobs in ["1", "2"] {
            for (i, name) in CLEAN_MEMBERS.iter().enumerate() {
                let k = i.to_string();
                let member_path = corpus_dir().join(name);
                let member = lagalyzer(&[command, member_path.to_str().unwrap(), "--jobs", jobs]);
                let warm = lagalyzer(&[command, corpus_path, "--session", &k, "--jobs", jobs]);
                let cold = lagalyzer(&[
                    command,
                    corpus_path,
                    "--session",
                    &k,
                    "--jobs",
                    jobs,
                    "--no-cache",
                ]);
                let ctx = format!("{command} --session {k} --jobs {jobs}");
                assert_eq!(warm.status.code(), Some(0), "{ctx}");
                assert_eq!(cold.status.code(), Some(0), "{ctx} --no-cache");
                assert_eq!(warm.stdout, member.stdout, "{ctx}: differs from {name}");
                assert_eq!(warm.stdout, cold.stdout, "{ctx}: differs from --no-cache");
                let err = String::from_utf8_lossy(&warm.stderr);
                assert!(err.contains("rollup: cache hit"), "{ctx}: {err}");
                let cold_err = String::from_utf8_lossy(&cold.stderr);
                assert!(!cold_err.contains("rollup: cache hit"), "{ctx}: {cold_err}");
            }
            let salvaged = lagalyzer(&[command, corpus_path, "--session", "3", "--jobs", jobs]);
            assert_eq!(salvaged.status.code(), Some(2), "{command} --session 3");
            let err = String::from_utf8_lossy(&salvaged.stderr);
            assert!(
                !err.contains("rollup: cache hit"),
                "{command} --session 3: {err}"
            );
        }
    }

    // The fixtures trace no short episodes; simulated sessions do, and a
    // warm member must report the counters its directory entry carries.
    let simulated = scratch_dir().join("short-counters.lgzc");
    let simulated = simulated.to_str().unwrap();
    let output = lagalyzer(&[
        "simulate",
        "--app",
        "CrosswordSage",
        "--seed",
        "11",
        "--sessions",
        "2",
        "--out",
        simulated,
    ]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    for k in ["0", "1"] {
        let warm = lagalyzer(&["analyze", simulated, "--session", k, "--histogram"]);
        let cold = lagalyzer(&[
            "analyze",
            simulated,
            "--session",
            k,
            "--histogram",
            "--no-cache",
        ]);
        assert!(String::from_utf8_lossy(&warm.stderr).contains("rollup: cache hit"));
        let stdout = String::from_utf8(warm.stdout).unwrap();
        assert!(!stdout.contains("episodes < 3ms    0\n"), "{stdout}");
        assert_eq!(stdout.as_bytes(), cold.stdout, "--session {k}");
    }
}

/// `pack` through the binary, then corpus-wide `analyze` at several job
/// counts: byte-identical stdout, and the pack summary reports the
/// symbol dedup.
#[test]
fn pack_and_corpus_analyze_through_the_binary() {
    let dir = scratch_dir();
    let out = dir.join("packed.lgzc");
    let mut args = vec!["pack"];
    let paths: Vec<String> = CLEAN_MEMBERS
        .iter()
        .map(|n| corpus_dir().join(n).to_str().unwrap().to_owned())
        .collect();
    args.extend(paths.iter().map(String::as_str));
    args.extend(["--out", out.to_str().unwrap()]);
    let output = lagalyzer(&args);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("deduplicated"), "{stdout}");

    let baseline = lagalyzer(&[
        "analyze",
        out.to_str().unwrap(),
        "--format",
        "json",
        "--jobs",
        "1",
    ]);
    assert_eq!(baseline.status.code(), Some(0));
    for jobs in ["2", "3", "8"] {
        let run = lagalyzer(&[
            "analyze",
            out.to_str().unwrap(),
            "--format",
            "json",
            "--jobs",
            jobs,
        ]);
        assert_eq!(run.status.code(), Some(0));
        assert_eq!(
            baseline.stdout, run.stdout,
            "corpus analyze differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

/// `compact` through the binary is idempotent and drops the salvaged
/// member's skipped bytes (the compacted corpus lints clean-history but
/// keeps the damaged provenance).
#[test]
fn compact_through_the_binary_is_idempotent() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the fixture is being rewritten concurrently
    }
    let dir = scratch_dir();
    let src = corpus_dir().join("corpus.lgzc");
    let once = dir.join("once.lgzc");
    let twice = dir.join("twice.lgzc");
    let output = lagalyzer(&[
        "compact",
        src.to_str().unwrap(),
        "--out",
        once.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let output = lagalyzer(&[
        "compact",
        once.to_str().unwrap(),
        "--out",
        twice.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(
        std::fs::read(&once).unwrap(),
        std::fs::read(&twice).unwrap(),
        "compact must be idempotent"
    );
    // Provenance survives: the salvaged member still exits 2.
    let salvaged = lagalyzer(&["analyze", once.to_str().unwrap(), "--session", "3"]);
    assert_eq!(salvaged.status.code(), Some(2));
}

/// `simulate --sessions N` writes a corpus the other commands accept.
#[test]
fn simulate_writes_a_corpus() {
    let dir = scratch_dir();
    let out = dir.join("simulated.lgzc");
    let output = lagalyzer(&[
        "simulate",
        "--app",
        "CrosswordSage",
        "--seed",
        "11",
        "--sessions",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let lint = lagalyzer(&["lint", out.to_str().unwrap()]);
    assert_eq!(lint.status.code(), Some(0));
    let stdout = String::from_utf8(lint.stdout).unwrap();
    assert!(stdout.contains("2 session(s)"), "{stdout}");
}
