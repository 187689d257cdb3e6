//! Golden corpus-container fixture and end-to-end tests for the corpus
//! subcommands (`pack`, `compact`, corpus-aware `analyze`/`lint`).
//!
//! `tests/corpus/corpus-v2.lgzc` is a four-session `.lgzc` built from the
//! committed v3 single-trace fixtures (three clean ground-truth scenarios
//! plus the fault-injected salvaged variant) and locked to that generator;
//! `tests/corpus/corpus.lgzc` is the same corpus in format v1, written
//! before v2 existed and frozen since. For each, the exact corpus-wide
//! `analyze --format json` stdout, the `lint` stdout, and both exit codes
//! are locked in `tests/corpus/EXPECTED_CORPUS.txt` (v1) and
//! `tests/corpus/EXPECTED_CORPUS_V2.txt` (v2). To regenerate after an
//! intentional format change:
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-cli --test corpus_cli
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};

use lagalyzer_core::{AnalysisConfig, AnalysisSession, MultiPatternSet, PatternSet, SessionDiff};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{faults, IndexedTrace};

#[path = "support/reports.rs"]
mod reports;
use reports::{diff_text, stable_text};

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

/// A committed corpus, the single-trace fixtures it was packed from (three
/// clean scenarios opened strictly, then the damaged one through the
/// salvage path) and the file its snapshot is locked in.
struct Fixture {
    corpus: &'static str,
    clean: [&'static str; 3],
    salvaged: &'static str,
    expected: &'static str,
}

/// The frozen v1 corpus, packed from the frozen v2 traces.
const V1: Fixture = Fixture {
    corpus: "corpus.lgzc",
    clean: ["gc-storm.lgz", "lock-contention.lgz", "slow-io.lgz"],
    salvaged: "salvaged-lock-contention.lgz",
    expected: "EXPECTED_CORPUS.txt",
};

/// The generated v2 corpus, packed from the v3 traces.
const V2: Fixture = Fixture {
    corpus: "corpus-v2.lgzc",
    clean: [
        "gc-storm-v3.lgz",
        "lock-contention-v3.lgz",
        "slow-io-v3.lgz",
    ],
    salvaged: "salvaged-lock-contention-v3.lgz",
    expected: "EXPECTED_CORPUS_V2.txt",
};

const FIXTURES: [Fixture; 2] = [V1, V2];

/// Packs a fixture's members as the `pack` subcommand would — `pack` is
/// deterministic, so the corpus is reproducible byte-for-byte.
fn pack_members(fixture: &Fixture) -> Vec<u8> {
    let dir = corpus_dir();
    let mut opened: Vec<IndexedTrace> = fixture
        .clean
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
            IndexedTrace::open(bytes).unwrap()
        })
        .collect();
    let damaged = std::fs::read(dir.join(fixture.salvaged)).unwrap();
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
    if regen {
        // Only the v2 corpus has a generator; the v1 one is frozen.
        std::fs::write(dir.join(V2.corpus), pack_members(&V2)).unwrap();
    }
    for fixture in FIXTURES {
        let path = dir.join(fixture.corpus);
        assert!(
            path.exists(),
            "{} missing — run with LAGALYZER_REGEN_CORPUS=1",
            fixture.corpus
        );
        let actual = snapshot(&path);
        if regen {
            std::fs::write(dir.join(fixture.expected), actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(dir.join(fixture.expected)).unwrap_or_else(|_| {
            panic!(
                "tests/corpus/{} missing — run with LAGALYZER_REGEN_CORPUS=1",
                fixture.expected
            )
        });
        assert_eq!(
            actual, expected,
            "{}: corpus analyze/lint output changed; if intentional, regenerate \
             with LAGALYZER_REGEN_CORPUS=1 and commit the diff",
            fixture.corpus
        );
    }
}

/// The committed v2 corpus bytes are locked to their generator (`pack`
/// over the committed v3 `.lgz` fixtures), so a format change cannot
/// drift past review unnoticed. `pack` copies episode bytes and
/// recomputes every checksum, so packing the frozen v2 traces writes the
/// same corpus, and the frozen v1 corpus is that corpus under FNV-1a.
#[test]
fn corpus_fixture_matches_generator() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the snapshot test just rewrote it
    }
    let on_disk = std::fs::read(corpus_dir().join(V2.corpus))
        .expect("corpus-v2.lgzc unreadable — run with LAGALYZER_REGEN_CORPUS=1");
    assert_eq!(on_disk[7], 2);
    assert_eq!(
        on_disk,
        pack_members(&V2),
        "corpus-v2.lgzc no longer matches `pack` over the v3 .lgz fixtures; if \
         the format change is intentional, regenerate with LAGALYZER_REGEN_CORPUS=1"
    );
    assert_eq!(pack_members(&V1), on_disk);
    let frozen = std::fs::read(corpus_dir().join(V1.corpus)).unwrap();
    assert_eq!((frozen[7], frozen.len()), (1, on_disk.len()));
}

/// `lint` on a corpus prints one index-health line per session plus the
/// aggregate verdict, and keeps the 0/1/2/3 exit contract: the fixture
/// corpus has one damaged member, so it exits 2.
#[test]
fn lint_reports_per_session_health_and_aggregate_verdict() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the fixture is being rewritten concurrently
    }
    for fixture in FIXTURES {
        let path = corpus_dir().join(fixture.corpus);
        let output = lagalyzer(&["lint", path.to_str().unwrap()]);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{}: damaged member corpus exits 2",
            fixture.corpus
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
}

/// A corpus of only clean members lints clean and exits 0; garbage with
/// a corpus magic exits 3; a missing file exits 1.
#[test]
fn lint_exit_contract_on_corpora() {
    let dir = scratch_dir();
    let clean_path = dir.join("clean.lgzc");
    let opened: Vec<IndexedTrace> = V2
        .clean
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
    for version in [1, 2, 3] {
        let mut garbage = b"LGLZCRP".to_vec();
        garbage.push(version);
        garbage.extend_from_slice(&[0u8; 64]);
        std::fs::write(&garbage_path, garbage).unwrap();
        let output = lagalyzer(&["lint", garbage_path.to_str().unwrap()]);
        assert_eq!(
            output.status.code(),
            Some(3),
            "unrecoverable v{version} corpus exits 3"
        );
        assert!(String::from_utf8(output.stdout)
            .unwrap()
            .contains("unrecoverable"));
    }

    let output = lagalyzer(&["lint", dir.join("no-such.lgzc").to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "I/O error exits 1");
}

/// A corpus whose member 1 has an LZ payload section that does not
/// decompress, under a resealed trailer: it opens, so `lint` checks every
/// payload and reports the corpus unrecoverable as before, every command
/// that reads member 1 exits 3 with the decompression error, and the
/// intact members answer as in the undamaged corpus.
#[test]
fn a_payload_that_does_not_decompress_fails_only_its_member() {
    let opened: Vec<IndexedTrace> = V2
        .clean
        .iter()
        .map(|name| IndexedTrace::open(std::fs::read(corpus_dir().join(name)).unwrap()).unwrap())
        .collect();
    let intact = corpus::pack(&opened, PackOptions { compress: true }).unwrap();
    let damaged = faults::break_lz_payload(&intact, 1).unwrap();
    let want = CorpusReader::open(damaged.clone())
        .unwrap()
        .session(1)
        .source()
        .decode(1)
        .unwrap_err()
        .to_string();
    // The same file name in two directories, so outputs that name the
    // file compare equal.
    let dirs = [
        scratch_dir().join("lz-intact"),
        scratch_dir().join("lz-damaged"),
    ];
    for (dir, bytes) in dirs.iter().zip([intact, damaged]) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("members.lgzc"), bytes).unwrap();
    }
    let run = |dir: &PathBuf, args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
            .args(args)
            .current_dir(dir)
            .output()
            .expect("binary runs")
    };
    let lint = run(&dirs[1], &["lint", "members.lgzc"]);
    assert_eq!(lint.status.code(), Some(3));
    assert_eq!(
        String::from_utf8(lint.stdout).unwrap(),
        format!("unrecoverable: {want}\n")
    );
    assert!(lint.stderr.is_empty());

    let failure = format!("error: cannot load members.lgzc: {want}\n");
    for args in [
        &["analyze", "members.lgzc"][..],
        &["analyze", "members.lgzc", "--format", "json", "--jobs", "3"],
        &["patterns", "members.lgzc"],
        &["hazards", "members.lgzc"],
        &["stable", "members.lgzc"],
        &["analyze", "members.lgzc", "--session", "1"],
        &["patterns", "members.lgzc", "--session", "1", "--no-cache"],
        &["outliers", "members.lgzc", "--session", "1"],
        &["hazards", "members.lgzc", "--session", "1", "--jobs", "3"],
        &[
            "sketch",
            "members.lgzc",
            "--session",
            "1",
            "--episode",
            "3",
            "--ascii",
        ],
        &["timeline", "members.lgzc", "--session", "1"],
        &["diff", "members.lgzc", "members.lgzc", "--session", "1"],
        &["compact", "members.lgzc", "--out", "compacted.lgzc"],
    ] {
        let output = run(&dirs[1], args);
        assert_eq!(output.status.code(), Some(3), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8(output.stderr).unwrap(),
            failure,
            "{args:?}"
        );
    }

    for session in ["0", "2"] {
        for args in [
            &["analyze", "members.lgzc", "--session", session][..],
            &[
                "analyze",
                "members.lgzc",
                "--session",
                session,
                "--no-cache",
                "--jobs",
                "3",
            ],
            &["patterns", "members.lgzc", "--session", session],
            &[
                "outliers",
                "members.lgzc",
                "--session",
                session,
                "--no-cache",
            ],
            &["hazards", "members.lgzc", "--session", session],
            &[
                "sketch",
                "members.lgzc",
                "--session",
                session,
                "--episode",
                "3",
                "--ascii",
            ],
            &["timeline", "members.lgzc", "--session", session],
            &["diff", "members.lgzc", "members.lgzc", "--session", session],
        ] {
            let (want, got) = (run(&dirs[0], args), run(&dirs[1], args));
            assert_eq!(got.status.code(), want.status.code(), "{args:?}");
            assert_eq!(got.stdout, want.stdout, "{args:?}");
            assert_eq!(got.stderr, want.stderr, "{args:?}");
            assert!(!got.stdout.is_empty(), "{args:?}");
        }
    }
}

/// `check` runs the rules over one trace, so a corpus is a usage error
/// (exit 1) naming corpus files, like `analyze --check`, not an
/// unrecoverable trace (exit 3); `--session K`, which could only pick a
/// corpus member, is refused as a flag `check` does not take.
#[test]
fn check_on_a_corpus_is_a_usage_error() {
    for fixture in FIXTURES {
        let path = corpus_dir().join(fixture.corpus);
        let path = path.to_str().unwrap();
        for (args, named) in [
            (&["check", path][..], "not supported on corpus files"),
            (&["check", path, "--session", "0"], "--session"),
            (
                &["check", path, "--format", "json"],
                "not supported on corpus files",
            ),
            (
                &["analyze", path, "--check"],
                "not supported on corpus files",
            ),
        ] {
            let output = lagalyzer(args);
            assert_eq!(output.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8(output.stderr).unwrap();
            assert!(stderr.contains(named), "{args:?}: {stderr}");
            assert!(output.stdout.is_empty(), "{args:?}");
        }
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
    for fixture in FIXTURES {
        session_selector_matches_members(&fixture);
    }
}

fn session_selector_matches_members(fixture: &Fixture) {
    let corpus_path = corpus_dir().join(fixture.corpus);
    let corpus_path = corpus_path.to_str().unwrap();
    for (i, name) in fixture.clean.iter().enumerate() {
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
    for fixture in FIXTURES {
        members_answer_warm(&fixture);
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

/// Every clean member of `fixture`'s corpus answers warm exactly as its
/// `.lgz` file and the cold decode do; the salvaged member stays cold.
fn members_answer_warm(fixture: &Fixture) {
    let corpus_path = corpus_dir().join(fixture.corpus);
    let corpus_path = corpus_path.to_str().unwrap();
    for command in ["analyze", "patterns", "outliers"] {
        for jobs in ["1", "2"] {
            for (i, name) in fixture.clean.iter().enumerate() {
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
}

/// The members of the corpus at `path`, each decoded through the library.
fn decoded_members(path: &str) -> Vec<AnalysisSession> {
    let reader = CorpusReader::open(std::fs::read(path).unwrap()).unwrap();
    reader
        .sessions()
        .map(|view| {
            let trace = view.source().decode(1).unwrap();
            AnalysisSession::new(trace, AnalysisConfig::default())
        })
        .collect()
}

/// The `.lgz` at `path`, decoded through the library.
fn decoded_file(path: &str) -> AnalysisSession {
    let trace = IndexedTrace::open(std::fs::read(path).unwrap())
        .unwrap()
        .par_decode(1)
        .unwrap();
    AnalysisSession::new(trace, AnalysisConfig::default())
}

/// `stable` takes a whole corpus as one trace per member: it prints the
/// library's `MultiPatternSet::merge` over the members' pattern sets,
/// warm or cold and at any `--jobs`, and exits 2 because member 3 is
/// damaged. Beside a `.lgz`, `--session K` selects member K.
#[test]
fn stable_takes_a_corpus_as_one_trace_per_member() {
    let corpus_path = corpus_dir().join(V2.corpus);
    let corpus_path = corpus_path.to_str().unwrap();
    let sets: Vec<PatternSet> = decoded_members(corpus_path)
        .iter()
        .map(AnalysisSession::mine_patterns)
        .collect();
    let whole = stable_text(&MultiPatternSet::merge(&sets));
    for cache in [&[][..], &["--no-cache"]] {
        for jobs in ["1", "3"] {
            let args = [&["stable", corpus_path, "--jobs", jobs][..], cache].concat();
            let output = lagalyzer(&args);
            assert_eq!(output.status.code(), Some(2), "{args:?}");
            assert_eq!(String::from_utf8(output.stdout).unwrap(), whole, "{args:?}");
        }
    }
    let gc_path = corpus_dir().join(V2.clean[0]);
    let gc_path = gc_path.to_str().unwrap();
    let gc = decoded_file(gc_path).mine_patterns();
    for (k, set) in sets.iter().enumerate() {
        let k_arg = k.to_string();
        let args = ["stable", corpus_path, gc_path, "--session", &k_arg];
        let output = lagalyzer(&args);
        let want = stable_text(&MultiPatternSet::merge(&[set.clone(), gc.clone()]));
        let code = if k == 3 { 2 } else { 0 };
        assert_eq!(output.status.code(), Some(code), "{args:?}");
        assert_eq!(String::from_utf8(output.stdout).unwrap(), want, "{args:?}");
    }
}

/// `diff` of a corpus member against a `.lgz`: `--session K` selects
/// member K, and the report is the library's `SessionDiff` of that
/// member's trace against the `.lgz`. A whole corpus still has to select
/// a member.
#[test]
fn diff_takes_a_corpus_member_beside_a_trace() {
    let corpus_path = corpus_dir().join(V2.corpus);
    let corpus_path = corpus_path.to_str().unwrap();
    let gc_path = corpus_dir().join(V2.clean[0]);
    let gc_path = gc_path.to_str().unwrap();
    let gc = decoded_file(gc_path);
    for (k, member) in decoded_members(corpus_path).iter().enumerate() {
        let k_arg = k.to_string();
        let args = ["diff", corpus_path, gc_path, "--session", &k_arg];
        let output = lagalyzer(&args);
        let code = if k == 3 { 2 } else { 0 };
        assert_eq!(output.status.code(), Some(code), "{args:?}");
        let want = diff_text(&SessionDiff::between(member, &gc));
        assert_eq!(String::from_utf8(output.stdout).unwrap(), want, "{args:?}");
    }
    let whole = lagalyzer(&["diff", corpus_path, gc_path]);
    assert_eq!(whole.status.code(), Some(1));
    assert!(whole.stdout.is_empty());
    assert!(String::from_utf8_lossy(&whole.stderr).contains("--session K"));
}

/// `pack` through the binary, then corpus-wide `analyze` at several job
/// counts: byte-identical stdout, and the pack summary reports the
/// symbol dedup.
#[test]
fn pack_and_corpus_analyze_through_the_binary() {
    let dir = scratch_dir();
    let out = dir.join("packed.lgzc");
    let mut args = vec!["pack"];
    let paths: Vec<String> = V2
        .clean
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
    let src = corpus_dir().join(V1.corpus);
    let once = dir.join("once.lgzc");
    let twice = dir.join("twice.lgzc");
    let from_v2 = dir.join("from-v2.lgzc");
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
    let once_bytes = std::fs::read(&once).unwrap();
    assert_eq!(once_bytes[7], 2, "compacting a v1 corpus writes v2");
    assert_eq!(
        once_bytes,
        std::fs::read(&twice).unwrap(),
        "compact must be idempotent"
    );
    let src_v2 = corpus_dir().join(V2.corpus);
    let output = lagalyzer(&[
        "compact",
        src_v2.to_str().unwrap(),
        "--out",
        from_v2.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(
        once_bytes,
        std::fs::read(&from_v2).unwrap(),
        "the v1 and v2 corpora compact to the same bytes"
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
