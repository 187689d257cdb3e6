//! Golden-corpus snapshot test: every fixture under `tests/corpus/` has
//! its strict-decode outcome, salvage-decode outcome, and full semantic
//! `check --format json` report locked in `tests/corpus/EXPECTED.txt`.
//!
//! The binary fixtures come in two sets. The `*-v3.lgz` set (with
//! `version-skew-v4.lgz`) and the text, legacy-v1 and garbage fixtures are
//! derived from [`base_trace`] by today's writers and locked to that
//! generator. The unsuffixed `.lgz` set was written by the v2 writer,
//! which no longer exists: those bytes are frozen, and only their
//! outcomes are locked, so v2 traces keep decoding, salvaging and
//! checking as they always did.
//!
//! To regenerate the generated fixtures and the snapshot after an
//! intentional format change:
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-trace --test corpus
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use lagalyzer_model::prelude::*;
use lagalyzer_trace::faults::{self, Fault};
use lagalyzer_trace::{binary, read_bytes, read_bytes_salvage, text, TraceError};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

/// The deterministic session every binary fixture derives from.
fn base_trace() -> SessionTrace {
    let meta = SessionMeta {
        application: "CorpusApp".into(),
        session: SessionId::from_raw(7),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(300),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let paint = b.symbols_mut().method("javax.swing.JFrame", "paint");
    let handle = b.symbols_mut().method("org.app.Main", "handle");
    let mut cursor = 0u64;
    for i in 0..3u32 {
        let start = TimeNs::from_millis(cursor);
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, start).unwrap();
        t.leaf(
            IntervalKind::Listener,
            Some(handle),
            TimeNs::from_millis(cursor + 2),
            TimeNs::from_millis(cursor + 30),
        )
        .unwrap();
        t.leaf(
            IntervalKind::Paint,
            Some(paint),
            TimeNs::from_millis(cursor + 35),
            TimeNs::from_millis(cursor + 70),
        )
        .unwrap();
        t.exit(TimeNs::from_millis(cursor + 80)).unwrap();
        let snap = SampleSnapshot::new(
            TimeNs::from_millis(cursor + 40),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![StackFrame::java(paint)],
            )],
        );
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(i), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .sample(snap)
                .build()
                .unwrap(),
        )
        .unwrap();
        cursor += 100;
    }
    b.push_gc(GcEvent {
        start: TimeNs::from_millis(10),
        end: TimeNs::from_millis(14),
        major: false,
    });
    b.add_short_episodes(42, DurationNs::from_millis(90));
    b.finish()
}

/// The frozen v2 fixtures, written by the v2 writer: damaged the same
/// ways as their `-v3` counterparts below, except `version-skew.lgz`,
/// whose byte 7 reads 3 — a known version since v3, so it now fails the
/// v3 checksum instead of skewing.
const FROZEN_V2: [&str; 9] = [
    "clean.lgz",
    "truncated.lgz",
    "bitflip.lgz",
    "version-skew.lgz",
    "checksum-mismatch.lgz",
    "deleted-record.lgz",
    "duplicated-record.lgz",
    "inflated-length.lgz",
    "inflated-count.lgz",
];

/// Every fixture, in snapshot order: the frozen v2 ones keep their
/// places from before v3 existed, and the v3 set follows.
fn snapshot_names() -> Vec<&'static str> {
    let mut names = vec![
        "clean.lgz",
        "legacy-v1.lgz",
        "clean.txt",
        "truncated.lgz",
        "bitflip.lgz",
        "version-skew.lgz",
        "checksum-mismatch.lgz",
        "deleted-record.lgz",
        "duplicated-record.lgz",
        "inflated-length.lgz",
        "inflated-count.lgz",
        "truncated.txt",
        "garbled-line.txt",
        "version-skew.txt",
        "garbage.bin",
    ];
    for (name, _) in fixtures() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// The generated corpus: `(file name, fixture bytes)`, derived
/// deterministically.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    let trace = base_trace();
    let mut bin = Vec::new();
    binary::write(&trace, &mut bin).unwrap();
    assert_eq!(bin[7], 3, "the writer emits v3");
    let mut txt = Vec::new();
    text::write(&trace, &mut txt).unwrap();

    let mut legacy = Vec::new();
    binary::write_legacy(&trace, &mut legacy).unwrap();
    let mut version_skew = bin.clone();
    version_skew[7] = 4;
    let mut checksum_mismatch = bin.clone();
    let last = checksum_mismatch.len() - 1;
    checksum_mismatch[last] ^= 0xff;
    let mut bitflip = bin.clone();
    bitflip[bin.len() / 2] ^= 0x10;

    let mut truncated_txt = txt[..txt.len() * 2 / 3].to_vec();
    truncated_txt.truncate(truncated_txt.len());
    let garbled_txt = {
        let s = String::from_utf8(txt.clone()).unwrap();
        let mut lines: Vec<String> = s.lines().map(str::to_owned).collect();
        let mid = lines.len() / 2;
        lines[mid] = "en\u{fffd}ter ?? garbled".into();
        lines.join("\n") + "\n"
    };
    let skew_txt = {
        let s = String::from_utf8(txt.clone()).unwrap();
        s.replacen("lagalyzer-trace v1", "lagalyzer-trace v9", 1)
    };

    vec![
        ("legacy-v1.lgz", legacy),
        ("clean.txt", txt.clone()),
        ("truncated.txt", truncated_txt),
        ("garbled-line.txt", garbled_txt.into_bytes()),
        ("version-skew.txt", skew_txt.into_bytes()),
        (
            "garbage.bin",
            b"\x7fELF not a trace at all\x00\x01\x02".to_vec(),
        ),
        ("clean-v3.lgz", bin.clone()),
        ("truncated-v3.lgz", bin[..bin.len() * 2 / 3].to_vec()),
        ("bitflip-v3.lgz", bitflip),
        ("version-skew-v4.lgz", version_skew),
        ("checksum-mismatch-v3.lgz", checksum_mismatch),
        (
            "deleted-record-v3.lgz",
            Fault::DeleteRecord { index: 5 }.apply(&bin),
        ),
        (
            "duplicated-record-v3.lgz",
            Fault::DuplicateRecord { index: 3 }.apply(&bin),
        ),
        (
            "inflated-length-v3.lgz",
            Fault::InflateLength { index: 0 }.apply(&bin),
        ),
        ("inflated-count-v3.lgz", Fault::InflateCount.apply(&bin)),
    ]
}

/// A committed fixture's bytes.
fn on_disk(name: &str) -> Vec<u8> {
    std::fs::read(corpus_dir().join(name))
        .unwrap_or_else(|e| panic!("corpus fixture {name} unreadable: {e}"))
}

fn strict_outcome(bytes: &[u8]) -> String {
    match read_bytes(bytes) {
        Ok(trace) => format!("ok(episodes={})", trace.episodes().len()),
        Err(TraceError::Io(_)) => "err(io)".into(),
        Err(TraceError::Corrupt { context, .. }) => format!("err(corrupt:{context})"),
        Err(TraceError::Model(_)) => "err(model)".into(),
        Err(TraceError::UnsupportedVersion { found }) => format!("err(version:{found})"),
        Err(TraceError::ChecksumMismatch { .. }) => "err(checksum)".into(),
        Err(_) => "err(other)".into(),
    }
}

fn salvage_outcome(bytes: &[u8]) -> String {
    match read_bytes_salvage(bytes) {
        Err(_) => "unrecoverable".into(),
        Ok(salvaged) => {
            let r = &salvaged.report;
            let checksum = match r.checksum_ok {
                Some(true) => "ok",
                Some(false) => "bad",
                None => "none",
            };
            format!(
                "{} recovered={} lost={} skips={} bytes_skipped={} lines_skipped={} checksum={}",
                if r.is_clean() { "clean" } else { "damaged" },
                r.episodes_recovered,
                r.episodes_lost,
                r.skips.len(),
                r.bytes_skipped,
                r.lines_skipped,
                checksum,
            )
        }
    }
}

/// The fixture's semantic-check report, exactly as `lagalyzer check
/// --format json` would print it (keyed by fixture name, not path, so
/// the snapshot is machine-independent). Run twice to lock in that the
/// checker is deterministic: a report that varies between runs would
/// make the snapshot flaky, so instability fails here, loudly.
fn check_outcome(name: &str, bytes: &[u8]) -> String {
    let render = || match lagalyzer_check::check_bytes(
        bytes.to_vec(),
        &mut lagalyzer_check::RuleSet::standard(),
    ) {
        Err(_) => "unrecoverable".to_owned(),
        Ok(report) => report.render_json(name),
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "{name}: check report unstable across runs");
    first
}

fn snapshot_line(name: &str, bytes: &[u8]) -> String {
    format!(
        "{name}: strict={} salvage={}\n{name}: check={}",
        strict_outcome(bytes),
        salvage_outcome(bytes),
        check_outcome(name, bytes),
    )
}

#[test]
fn corpus_outcomes_match_snapshot() {
    let dir = corpus_dir();
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        // Only the generated fixtures are rewritten; the frozen v2 ones
        // have no generator left.
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in fixtures() {
            std::fs::write(dir.join(name), &bytes).unwrap();
        }
        let mut expected = String::new();
        for name in snapshot_names() {
            writeln!(expected, "{}", snapshot_line(name, &on_disk(name))).unwrap();
        }
        std::fs::write(dir.join("EXPECTED.txt"), expected).unwrap();
        return;
    }

    let expected = std::fs::read_to_string(dir.join("EXPECTED.txt"))
        .expect("tests/corpus/EXPECTED.txt missing — run with LAGALYZER_REGEN_CORPUS=1");
    let mut actual = String::new();
    for name in snapshot_names() {
        writeln!(actual, "{}", snapshot_line(name, &on_disk(name))).unwrap();
    }
    assert_eq!(
        actual, expected,
        "corpus outcomes changed; if intentional, regenerate with \
         LAGALYZER_REGEN_CORPUS=1 and commit the diff"
    );
}

/// The committed fixture bytes themselves are locked too: a format change
/// that alters the encoder must be deliberate.
#[test]
fn corpus_fixtures_match_generator() {
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the snapshot test just rewrote them
    }
    for (name, bytes) in fixtures() {
        assert_eq!(
            on_disk(name),
            bytes,
            "fixture {name} no longer matches its generator; if the format \
             change is intentional, regenerate with LAGALYZER_REGEN_CORPUS=1"
        );
    }
}

/// The frozen v2 fixtures and their v3 counterparts hold the same session
/// in the same layout: a clean v2 fixture re-stamped as v3 is the v3
/// writer's output byte for byte, and each damaged pair differs only in
/// the version byte and the checksums.
#[test]
fn frozen_v2_fixtures_are_the_v3_set_under_fnv() {
    let v2 = on_disk("clean.lgz");
    assert_eq!(v2[7], 2);
    let generated: std::collections::HashMap<_, _> = fixtures().into_iter().collect();
    assert_eq!(faults::with_version(&v2, 3), generated["clean-v3.lgz"]);
    assert_eq!(faults::with_version(&generated["clean-v3.lgz"], 2), v2);
    for name in FROZEN_V2 {
        let frozen = on_disk(name);
        let twin = if name == "version-skew.lgz" {
            "version-skew-v4.lgz".to_owned()
        } else {
            name.replace(".lgz", "-v3.lgz")
        };
        assert_eq!(
            frozen.len(),
            generated[twin.as_str()].len(),
            "{name} vs {twin}"
        );
    }
}

/// The rollup health a salvage open keeps for every committed fixture is
/// what `probe_rollup` judges from the same bytes.
#[test]
fn opened_rollup_health_matches_the_probe_on_every_fixture() {
    for name in snapshot_names() {
        let bytes = on_disk(name);
        let probed = lagalyzer_trace::probe_rollup(&bytes);
        if let Ok(opened) = lagalyzer_trace::IndexedTrace::open_salvage(bytes) {
            assert_eq!(opened.rollup_health(), probed.as_ref(), "{name}");
        }
    }
}

/// Salvage on the whole corpus never panics and bounds its work — even
/// for the deliberately absurd length/count fields.
#[test]
fn corpus_salvage_never_panics() {
    let all = snapshot_names()
        .into_iter()
        .map(|name| (name, on_disk(name)));
    for (name, bytes) in all {
        let _ = read_bytes_salvage(&bytes);
        // Also drive the strict path for parity.
        let _ = read_bytes(&bytes);
        // And every prefix of every fixture (cheap: corpus files are small).
        for cut in 0..bytes.len() {
            let _ = read_bytes_salvage(&bytes[..cut]);
        }
        eprintln!("corpus file {name}: ok");
    }
}
