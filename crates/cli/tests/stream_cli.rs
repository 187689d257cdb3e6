//! Streamed vs materialized, through the real binary.
//!
//! Cold `analyze`, `patterns`, `outliers` and `hazards` fold each episode
//! as it is decoded and keep none: summaries come from a rollup folded in
//! memory, the lock graph from a fold. This suite holds them to the
//! materializing library path — `Summaries::of_session` over the decoded
//! (equally filtered) session, and `HazardReport::analyze` over the
//! decoded trace — across filters, `--jobs` 1 and 3, and every kind of
//! input a cold answer can come from: a rollup-less `.lgz`, a rollup
//! `.lgz` under `--no-cache`, a corpus `--session K`, a text trace, a
//! fault-injected trace under `--salvage`, and damage resealed under a
//! valid trailer. It also checks the folded rollup field for field against
//! `rollup::build`, and `pack`'s output against `corpus::pack_with_rollups`.
//!
//! The browsing commands are held to the same path: `sketch` (one episode,
//! a pattern's first episode and its gallery), `timeline`, `stable` and
//! `diff` against the decoded session, and corpus-wide `hazards` against
//! `HazardReport::analyze_corpus` over the decoded members. Inputs with a
//! rollup join the cross, since `stable`, `diff` and `sketch` answer warm.
//!
//! `check` (text and JSON) and `lint` fold a `.lgz` as it decodes: they
//! are held to `RuleSet::run` over `decode_bytes_salvage`'s trace, and to
//! that function's report. A declared record count one off under a
//! resealed trailer joins the cross as its own input kind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lagalyzer_check::{CheckSubject, HazardConfig, HazardReport, RuleSet};
use lagalyzer_core::browser::SortBy;
use lagalyzer_core::prelude::*;
use lagalyzer_core::rollup::{self, RollupBuilder};
use lagalyzer_model::{DurationNs, Episode, SessionTrace, TimeNs};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::faults::{self, FaultInjector};
use lagalyzer_trace::{
    binary, decode_bytes_salvage, index, probe_rollup, text, DamageVerdict, EpisodeExtent,
    EpisodeFilter, IndexedTrace, SalvageReport, SessionSource,
};
use lagalyzer_viz::ascii::ascii_sketch;
use lagalyzer_viz::sketch::{render_pattern_gallery, SketchOptions};
use lagalyzer_viz::timeline::{render_timeline, TimelineOptions};
use proptest::prelude::*;

#[path = "support/reports.rs"]
mod reports;
use reports::{diff_text, stable_text};

/// Temp scratch dir keyed by pid so parallel test binaries never collide.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-stream-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The kinds of input a cold answer can come from.
#[derive(Clone, Copy, Debug)]
enum Kind {
    RollupLess,
    NoCache,
    CorpusMember,
    Text,
    Faulted,
    Resealed,
    /// A declared record count one off, resealed: every record intact.
    Miscounted,
    /// A `.lgz` with a rollup, answered warm where a command can be.
    Rollup,
    /// A corpus member with a rollup, answered warm the same way.
    CorpusRollup,
}

const KINDS: [Kind; 6] = [
    Kind::RollupLess,
    Kind::NoCache,
    Kind::CorpusMember,
    Kind::Text,
    Kind::Faulted,
    Kind::Resealed,
];

/// The inputs with a rollup: `stable`, `diff` and `sketch` answer warm.
const WARM_KINDS: [Kind; 2] = [Kind::Rollup, Kind::CorpusRollup];

/// The CLI's ingest filters, with the library filter each one builds.
fn filters() -> Vec<(Vec<&'static str>, EpisodeFilter)> {
    vec![
        (vec![], EpisodeFilter::new()),
        (
            vec!["--min-lag", "50"],
            EpisodeFilter::new().min_duration(DurationNs::from_millis(50)),
        ),
        (
            vec!["--perceptible"],
            EpisodeFilter::new().min_duration(DurationNs::PERCEPTIBLE_DEFAULT),
        ),
        (
            vec!["--since-ms", "20000", "--until-ms", "200000"],
            EpisodeFilter::new().window(TimeNs::from_millis(20_000), TimeNs::from_millis(200_000)),
        ),
    ]
}

fn rollup_less(trace: &SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write(trace, &mut bytes).unwrap();
    bytes
}

fn with_rollup(trace: &SessionTrace) -> Vec<u8> {
    let mut bytes = Vec::new();
    binary::write_with_rollup(trace, &mut bytes, rollup::build(trace)).unwrap();
    bytes
}

/// One input on disk: its path, the arguments that make the CLI read it
/// cold, and its bytes.
struct Input {
    path: String,
    args: Vec<&'static str>,
    bytes: Vec<u8>,
}

/// Writes `trace` to disk as `kind`; `other` is the corpus's first member.
fn write_input(kind: Kind, trace: &SessionTrace, other: &SessionTrace, seed: u64) -> Input {
    let dir = scratch_dir();
    let name = format!("{kind:?}-{seed:016x}").to_lowercase();
    let (file, args, bytes) = match kind {
        Kind::RollupLess => ("lgz", vec![], rollup_less(trace)),
        Kind::NoCache => {
            let mut bytes = Vec::new();
            binary::write_with_rollup(trace, &mut bytes, rollup::build(trace)).unwrap();
            ("lgz", vec!["--no-cache"], bytes)
        }
        Kind::CorpusMember => {
            let opened = [other, trace].map(|t| IndexedTrace::open(rollup_less(t)).unwrap());
            let packed = corpus::pack(&opened, PackOptions { compress: true }).unwrap();
            ("lgzc", vec!["--session", "1"], packed)
        }
        Kind::Rollup => ("lgz", vec![], with_rollup(trace)),
        Kind::CorpusRollup => {
            let opened = [other, trace].map(|t| IndexedTrace::open(with_rollup(t)).unwrap());
            let packed = corpus::pack(&opened, PackOptions { compress: true }).unwrap();
            ("lgzc", vec!["--session", "1"], packed)
        }
        Kind::Text => {
            let mut bytes = Vec::new();
            text::write(trace, &mut bytes).unwrap();
            ("txt", vec![], bytes)
        }
        Kind::Faulted => {
            let (damaged, _) = FaultInjector::new(seed).inject(&rollup_less(trace));
            ("lgz", vec!["--salvage"], damaged)
        }
        Kind::Resealed => {
            let mut bytes = rollup_less(trace);
            let extents = IndexedTrace::open(bytes.clone())
                .unwrap()
                .extents()
                .to_vec();
            let victim = extents[seed as usize % extents.len()];
            bytes[victim.offset as usize] ^= 0x80;
            faults::reseal(&mut bytes, None);
            ("lgz", vec!["--salvage"], bytes)
        }
        Kind::Miscounted => {
            let bytes = rollup_less(trace);
            let up = seed % 2 == 0;
            let miscounted = faults::miscount(&bytes, up).or_else(|| faults::miscount(&bytes, !up));
            ("lgz", vec!["--salvage"], miscounted.unwrap())
        }
    };
    let path = dir.join(format!("{name}.{file}"));
    std::fs::write(&path, &bytes).unwrap();
    Input {
        path: path.to_str().unwrap().to_owned(),
        args,
        bytes,
    }
}

/// What the materialized path decodes an input to: the filtered trace,
/// the episodes the filter excluded, the provenance and exit code, and
/// the `.lgz` extents that give findings their byte spans.
struct Decoded {
    trace: SessionTrace,
    excluded: u64,
    provenance: Provenance,
    code: i32,
    extents: Option<Vec<EpisodeExtent>>,
}

fn provenance(report: Option<&SalvageReport>) -> (Provenance, i32) {
    match report {
        Some(r) if DamageVerdict::of_report(r) != DamageVerdict::Clean => (
            Provenance::Salvaged {
                skips: r.skips.len() as u64,
                episodes_lost: r.episodes_lost,
            },
            i32::from(DamageVerdict::of_report(r).exit_code()),
        ),
        _ => (Provenance::Clean, 0),
    }
}

/// Decodes a source the way the materialized path does.
fn decode_source(source: SessionSource<'_>, filter: &EpisodeFilter) -> Option<(SessionTrace, u64)> {
    let trace = source.decode_filtered(1, filter).ok()?;
    Some((trace, source.excluded_by(filter) as u64))
}

/// The materialized decode of `input`, or `None` when it cannot be
/// analyzed at all. Checks the folded rollup of every indexed source
/// against `rollup::build` of its decode on the way.
fn materialize(kind: Kind, input: &Input, filter: &EpisodeFilter) -> Option<Decoded> {
    match kind {
        Kind::Text => {
            let full = lagalyzer_trace::read_bytes(&input.bytes).unwrap();
            let trace = filter.retain(full.clone());
            let excluded = (full.episodes().len() - trace.episodes().len()) as u64;
            Some(Decoded {
                trace,
                excluded,
                provenance: Provenance::Clean,
                code: 0,
                extents: None,
            })
        }
        Kind::CorpusRollup => materialize(Kind::CorpusMember, input, filter),
        Kind::CorpusMember => {
            let reader = CorpusReader::open(input.bytes.clone()).unwrap();
            let source = reader.session(1).source();
            assert_folds_like_build(&source, filter);
            let (trace, excluded) = decode_source(source, filter)?;
            Some(Decoded {
                trace,
                excluded,
                provenance: Provenance::Clean,
                code: 0,
                extents: None,
            })
        }
        _ => {
            let opened = if input.args.contains(&"--salvage") {
                IndexedTrace::open_salvage(input.bytes.clone()).ok()?
            } else {
                IndexedTrace::open(input.bytes.clone()).unwrap()
            };
            // A salvage open whose decode fails is reopened through the
            // salvage scan, as `lint` does.
            let (_, rescanned) = opened
                .fold_verified(|_, source| source.decode_filtered(1, filter))
                .ok()?;
            let indexed = rescanned.as_ref().unwrap_or(&opened);
            assert_folds_like_build(&indexed.source(), filter);
            let (trace, excluded) = decode_source(indexed.source(), filter)?;
            let (provenance, code) = provenance(indexed.salvage_report());
            Some(Decoded {
                trace,
                excluded,
                provenance,
                code,
                extents: Some(indexed.extents().to_vec()),
            })
        }
    }
}

/// The folded rollup of `source` is `rollup::build` of its decode, field
/// for field, at one and three jobs.
fn assert_folds_like_build(source: &SessionSource<'_>, filter: &EpisodeFilter) {
    let Ok(decoded) = source.decode_filtered(1, filter) else {
        return;
    };
    let built = rollup::build(&decoded);
    for jobs in [1, 3] {
        let folded = source
            .fold(jobs, filter, &RollupBuilder::default())
            .unwrap();
        assert_eq!(folded.rollup, built, "folded rollup at --jobs {jobs}");
        let ids: Vec<_> = folded.rows.iter().map(|r| r.id).collect();
        let want: Vec<_> = decoded.episodes().iter().map(Episode::id).collect();
        assert_eq!(ids, want);
    }
}

/// `analyze`'s report, rendered as the CLI renders it.
fn analyze_text(session: &AnalysisSession, outliers: &OutlierReport) -> String {
    let summaries = Summaries::of_session(session);
    let patterns = summaries.mine_patterns_with_jobs(1);
    let stats = SessionStats::compute_from(&summaries, &patterns, 1);
    let meta = summaries.meta();
    let mut out = format!(
        "application       {}\nsession           {}\nE2E               {:.0} s\n\
         in-episode        {:.0} %\nepisodes < 3ms    {}\nepisodes >= 3ms   {}\n\
         episodes >= 100ms {}\n",
        meta.application,
        meta.session,
        stats.end_to_end.as_secs_f64(),
        stats.in_episode_fraction * 100.0,
        stats.short_count,
        stats.traced_count,
        stats.perceptible_count,
    );
    if session.excluded_episodes() > 0 {
        out.push_str(&format!(
            "filtered out      {}\n",
            session.excluded_episodes()
        ));
    }
    out.push_str(&format!(
        "long per minute   {:.0}\ndistinct patterns {}\nepisodes in pats  {}\n\
         singleton pats    {:.0} %\nmean tree size    {:.1}\nmean tree depth   {:.1}\n\
         outliers          {}\n",
        stats.long_per_minute,
        stats.distinct_patterns,
        stats.episodes_in_patterns,
        stats.singleton_fraction * 100.0,
        stats.mean_tree_size,
        stats.mean_tree_depth,
        outliers.summary(),
    ));
    out
}

/// Every command's expected `(arguments, stdout)`, from the materialized
/// path.
fn expected(decoded: Decoded, path: &str) -> Vec<(Vec<&'static str>, String)> {
    let extents = decoded.extents;
    let hazards = HazardReport::analyze(
        &decoded.trace,
        extents.as_deref(),
        1,
        &HazardConfig::default(),
    );
    let session = AnalysisSession::with_exclusions(
        decoded.trace,
        AnalysisConfig::default(),
        decoded.provenance,
        decoded.excluded,
    );
    let summaries = Summaries::of_session(&session);
    let patterns = summaries.mine_patterns_with_jobs(1);
    let mut outliers =
        OutlierReport::of_summaries(&summaries, &patterns, &OutlierConfig::default(), 1, &|_| {
            None
        })
        .expect("decoded sessions need no re-decode");
    let mut browser = PatternBrowser::of_patterns(&patterns);
    browser.perceptible_only(false).sort_by(SortBy::Count);
    let analyze = analyze_text(&session, &outliers);
    outliers.attach_spans(|id| {
        let e = extents.as_ref()?.iter().find(|e| e.id == id)?;
        Some((e.offset, e.offset + e.len))
    });
    let symbols = session.trace().symbols();
    vec![
        (vec!["analyze"], analyze),
        (vec!["patterns"], browser.to_table()),
        (vec!["outliers"], outliers.render_text(symbols)),
        (
            vec!["outliers", "--format", "json"],
            format!("{}\n", outliers.render_json(symbols)),
        ),
        (vec!["hazards"], hazards.render_text(path)),
        (
            vec!["hazards", "--format", "json"],
            format!("{}\n", hazards.render_json(path)),
        ),
    ]
}

/// Runs every command on `trace` written as `kind` under `filter`, at
/// `--jobs` 1 and 3, and compares it with the materialized path.
fn check_case(kind: Kind, trace: &SessionTrace, other: &SessionTrace, filter: usize, seed: u64) {
    let input = write_input(kind, trace, other, seed);
    let (filter_args, filter) = &filters()[filter];
    let decoded = materialize(kind, &input, filter);
    check_browsing(kind, &input, other, filter_args, filter);
    let commands: Vec<(Vec<&str>, Option<String>)> = match decoded {
        Some(decoded) => {
            let code = decoded.code;
            // Unfiltered, the damaged extent is decoded (or the records are
            // counted) and the rescan finds it; a filter may skip it unread,
            // and counts nothing.
            if matches!(kind, Kind::Resealed | Kind::Miscounted) && filter.is_unrestricted() {
                assert_eq!(code, 2, "resealed damage is found by the rescan");
            }
            let expected = expected(decoded, &input.path);
            for jobs in ["1", "3"] {
                for (command, stdout) in &expected {
                    let mut args = command.clone();
                    args.push(&input.path);
                    args.extend(&input.args);
                    args.extend(filter_args);
                    args.extend(["--jobs", jobs]);
                    let out = lagalyzer(&args);
                    let context = format!("{kind:?} {args:?}");
                    assert_eq!(out.status.code(), Some(code), "{context}: {out:?}");
                    assert_eq!(String::from_utf8(out.stdout).unwrap(), *stdout, "{context}");
                }
            }
            Vec::new()
        }
        // Nothing decodes: every command fails before printing.
        None => vec![(vec!["analyze"], None), (vec!["hazards"], None)],
    };
    for (command, _) in commands {
        let mut args = command;
        args.push(&input.path);
        args.extend(&input.args);
        let out = lagalyzer(&args);
        assert!(
            matches!(out.status.code(), Some(1 | 3)),
            "{kind:?} {args:?}: {out:?}"
        );
        assert!(out.stdout.is_empty(), "{kind:?} {args:?}");
    }
    if !matches!(kind, Kind::CorpusMember | Kind::CorpusRollup) {
        check_checker(&input);
    }
    let _ = std::fs::remove_file(&input.path);
}

/// `check` (text and JSON) and `lint` on a `.lgz` or text input, which
/// fold a binary trace as it decodes: their stdout and exit codes are
/// `RuleSet::run` over `decode_bytes_salvage`'s trace and that function's
/// report, at `--jobs` 1 and 3 for `lint`.
fn check_checker(input: &Input) {
    let path = input.path.as_str();
    let index = index::probe_health(&input.bytes);
    let rollup = probe_rollup(&input.bytes);
    let Ok((salvaged, indexed)) = decode_bytes_salvage(input.bytes.clone(), 1) else {
        for args in [vec!["check", path], vec!["lint", path]] {
            assert_eq!(lagalyzer(&args).status.code(), Some(3), "{args:?}");
        }
        return;
    };
    // One episode per extent, so the rules see the same spans folded as
    // in memory.
    if let Some(indexed) = &indexed {
        assert_eq!(indexed.len(), salvaged.trace.episodes().len(), "{path}");
    }
    let report = RuleSet::standard().run(&CheckSubject {
        trace: &salvaged.trace,
        extents: indexed.as_ref().map(IndexedTrace::extents),
        health: indexed.as_ref().map(IndexedTrace::health),
        salvage: Some(&salvaged.report),
        file_len: Some(input.bytes.len() as u64),
        rollup: indexed.as_ref().and_then(IndexedTrace::rollup_health),
    });
    let code = i32::from(report.exit_code());
    let mut lint = salvaged.report.render();
    lint.push_str(&match index {
        Some(health) => format!("index               {health}\n"),
        None => "index               not applicable (text trace)\n".to_owned(),
    });
    lint.push_str(&match rollup {
        Some(health) => format!("rollup              {health}\n"),
        None => "rollup              not applicable (no v2 section region)\n".to_owned(),
    });
    let verdict = i32::from(DamageVerdict::of_report(&salvaged.report).exit_code());
    let runs = [
        (vec!["check", path], report.render_text(path), code),
        (
            vec!["check", path, "--format", "json"],
            format!("{}\n", report.render_json(path)),
            code,
        ),
        (vec!["lint", path, "--jobs", "1"], lint.clone(), verdict),
        (vec!["lint", path, "--jobs", "3"], lint, verdict),
    ];
    for (args, stdout, code) in runs {
        let out = lagalyzer(&args);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), stdout, "{args:?}");
    }
}

/// The second input of `stable` and `diff` next to `input`, read with
/// the same flags: for the corpus kinds a corpus whose member 1 (the one
/// `--session 1` selects) is `other`, else a `.lgz` of `other`; both carry
/// a rollup.
fn write_other(kind: Kind, input: &Input, other: &SessionTrace) -> String {
    let (extension, bytes) = match kind {
        Kind::CorpusMember | Kind::CorpusRollup => {
            let opened = [other, other].map(|t| IndexedTrace::open(with_rollup(t)).unwrap());
            let packed = corpus::pack(&opened, PackOptions { compress: false }).unwrap();
            ("lgzc", packed)
        }
        _ => ("lgz", with_rollup(other)),
    };
    let path = format!("{}-other.{extension}", input.path);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The browsing commands' expected `(arguments, stdout)`, from the
/// materialized path; `None` when the command must fail (exit 1, nothing
/// printed) because the filtered session has no such episode or pattern.
fn expected_browsing(
    decoded: &Decoded,
    other: &SessionTrace,
    filter: &EpisodeFilter,
    other_path: &str,
) -> Vec<(Vec<String>, Option<String>)> {
    let session = AnalysisSession::with_exclusions(
        decoded.trace.clone(),
        AnalysisConfig::default(),
        decoded.provenance,
        decoded.excluded,
    );
    let other = AnalysisSession::new(filter.retain(other.clone()), AnalysisConfig::default());
    let symbols = session.trace().symbols();
    let episodes = session.episodes();
    let patterns = session.mine_patterns();
    let first = patterns.patterns().first().map(Pattern::episode_indices);
    let index = episodes.len() / 2;
    let owned = |args: &[&str]| args.iter().copied().map(String::from).collect::<Vec<_>>();
    let multi = MultiPatternSet::mine(&[session.clone(), other.clone()]);
    vec![
        (
            owned(&["sketch", "--episode", &index.to_string(), "--ascii"]),
            episodes.get(index).map(|e| ascii_sketch(e, symbols, 100)),
        ),
        (
            owned(&["sketch", "--pattern", "0", "--ascii"]),
            first.map(|indices| ascii_sketch(&episodes[indices[0]], symbols, 100)),
        ),
        (
            owned(&["sketch", "--pattern", "0", "--gallery"]),
            first.map(|indices| {
                let gallery: Vec<&Episode> = indices.iter().map(|&i| &episodes[i]).collect();
                let svg = render_pattern_gallery(&gallery, symbols, &SketchOptions::default());
                format!("{svg}\n")
            }),
        ),
        (
            owned(&["timeline"]),
            Some(format!(
                "{}\n",
                render_timeline(&session, &TimelineOptions::default())
            )),
        ),
        (
            owned(&["stable", "INPUT", other_path]),
            Some(stable_text(&multi)),
        ),
        (
            owned(&["diff", "INPUT", other_path]),
            Some(diff_text(&SessionDiff::between(&session, &other))),
        ),
    ]
}

/// Corpus-wide `hazards` on a corpus kind's input, text and JSON, against
/// `HazardReport::analyze_corpus` over the members decoded with `filter`.
fn expected_corpus_hazards(input: &Input, filter: &EpisodeFilter) -> Vec<(Vec<String>, String)> {
    let reader = CorpusReader::open(input.bytes.clone()).unwrap();
    let traces: Vec<SessionTrace> = reader
        .sessions()
        .map(|view| view.source().decode_filtered(1, filter).unwrap())
        .collect();
    let mut symbols = reader.global_symbols().clone();
    let report = HazardReport::analyze_corpus(&traces, &mut symbols, 1, &HazardConfig::default());
    let args = |extra: &[&str]| {
        let mut args = vec!["hazards".to_owned(), input.path.clone()];
        args.extend(extra.iter().copied().map(String::from));
        args
    };
    vec![
        (args(&[]), report.render_text(&input.path)),
        (
            args(&["--format", "json"]),
            format!("{}\n", report.render_json(&input.path)),
        ),
    ]
}

/// Runs the browsing commands (and, on a corpus kind, corpus-wide
/// `hazards`) on `kind`'s input under `filter`, at `--jobs` 1 and 3, and
/// compares them with the materialized path.
fn check_browsing(
    kind: Kind,
    input: &Input,
    other: &SessionTrace,
    filter_args: &[&str],
    filter: &EpisodeFilter,
) {
    let Some(decoded) = materialize(kind, input, filter) else {
        return;
    };
    let other_path = write_other(kind, input, other);
    let mut runs: Vec<(Vec<String>, Option<String>, i32)> = Vec::new();
    for (mut args, stdout) in expected_browsing(&decoded, other, filter, &other_path) {
        match args.iter().position(|a| a == "INPUT") {
            Some(at) => args[at] = input.path.clone(),
            None => args.insert(1, input.path.clone()),
        }
        args.extend(input.args.iter().copied().map(String::from));
        runs.push((args, stdout, decoded.code));
    }
    if matches!(kind, Kind::CorpusMember | Kind::CorpusRollup) {
        for (args, stdout) in expected_corpus_hazards(input, filter) {
            runs.push((args, Some(stdout), 0));
        }
    }
    for (args, stdout, code) in runs {
        for jobs in ["1", "3"] {
            let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
            args.extend(filter_args);
            args.extend(["--jobs", jobs]);
            let out = lagalyzer(&args);
            let context = format!("{kind:?} {args:?}");
            match &stdout {
                Some(stdout) => {
                    assert_eq!(out.status.code(), Some(code), "{context}: {out:?}");
                    assert_eq!(String::from_utf8(out.stdout).unwrap(), *stdout, "{context}");
                }
                None => {
                    assert_eq!(out.status.code(), Some(1), "{context}: {out:?}");
                    assert!(out.stdout.is_empty(), "{context}");
                }
            }
        }
    }
    let _ = std::fs::remove_file(&other_path);
}

/// `pack` folds the rollups of rollup-less inputs: it must write what
/// `corpus::pack_with_rollups` writes with rollups built from the decoded
/// traces, at any `--jobs`.
fn check_pack(traces: &[&SessionTrace], seed: u64) {
    let dir = scratch_dir();
    let inputs: Vec<String> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let path = dir.join(format!("pack-{seed:016x}-{i}.lgz"));
            std::fs::write(&path, rollup_less(trace)).unwrap();
            path.to_str().unwrap().to_owned()
        })
        .collect();
    let opened: Vec<IndexedTrace> = traces
        .iter()
        .map(|t| IndexedTrace::open(rollup_less(t)).unwrap())
        .collect();
    let built = opened
        .iter()
        .map(|t| Some(rollup::build(&t.par_decode(1).unwrap())))
        .collect();
    let want = corpus::pack_with_rollups(&opened, built, PackOptions { compress: false }).unwrap();
    let out = dir.join(format!("pack-{seed:016x}.lgzc"));
    for jobs in ["1", "3"] {
        let mut args: Vec<&str> = vec!["pack"];
        args.extend(inputs.iter().map(String::as_str));
        args.extend(["--out", out.to_str().unwrap(), "--jobs", jobs]);
        let run = lagalyzer(&args);
        assert_eq!(run.status.code(), Some(0), "{run:?}");
        assert!(std::fs::read(&out).unwrap() == want, "pack --jobs {jobs}");
    }
    for path in inputs.iter().map(Path::new).chain([out.as_path()]) {
        let _ = std::fs::remove_file(path);
    }
}

/// Every input kind under every filter, on one simulated session.
#[test]
fn every_input_kind_streams_like_the_materialized_path() {
    let trace = runner::simulate_session(&apps::crossword_sage(), 0, 5);
    let other = runner::simulate_session(&apps::arabeske(), 1, 5);
    for kind in KINDS {
        for filter in 0..filters().len() {
            check_case(kind, &trace, &other, filter, 5 + filter as u64);
        }
    }
    check_pack(&[&other, &trace], 5);
}

/// A declared record count one off under a resealed trailer, one higher
/// and one lower: unfiltered, every command that folds the whole trace
/// rejects it without `--salvage` (exit 1, nothing printed) and answers
/// from the salvage scan with it (exit 2), as `lint` and `check` see it;
/// a filter decodes only what it admits and counts nothing. `sketch
/// --episode N`, whose extent index does not add up to the count, takes
/// the same verified fold instead of decoding one extent.
#[test]
fn miscounted_records_get_one_verdict() {
    let trace = runner::simulate_session(&apps::arabeske(), 0, 42);
    let other = runner::simulate_session(&apps::jedit(), 1, 42);
    for seed in [42, 43] {
        for filter in 0..filters().len() {
            check_case(Kind::Miscounted, &trace, &other, filter, seed);
        }
        let input = write_input(Kind::Miscounted, &trace, &other, seed);
        let path = input.path.as_str();
        for command in [
            vec!["analyze"],
            vec!["patterns"],
            vec!["outliers"],
            vec!["hazards"],
            vec!["timeline"],
            vec!["sketch", "--pattern", "0"],
            vec!["sketch", "--episode", "1", "--ascii"],
        ] {
            let args = [&command[..1], &[path], &command[1..]].concat();
            let out = lagalyzer(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("record count"), "{args:?}: {stderr}");
            // With `--salvage`, each answers from the salvage scan, which
            // recovers every record.
            let salvaged = lagalyzer(&[&args[..], &["--salvage"]].concat());
            assert_eq!(salvaged.status.code(), Some(2), "{args:?}: {salvaged:?}");
        }
        let sketch = lagalyzer(&["sketch", path, "--episode", "1", "--ascii", "--salvage"]);
        let episode = &trace.episodes()[1];
        let want = ascii_sketch(episode, trace.symbols(), 100);
        assert_eq!(String::from_utf8_lossy(&sketch.stdout), want);
        let lint = lagalyzer(&["lint", path]);
        assert_eq!(lint.status.code(), Some(2), "{lint:?}");
        assert!(String::from_utf8_lossy(&lint.stdout).contains("record count: declared"));
        let check = lagalyzer(&["check", path]);
        assert_eq!(check.status.code(), Some(1), "{check:?}");
        assert!(String::from_utf8_lossy(&check.stdout).contains("LA011"));
        let _ = std::fs::remove_file(path);
    }
}

/// Inputs with a rollup under every filter: the warm answers of `stable`,
/// `diff` and `sketch`, and every other command, match the materialized
/// path.
#[test]
fn rollup_inputs_answer_like_the_materialized_path() {
    let trace = runner::simulate_session(&apps::jedit(), 0, 6);
    let other = runner::simulate_session(&apps::jedit(), 1, 6);
    for kind in WARM_KINDS {
        for filter in 0..filters().len() {
            check_case(kind, &trace, &other, filter, 6 + filter as u64);
        }
    }
}

fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Simulated sessions crossed with the filters, the input kinds and
    /// `--jobs` 1 and 3 answer as the materialized path does, and pack as
    /// `corpus::pack_with_rollups` does.
    #[test]
    fn simulated_sessions_stream_like_the_materialized_path(seed in any::<u64>()) {
        let profiles = [apps::crossword_sage(), apps::arabeske(), apps::jedit()];
        let trace = runner::simulate_session(&profiles[(seed % 3) as usize], 0, seed);
        let other = runner::simulate_session(&profiles[(seed / 3 % 3) as usize], 1, seed);
        let kind = KINDS[(seed / 9 % KINDS.len() as u64) as usize];
        let filter = (seed / 54 % filters().len() as u64) as usize;
        check_case(kind, &trace, &other, filter, seed);
        if seed % 4 == 0 {
            check_pack(&[&other, &trace], seed);
        }
    }
}
