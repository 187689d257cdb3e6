//! `lagalyzer` — the command-line front end.
//!
//! Subcommands:
//!
//! * `apps` — list the built-in application profiles (Table II);
//! * `simulate` — synthesize a session trace (or, with `--sessions N`, a
//!   multi-session corpus) to a file;
//! * `pack` — pack N `.lgz` traces into one `.lgzc` corpus;
//! * `compact` — re-pack a corpus, dropping salvage-skipped bytes;
//! * `analyze` — print overall statistics for a trace (a Table III row)
//!   or corpus-wide statistics for a `.lgzc` file;
//! * `patterns` — print the pattern browser table for a trace, or the
//!   merged cross-session table for a corpus;
//! * `sketch` — render an episode sketch (SVG or ASCII);
//! * `lint` — check a trace file for damage and print the salvage report;
//! * `check` — run the semantic rule checker and print its diagnostics;
//! * `outliers` — flag per-pattern duration outliers and attribute each
//!   one's excess to a cause (lock wait, GC, slow I/O, self time);
//! * `experiments` — regenerate every table and figure of the paper.
//!
//! Every analysis subcommand loads its trace through one [`Input`]: the
//! file is read once, classified once (corpus, binary or text) and opened
//! once, and its provenance and exit code come from one damage verdict.
//!
//! Exit codes: `0` success on a clean trace, `1` usage or I/O error,
//! `2` the trace was damaged but salvageable (for `check`: semantic
//! errors were found), `3` the trace is unrecoverable. `check` exits `1`
//! when only warnings were found.

#![forbid(unsafe_code)]

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;

use lagalyzer_check::{check_bytes, Diagnostic, HazardConfig, HazardReport, RuleSet, Severity};
use lagalyzer_core::browser::SortBy;
use lagalyzer_core::prelude::*;
use lagalyzer_core::rollup::{Folded, RollupBuilder};
use lagalyzer_model::{
    json_string, DurationNs, Episode, EpisodeId, LockGraph, SessionTrace, SymbolTable, TimeNs,
};
use lagalyzer_report::{figures, table3, Study};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{
    DamageVerdict, EpisodeExtent, EpisodeFilter, IndexHealth, IndexedTrace, SalvageReport,
    SessionSource, SessionView, TraceError,
};
use lagalyzer_viz::ascii::ascii_sketch;
use lagalyzer_viz::sketch::{render_pattern_gallery, render_sketch, SketchOptions};
use lagalyzer_viz::timeline::{render_timeline, TimelineOptions};

/// Exit code for a trace that was damaged but salvageable.
const EXIT_SALVAGED: u8 = 2;
/// Exit code for a trace that could not be decoded at all.
const EXIT_UNRECOVERABLE: u8 = 3;

/// The binary `.lgz` signature (the byte after it is the version).
const BINARY_MAGIC: &[u8] = b"LGLZTRC";

/// A command failure: the message printed to stderr plus the process
/// exit code it maps to (plain errors exit `1`).
struct Failure {
    msg: String,
    code: u8,
}

impl Failure {
    fn unrecoverable(msg: String) -> Failure {
        Failure {
            msg,
            code: EXIT_UNRECOVERABLE,
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure { msg, code: 1 }
    }
}

/// A failed write to stdout (a closed pipe, say) is an I/O error.
impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure {
            msg: format!("cannot write output: {e}"),
            code: 1,
        }
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure {
            msg: msg.to_owned(),
            code: 1,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every command prints through one buffered writer over the locked
    // stdout, flushed once: a closed stdout then surfaces as a write or
    // flush error (exit 1), never as a panic.
    let mut stdout = BufWriter::new(std::io::stdout().lock());
    let ran = run(&args, &mut stdout);
    let flushed = stdout.flush();
    match ran.and_then(|code| flushed.map(|()| code).map_err(Failure::from)) {
        Ok(code) => code,
        Err(failure) => {
            eprintln!("error: {}", failure.msg);
            ExitCode::from(failure.code)
        }
    }
}

fn run(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let Some(command) = args.first() else {
        print_usage(stdout)?;
        return Ok(ExitCode::SUCCESS);
    };
    let rest = &args[1..];
    match command.as_str() {
        "apps" => cmd_apps(stdout),
        "simulate" => cmd_simulate(rest, stdout),
        "pack" => cmd_pack(rest, stdout),
        "compact" => cmd_compact(rest, stdout),
        "analyze" => cmd_analyze(rest, stdout),
        "patterns" => cmd_patterns(rest, stdout),
        "sketch" => cmd_sketch(rest, stdout),
        "timeline" => cmd_timeline(rest, stdout),
        "stable" => cmd_stable(rest, stdout),
        "diff" => cmd_diff(rest, stdout),
        "lint" => cmd_lint(rest, stdout),
        "check" => cmd_check(rest, stdout),
        "hazards" => cmd_hazards(rest, stdout),
        "outliers" => cmd_outliers(rest, stdout),
        "experiments" => cmd_experiments(rest, stdout),
        "help" | "--help" | "-h" => {
            print_usage(stdout)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `lagalyzer help`").into()),
    }
}

fn print_usage(stdout: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        stdout,
        "lagalyzer — latency profile analysis and visualization\n\
         \n\
         usage: lagalyzer <command> [options]\n\
         \n\
         commands:\n\
           apps                               list built-in application profiles\n\
           simulate --app NAME [--session N] [--seed S] [--text] --out FILE\n\
                    [--sessions N] [--compress]\n\
                                              synthesize a session trace; --sessions N\n\
                                              writes an N-session .lgzc corpus instead\n\
           pack IN.lgz [IN.lgz...] --out OUT.lgzc [--compress] [--salvage] [--jobs N]\n\
                                              pack traces into one corpus with a\n\
                                              deduplicated corpus-wide symbol table\n\
           compact IN.lgzc --out OUT.lgzc [--compress] [--jobs N]\n\
                                              re-pack a corpus, dropping salvage-skipped\n\
                                              bytes and re-deduplicating symbols\n\
           analyze FILE [--threshold-ms MS] [--histogram] [--jobs N] [--salvage] [--check]\n\
                   [--session K] [--format text|json]\n\
                                              overall statistics of a trace; on a .lgzc\n\
                                              corpus: corpus-wide stats (or one session\n\
                                              via --session K)\n\
           patterns FILE [--perceptible-only] [--sort count|total|max|perceptible] [--jobs N] [--salvage]\n\
                    [--session K]\n\
                                              browse mined patterns; on a corpus: the\n\
                                              cross-session merged table\n\
           lint FILE                          check a trace (or corpus) for damage; print the salvage report and index health\n\
           check FILE [--format text|json] [--allow CODE] [--deny CODE] [--level CODE=SEV] [--fix-report FILE.json]\n\
                                              run the semantic rule checker on one trace, not a\n\
                                              corpus (codes LA001..);\n\
                                              check --list-rules prints the full rule table\n\
           hazards FILE [--format text|json] [--jobs N] [--salvage] [--explain N]\n\
                   [--min-samples N] [--starvation-streak N]\n\
                                              concurrency-hazard analysis over the session\n\
                                              lock graph (LA020 lock-order inversion, LA021\n\
                                              held-across-IO, LA022 held-across-pause, LA023\n\
                                              starvation, LA024 self-wait); on a .lgzc\n\
                                              corpus also LA025 cross-session inversions\n\
           outliers FILE [--format text|json] [--mad-k K] [--min-excess-ms MS] [--min-count N]\n\
                    [--explain N] [--jobs N] [--salvage]\n\
                                              flag per-pattern duration outliers and attribute\n\
                                              each one's excess (codes OC-LOCK, OC-WAIT, OC-SLEEP,\n\
                                              OC-GC, OC-IO, OC-NATIVE, OC-SELF)\n\
           sketch FILE [--episode N | --pattern N [--gallery]] [--ascii] [--out FILE.svg]\n\
                                              render an episode sketch\n\
           timeline FILE [--out FILE.svg]     render the whole-session timeline\n\
           stable FILE [FILE...] [--jobs N]   stable slow patterns across several traces\n\
           diff BASELINE CANDIDATE            pattern-level regression report\n\
           experiments [--out-dir DIR] [--sessions N] [--seed S] [--jobs N]\n\
                                              regenerate the paper's tables and figures\n\
         \n\
         FILE may come anywhere among the options. A .lgzc corpus FILE\n\
         takes --session K to select one member session.\n\
         \n\
         --jobs N shards trace decoding and analysis work across N worker\n\
         threads (0 or omitted: all cores; 1: serial). Results are\n\
         byte-identical for any N.\n\
         \n\
         --min-lag MS, --perceptible, --since-ms MS and --until-ms MS\n\
         filter episodes at ingest; on indexed binary traces the excluded\n\
         episodes are never even decoded (skip-decode filtering).\n\
         \n\
         --salvage decodes a damaged trace leniently, dropping corrupt\n\
         records and reporting every skip. Exit codes: 0 clean, 1 usage or\n\
         I/O error, 2 damaged but salvaged, 3 unrecoverable; every command\n\
         that loads a trace takes its code from the same damage verdict.\n\
         \n\
         analyze, patterns and outliers answer from a persisted rollup\n\
         section when the trace, the --session K corpus member, or (corpus-\n\
         wide) every corpus session carries a valid one — zero episode\n\
         decoding, byte-identical output, a `rollup: cache hit` note on\n\
         stderr. --no-cache and --check force the cold decode path, and\n\
         salvaged sessions always take it; stale or missing rollups fall\n\
         back to it automatically.\n\
         \n\
         check exits 0 when clean (notes allowed), 1 on warnings, 2 on\n\
         errors, 3 when the trace is unrecoverable. analyze --check runs\n\
         the checker first and refuses analysis when it reports errors."
    )?;
    Ok(())
}

/// Every value-taking flag of every subcommand, so positional-argument
/// scanning skips their values wherever the flags appear.
const VALUE_FLAGS: &[&str] = &[
    "--allow",
    "--app",
    "--deny",
    "--episode",
    "--explain",
    "--fix-report",
    "--format",
    "--jobs",
    "--level",
    "--mad-k",
    "--min-count",
    "--min-excess-ms",
    "--min-lag",
    "--min-samples",
    "--out",
    "--out-dir",
    "--pattern",
    "--seed",
    "--session",
    "--sessions",
    "--since-ms",
    "--sort",
    "--starvation-streak",
    "--threshold-ms",
    "--until-ms",
];

/// Fetches the value following a `--flag`.
fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Every value given for a repeatable flag, in order
/// (`--allow LA007 --allow LA011` yields both codes).
fn opt_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            if let Some(value) = iter.next() {
                out.push(value.as_str());
            }
        }
    }
    out
}

/// Positional (non-flag) arguments, skipping the values of value-taking
/// flags so `stable a.lgz b.lgz --jobs 4` does not try to load "4".
fn positional_args(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
        } else if arg.starts_with("--") {
            skip_value = VALUE_FLAGS.contains(&arg.as_str());
        } else {
            out.push(arg.as_str());
        }
    }
    out
}

/// The input file of a one-input command: its first positional argument.
fn first_path<'a>(args: &'a [String], command: &str) -> Result<&'a str, Failure> {
    positional_args(args)
        .first()
        .copied()
        .ok_or_else(|| format!("{command} requires an input file").into())
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match opt_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a number, got {v:?}")),
    }
}

/// Resolves `--jobs N` into a worker count. Absent or `0` means "use all
/// available cores"; `--jobs 1` runs the original serial path. Parallel
/// analysis output is byte-identical to serial, so this only affects speed.
fn parse_jobs(args: &[String]) -> Result<usize, String> {
    match opt_value(args, "--jobs") {
        None => Ok(lagalyzer_core::parallel::resolve_jobs(None)),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--jobs expects a number, got {v:?}"))?;
            Ok(lagalyzer_core::parallel::resolve_jobs(Some(n)))
        }
    }
}

/// `--format text|json`, text by default.
fn parse_format(args: &[String]) -> Result<&str, Failure> {
    match opt_value(args, "--format").unwrap_or("text") {
        format @ ("text" | "json") => Ok(format),
        other => Err(format!("unknown format {other:?}; expected text or json").into()),
    }
}

/// `--sort count|total|max|perceptible`, count by default.
fn parse_sort(args: &[String]) -> Result<SortBy, Failure> {
    Ok(match opt_value(args, "--sort").unwrap_or("count") {
        "count" => SortBy::Count,
        "total" => SortBy::TotalLag,
        "max" => SortBy::MaxLag,
        "perceptible" => SortBy::PerceptibleCount,
        other => return Err(format!("unknown sort order {other:?}").into()),
    })
}

/// The finding `--explain N` names, if the flag is given.
fn explained<'a, T>(args: &[String], findings: &'a [T]) -> Result<Option<&'a T>, Failure> {
    let Some(v) = opt_value(args, "--explain") else {
        return Ok(None);
    };
    let index: usize = v
        .parse()
        .map_err(|_| format!("--explain expects a finding index, got {v:?}"))?;
    findings
        .get(index)
        .map(Some)
        .ok_or_else(|| format!("report has {} finding(s), no index {index}", findings.len()).into())
}

fn cmd_apps(stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    writeln!(
        stdout,
        "{:<15} {:<10} {:>8}  description",
        "name", "version", "classes"
    )?;
    for p in apps::standard_suite() {
        writeln!(
            stdout,
            "{:<15} {:<10} {:>8}  {}",
            p.name, p.version, p.classes, p.description
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_simulate(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let app_name = opt_value(args, "--app").ok_or("simulate requires --app NAME")?;
    let profile = apps::by_name(app_name)
        .ok_or_else(|| format!("unknown application {app_name:?}; see `lagalyzer apps`"))?;
    let session = parse_u64(args, "--session", 0)? as u32;
    let seed = parse_u64(args, "--seed", 42)?;
    let out = opt_value(args, "--out").ok_or("simulate requires --out FILE")?;
    if let Some(v) = opt_value(args, "--sessions") {
        // Multi-session corpus generation: N consecutive sessions of the
        // application, packed straight into one .lgzc file.
        let n: u32 = v
            .parse()
            .map_err(|_| format!("--sessions expects a count, got {v:?}"))?;
        if n == 0 {
            return Err("--sessions must be at least 1".into());
        }
        if opt_flag(args, "--text") {
            return Err("--text cannot be combined with --sessions (corpora are binary)".into());
        }
        let traces = runner::simulate_corpus(&profile, n, seed);
        let mut opened = Vec::with_capacity(traces.len());
        for trace in &traces {
            let mut buf = Vec::new();
            let rollup = lagalyzer_core::rollup::build(trace);
            lagalyzer_trace::binary::write_with_rollup(trace, &mut buf, rollup)
                .map_err(|e| e.to_string())?;
            opened.push(IndexedTrace::open(buf).map_err(|e| e.to_string())?);
        }
        let packed = corpus::pack(
            &opened,
            PackOptions {
                compress: opt_flag(args, "--compress"),
            },
        )
        .map_err(|e| e.to_string())?;
        fs::write(out, &packed).map_err(|e| format!("cannot write {out}: {e}"))?;
        writeln!(
            stdout,
            "wrote {} corpus of {n} sessions ({} traced episodes) to {out}",
            profile.name,
            opened.iter().map(IndexedTrace::len).sum::<usize>()
        )?;
        return Ok(ExitCode::SUCCESS);
    }
    let trace = runner::simulate_session(&profile, session, seed);
    let file = fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    if opt_flag(args, "--text") {
        lagalyzer_trace::text::write(&trace, &mut writer).map_err(|e| e.to_string())?;
    } else {
        // Binary traces ship with a rollup section so every later
        // `analyze`/`patterns`/`outliers` run takes the warm path.
        let rollup = lagalyzer_core::rollup::build(&trace);
        lagalyzer_trace::binary::write_with_rollup(&trace, &mut writer, rollup)
            .map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "wrote {} ({} traced episodes, {} filtered) to {out}",
        profile.name,
        trace.episodes().len(),
        trace.short_episode_count()
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_pack(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let out = opt_value(args, "--out").ok_or("pack requires --out FILE.lgzc")?;
    let inputs = positional_args(args);
    if inputs.is_empty() {
        return Err("pack requires at least one input .lgz trace".into());
    }
    let salvage = opt_flag(args, "--salvage");
    let options = PackOptions {
        compress: opt_flag(args, "--compress"),
    };
    let mut opened = Vec::with_capacity(inputs.len());
    for path in inputs {
        let bytes = read_input(path)?;
        if !bytes.starts_with(BINARY_MAGIC) {
            return Err(format!("{path} is not a binary .lgz trace").into());
        }
        let trace = if salvage {
            IndexedTrace::open_salvage(bytes)
                .map_err(|e| Failure::unrecoverable(format!("cannot salvage {path}: {e}")))?
        } else {
            IndexedTrace::open(bytes)
                .map_err(|e| format!("cannot load {path}: {e} (retry with --salvage)"))?
        };
        Damage::of_report(trace.salvage_report()).note(path);
        opened.push(trace);
    }
    let per_file_symbols: usize = opened.iter().map(|t| t.symbols().len()).sum();
    let distinct_symbols = {
        let mut set = std::collections::HashSet::new();
        for trace in &opened {
            for (_, name) in trace.symbols().iter() {
                set.insert(name);
            }
        }
        set.len()
    };
    let episodes: usize = opened.iter().map(IndexedTrace::len).sum();
    let damaged = opened
        .iter()
        .filter(|t| t.salvage_report().is_some_and(|r| !r.is_clean()))
        .count();
    // Clean inputs without a persisted rollup get one folded at pack time
    // (decode once now, answer warm forever); salvaged inputs stay cold
    // since the warm path refuses damaged sessions anyway.
    let jobs = parse_jobs(args)?;
    let built: Vec<Option<lagalyzer_trace::Rollup>> = opened
        .iter()
        .map(|t| {
            if t.rollup().is_some() || t.salvage_report().is_some() {
                return None;
            }
            RollupBuilder::new(t.meta(), t.symbols())
                .fold(&t.source(), jobs, &EpisodeFilter::default())
                .ok()
                .map(|folded| folded.rollup)
        })
        .collect();
    let packed = corpus::pack_with_rollups(&opened, built, options).map_err(|e| e.to_string())?;
    fs::write(out, &packed).map_err(|e| format!("cannot write {out}: {e}"))?;
    writeln!(
        stdout,
        "packed {} session(s), {episodes} episode(s) into {out} ({} bytes): \
         {per_file_symbols} per-file symbols deduplicated to {distinct_symbols}",
        opened.len(),
        packed.len(),
    )?;
    if damaged > 0 {
        Ok(ExitCode::from(EXIT_SALVAGED))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_compact(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = first_path(args, "compact")?;
    let out = opt_value(args, "--out").ok_or("compact requires --out FILE.lgzc")?;
    let jobs = parse_jobs(args)?;
    let options = PackOptions {
        compress: opt_flag(args, "--compress"),
    };
    let bytes = read_input(path)?;
    if !corpus::is_corpus(&bytes) {
        return Err(format!("{path} is not a .lgzc corpus (pack traces first)").into());
    }
    let before = bytes.len();
    let reader = CorpusReader::open(bytes)
        .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))?;
    // Sessions keep their valid rollups through compaction; sessions
    // without one get theirs built from the re-encoded payload.
    let build = |trace: &SessionTrace| lagalyzer_core::rollup::build(trace);
    let compacted = corpus::compact_with_rollups(&reader, jobs, options, Some(&build))
        .map_err(|e| e.to_string())?;
    let after = compacted.len();
    fs::write(out, compacted).map_err(|e| format!("cannot write {out}: {e}"))?;
    writeln!(
        stdout,
        "compacted {} session(s): {before} -> {after} bytes in {out}",
        reader.len()
    )?;
    Ok(ExitCode::SUCCESS)
}

/// Builds the ingest-time episode filter from `--min-lag MS`,
/// `--perceptible` and the `--since-ms`/`--until-ms` session window. On
/// indexed binary traces the filter is evaluated against the extent index
/// alone, so excluded episodes are never decoded.
fn parse_filter(args: &[String]) -> Result<EpisodeFilter, String> {
    let mut filter = EpisodeFilter::new();
    if let Some(v) = opt_value(args, "--min-lag") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--min-lag expects milliseconds, got {v:?}"))?;
        filter = filter.min_duration(DurationNs::from_millis(ms));
    }
    if opt_flag(args, "--perceptible") {
        filter = filter.min_duration(DurationNs::PERCEPTIBLE_DEFAULT);
    }
    let since = opt_value(args, "--since-ms");
    let until = opt_value(args, "--until-ms");
    if since.is_some() || until.is_some() {
        let parse = |flag: &str, v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} expects milliseconds, got {v:?}"))
        };
        let from = match since {
            Some(v) => TimeNs::from_millis(parse("--since-ms", v)?),
            None => TimeNs::from_nanos(0),
        };
        let to = match until {
            Some(v) => TimeNs::from_millis(parse("--until-ms", v)?),
            None => TimeNs::from_nanos(u64::MAX),
        };
        filter = filter.window(from, to);
    }
    Ok(filter)
}

/// Reads a trace input from disk — the one place any subcommand does.
fn read_input(path: &str) -> Result<Vec<u8>, Failure> {
    fs::read(path).map_err(|e| format!("cannot read {path}: {e}").into())
}

/// What salvage found in one input, whichever codec or container
/// reported it: the single source of provenance and exit codes.
#[derive(Clone, Copy)]
struct Damage {
    verdict: DamageVerdict,
    recovered: u64,
    episodes_lost: u64,
    skips: u64,
}

impl Damage {
    const CLEAN: Damage = Damage {
        verdict: DamageVerdict::Clean,
        recovered: 0,
        episodes_lost: 0,
        skips: 0,
    };

    /// Classifies a salvage report; a strict open (no report) is clean.
    fn of_report(report: Option<&SalvageReport>) -> Damage {
        report.map_or(Damage::CLEAN, |r| Damage {
            verdict: DamageVerdict::of_report(r),
            recovered: r.episodes_recovered,
            episodes_lost: r.episodes_lost,
            skips: r.skips.len() as u64,
        })
    }

    /// Prints the salvage summary of a damaged input to stderr; clean
    /// inputs stay silent.
    fn note(&self, label: &str) {
        if self.verdict != DamageVerdict::Clean {
            eprintln!(
                "salvage: {label}: recovered {} episode(s), lost {}, {} skip(s)",
                self.recovered, self.episodes_lost, self.skips
            );
        }
    }
}

/// How an input's bytes were opened.
enum Opened {
    /// A `.lgzc` corpus; `--session K` selects one member.
    Corpus(CorpusReader),
    /// A binary `.lgz` trace, opened through its extent index.
    Binary(Box<IndexedTrace>),
    /// A text trace (it has no extent index, so it decodes serially).
    Text(SessionTrace),
}

/// One trace input of an analysis subcommand: read once, classified once
/// (corpus, binary or text) and opened once — strictly, or leniently
/// under `--salvage` — together with the shared analysis options. The
/// warm attempt, the cold decode, byte spans and `--explain` re-decodes
/// all come from this one load.
struct Input {
    path: String,
    opened: Opened,
    /// A `--salvage` binary input reopened through the salvage scan after
    /// its cold decode failed (see [`Input::rescan`]); it then stands in
    /// for the strict open everywhere.
    rescanned: OnceLock<IndexedTrace>,
    /// The `--session K` member of a corpus input.
    session: Option<usize>,
    damage: Damage,
    jobs: usize,
    config: AnalysisConfig,
    filter: EpisodeFilter,
    /// `false` under `--no-cache` or `--check`: always decode cold.
    cache: bool,
}

impl Input {
    /// Reads and opens a command's input file (its first positional).
    fn load(args: &[String], command: &str) -> Result<Input, Failure> {
        Input::load_path(args, first_path(args, command)?)
    }

    fn load_path(args: &[String], path: &str) -> Result<Input, Failure> {
        Input::open(args, path, read_input(path)?)
    }

    /// Classifies and opens the bytes read from `path`, applying
    /// `--salvage` and `--session K`.
    fn open(args: &[String], path: &str, bytes: Vec<u8>) -> Result<Input, Failure> {
        let salvage = opt_flag(args, "--salvage");
        let failed = |e: TraceError| -> Failure {
            if salvage {
                Failure::unrecoverable(format!("cannot salvage {path}: {e}"))
            } else {
                format!("cannot load {path}: {e}").into()
            }
        };
        let (opened, damage, session) = if corpus::is_corpus(&bytes) {
            let reader = CorpusReader::open(bytes)
                .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))?;
            let session = opt_value(args, "--session")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| format!("--session expects a session index, got {v:?}"))
                })
                .transpose()?;
            let damage = match session {
                Some(k) if k >= reader.len() => {
                    return Err(
                        format!("{path} has {} sessions, no index {k}", reader.len()).into(),
                    )
                }
                Some(k) => {
                    let view = reader.session(k);
                    let damage = Damage {
                        verdict: view.damage_verdict(),
                        recovered: view.source().len() as u64,
                        episodes_lost: view.episodes_lost(),
                        skips: view.skips(),
                    };
                    damage.note(&format!("{path} session {k}"));
                    damage
                }
                None => Damage {
                    verdict: reader.damage_verdict(),
                    ..Damage::CLEAN
                },
            };
            (Opened::Corpus(reader), damage, session)
        } else {
            let (opened, damage) = if bytes.starts_with(BINARY_MAGIC) {
                let indexed = if salvage {
                    IndexedTrace::open_salvage(bytes)
                } else {
                    IndexedTrace::open(bytes)
                }
                .map_err(failed)?;
                let damage = Damage::of_report(indexed.salvage_report());
                (Opened::Binary(Box::new(indexed)), damage)
            } else if salvage {
                let salvaged = lagalyzer_trace::read_bytes_salvage(&bytes).map_err(failed)?;
                let damage = Damage::of_report(Some(&salvaged.report));
                (Opened::Text(salvaged.trace), damage)
            } else {
                let trace = lagalyzer_trace::read_bytes(&bytes).map_err(failed)?;
                (Opened::Text(trace), Damage::CLEAN)
            };
            damage.note(path);
            (opened, damage, None)
        };
        Ok(Input {
            path: path.to_owned(),
            opened,
            rescanned: OnceLock::new(),
            session,
            damage,
            jobs: parse_jobs(args)?,
            config: AnalysisConfig {
                perceptible_threshold: DurationNs::from_millis(parse_u64(
                    args,
                    "--threshold-ms",
                    100,
                )?),
            },
            filter: parse_filter(args)?,
            cache: !opt_flag(args, "--no-cache") && !opt_flag(args, "--check"),
        })
    }

    /// The whole corpus, when the input is one and `--session K` did not
    /// pick a member.
    fn corpus_wide(&self) -> Option<&CorpusReader> {
        match (&self.opened, self.session) {
            (Opened::Corpus(reader), None) => Some(reader),
            _ => None,
        }
    }

    /// A `.lgz` input as currently opened: the salvage scan's reopen when
    /// there was one, else the open.
    fn indexed(&self) -> Option<&IndexedTrace> {
        match &self.opened {
            Opened::Binary(indexed) => Some(self.rescanned.get().unwrap_or(indexed)),
            _ => None,
        }
    }

    /// The one indexed session this input names: a `.lgz` trace or a
    /// `--session K` corpus member. `None` for text traces and whole
    /// corpora.
    fn source(&self) -> Option<SessionSource<'_>> {
        match (&self.opened, self.session) {
            (Opened::Corpus(reader), Some(k)) => Some(reader.session(k).source()),
            _ => self.indexed().map(IndexedTrace::source),
        }
    }

    /// Extents whose offsets are byte positions in the input file: only a
    /// `.lgz` trace's (corpus extents index a session payload).
    fn file_extents(&self) -> Option<&[EpisodeExtent]> {
        self.indexed().map(IndexedTrace::extents)
    }

    /// What salvage found, including a reopen through the salvage scan.
    fn damage(&self) -> Damage {
        self.rescanned.get().map_or(self.damage, |scanned| {
            Damage::of_report(scanned.salvage_report())
        })
    }

    /// Reopens a `--salvage` binary input through the salvage scan, as
    /// `lint` does, after its cold decode failed although the strict open
    /// succeeded: episode bytes damaged under a trailer checksum that
    /// still verifies. Clean inputs never get here, so they keep the warm
    /// path and skip-decode filtering. `false` when there is nothing to
    /// reopen.
    fn rescan(&self) -> bool {
        let Opened::Binary(indexed) = &self.opened else {
            return false;
        };
        if indexed.salvage_report().is_none()
            || indexed.health() == &IndexHealth::SalvageScan
            || self.rescanned.get().is_some()
        {
            return false;
        }
        let Ok(scanned) = indexed.rescan() else {
            return false;
        };
        self.rescanned.get_or_init(|| scanned);
        self.damage().note(&self.path);
        true
    }

    /// The byte span of episode `id`'s records in the input file.
    fn span_of(&self, id: EpisodeId) -> Option<(u64, u64)> {
        self.file_extents()?
            .iter()
            .find(|e| e.id == id)
            .map(|e| (e.offset, e.offset + e.len))
    }

    /// `0` for a clean input, `2` for a damaged one (see [`DamageVerdict`]).
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(self.damage().verdict.exit_code())
    }

    fn provenance(&self) -> Provenance {
        let damage = self.damage();
        match damage.verdict {
            DamageVerdict::Clean => Provenance::Clean,
            _ => Provenance::Salvaged {
                skips: damage.skips,
                episodes_lost: damage.episodes_lost,
            },
        }
    }

    /// The warm path: the session answered from its validated rollup.
    fn warm(&self) -> Option<WarmSession<'_>> {
        if !self.cache {
            return None;
        }
        WarmSession::of_source(self.source()?, self.config, &self.filter)
    }

    /// Warm sessions for every member of a whole corpus; `None` when any
    /// member has to decode cold.
    fn warm_corpus(&self) -> Option<Vec<WarmSession<'_>>> {
        if !self.cache {
            return None;
        }
        self.corpus_wide()?
            .sessions()
            .map(|view| WarmSession::of_source(view.source(), self.config, &self.filter))
            .collect()
    }

    /// The one indexed session this input names, or why there is none: a
    /// whole corpus has to pick a member with `--session K`.
    fn single_source(&self) -> Result<SessionSource<'_>, Failure> {
        self.source().ok_or_else(|| {
            let sessions = self.corpus_wide().map_or(0, CorpusReader::len);
            format!(
                "{} is a corpus of {sessions} sessions; select one with --session K",
                self.path
            )
            .into()
        })
    }

    /// Runs a decode of the input's one indexed session, reopening a
    /// `--salvage` input through the salvage scan and running it again when
    /// it fails (see [`Input::rescan`]). Returns the result and the source
    /// it came from.
    fn with_source<T>(
        &self,
        decode: impl Fn(&SessionSource<'_>) -> Result<T, TraceError>,
    ) -> Result<(T, SessionSource<'_>), Failure> {
        let source = self.single_source()?;
        let (source, decoded) = match decode(&source) {
            Err(_) if self.rescan() => {
                let source = self.source().expect("a rescanned trace has a source");
                (source, decode(&source))
            }
            decoded => (source, decoded),
        };
        let decoded = decoded.map_err(|e| format!("cannot load {}: {e}", self.path))?;
        Ok((decoded, source))
    }

    /// The cold path: the filtered session, decoded, and how many
    /// episodes the filter excluded.
    fn decode(&self) -> Result<(SessionTrace, u64), Failure> {
        if let Opened::Text(trace) = &self.opened {
            let kept = self.filter.retain(trace.clone());
            let excluded = trace.episodes().len() - kept.episodes().len();
            return Ok((kept, excluded as u64));
        }
        let (trace, source) =
            self.with_source(|source| source.decode_filtered(self.jobs, &self.filter))?;
        Ok((trace, source.excluded_by(&self.filter) as u64))
    }

    /// The streamed cold path: the episodes the filter admits, lent one at
    /// a time to `step` with their positions (extent positions, or indices
    /// into a text trace) and never kept. An indexed session folds over
    /// `--jobs` workers (see [`SessionSource::fold`]); a text trace, whose
    /// episodes are already decoded, feeds them in order. Returns the
    /// shard states in episode order and how many episodes the filter
    /// excluded.
    fn fold<S: Send>(
        &self,
        init: impl Fn() -> S + Sync,
        step: impl Fn(&mut S, usize, &Episode) + Sync,
    ) -> Result<(Vec<S>, u64), Failure> {
        if let Opened::Text(trace) = &self.opened {
            let mut state = init();
            let mut excluded = 0;
            for (position, episode) in trace.episodes().iter().enumerate() {
                if self.filter.admits_episode(episode) {
                    step(&mut state, position, episode);
                } else {
                    excluded += 1;
                }
            }
            return Ok((vec![state], excluded));
        }
        let (states, source) =
            self.with_source(|source| source.fold(self.jobs, &self.filter, &init, &step))?;
        Ok((states, source.excluded_by(&self.filter) as u64))
    }

    /// The session folded into an in-memory rollup as it is decoded, and
    /// the facts it is analyzed under. `breakdowns: false` leaves the lag
    /// breakdowns out, for answers that read none.
    fn fold_rollup(&self, breakdowns: bool) -> Result<(Folded, SessionFacts<'_>), Failure> {
        let (folded, facts) = if let Opened::Text(trace) = &self.opened {
            let builder = RollupBuilder::new(trace.meta(), trace.symbols()).breakdowns(breakdowns);
            let (shards, excluded) =
                self.fold(|| builder.shard(), |shard, i, e| builder.push(shard, i, e))?;
            let facts = SessionFacts {
                excluded,
                ..SessionFacts::of_trace(trace, self.config)
            };
            (builder.finish(shards), facts)
        } else {
            // The builder resolves I/O classes in the symbol table of the
            // source it folds, which a salvage rescan replaces.
            let (folded, source) = self.with_source(|source| {
                RollupBuilder::new(source.meta(), source.symbols())
                    .breakdowns(breakdowns)
                    .fold(source, self.jobs, &self.filter)
            })?;
            let facts = SessionFacts {
                excluded: source.excluded_by(&self.filter) as u64,
                ..SessionFacts::of_source(&source, self.config)
            };
            (folded, facts)
        };
        let salvaged = self.provenance().is_salvaged();
        Ok((folded, SessionFacts { salvaged, ..facts }))
    }

    /// [`Input::decode`], wrapped for analysis with its provenance.
    fn session(&self) -> Result<AnalysisSession, Failure> {
        let (trace, excluded) = self.decode()?;
        Ok(AnalysisSession::with_exclusions(
            trace,
            self.config,
            self.provenance(),
            excluded,
        ))
    }

    /// Every member of a whole corpus, decoded cold through the corpus
    /// extent index.
    fn decode_corpus(&self, reader: &CorpusReader) -> Result<Vec<SessionTrace>, Failure> {
        let decoded = if self.filter.is_unrestricted() {
            reader.par_decode(self.jobs)
        } else {
            reader
                .sessions()
                .map(|view| view.decode_filtered(self.jobs, &self.filter))
                .collect()
        };
        decoded.map_err(|e| format!("cannot load {}: {e}", self.path).into())
    }

    /// Re-decodes just the episodes at extent `positions`, touching no
    /// other extent's bytes; a text trace's are copied from its episodes.
    fn decode_subset(&self, positions: &[usize]) -> Option<Vec<Episode>> {
        match &self.opened {
            Opened::Text(trace) => positions
                .iter()
                .map(|&i| trace.episodes().get(i).cloned())
                .collect(),
            _ => self.source()?.decode_subset(self.jobs, positions).ok(),
        }
    }

    /// The episode a finding names: re-decoded alone from its extent on an
    /// indexed input, else looked up in the text trace.
    fn explain_episode(&self, id: EpisodeId) -> Result<Episode, Failure> {
        let found = match &self.opened {
            Opened::Text(trace) => trace.episodes().iter().find(|e| e.id() == id).cloned(),
            _ => self.source().and_then(|source| {
                let position = source.extents().iter().position(|e| e.id == id)?;
                self.decode_subset(&[position])?.pop()
            }),
        };
        found.ok_or_else(|| "finding points outside the decoded session".into())
    }

    /// The symbol table of the one session this input names; `None` for a
    /// whole corpus.
    fn symbols(&self) -> Option<&SymbolTable> {
        match &self.opened {
            Opened::Text(trace) => Some(trace.symbols()),
            _ => self.source().map(|source| source.symbols()),
        }
    }

    /// Answers a single-session command by running `answer` once over the
    /// session's summaries: read from a validated rollup (warm, noted on
    /// stderr as `rollup: cache hit (N episode summaries, {how})`), else
    /// from a rollup folded in memory while the session decodes (cold),
    /// with lag breakdowns only when `breakdowns` asks for them. Both come
    /// through [`Summaries::of_rollup`]. A warm answer whose lock/wait
    /// re-decode fails falls back to the cold path.
    fn answer<T>(
        &self,
        how: &str,
        breakdowns: bool,
        answer: impl Fn(&Summaries<'_>) -> Option<T>,
    ) -> Result<T, Failure> {
        if let Some(warm) = self.warm() {
            if let Some(found) = answer(warm.summaries()) {
                eprintln!(
                    "rollup: cache hit ({} episode summaries, {how})",
                    warm.rollup().summaries.len()
                );
                return Ok(found);
            }
        }
        let (folded, facts) = self.fold_rollup(breakdowns)?;
        let rows = RollupRows::Folded(&folded.rows);
        answer(&Summaries::of_rollup(facts, &folded.rollup, rows))
            .ok_or_else(|| format!("cannot analyze {}", self.path).into())
    }

    /// Outlier detection and attribution over `summaries`; flagged
    /// lock/wait episodes of a warm session are re-decoded from this input.
    fn outliers(
        &self,
        summaries: &Summaries<'_>,
        patterns: &PatternSet,
        config: &OutlierConfig,
    ) -> Option<OutlierReport> {
        let decode = |positions: &[usize]| self.decode_subset(positions);
        OutlierReport::of_summaries(summaries, patterns, config, self.jobs, &decode)
    }
}

/// Loads every input, decoding each cold; the exit code is the worst
/// input's.
fn load_sessions(
    args: &[String],
    paths: &[&str],
) -> Result<(Vec<AnalysisSession>, ExitCode), Failure> {
    let mut code = 0;
    let sessions = paths
        .iter()
        .map(|path| {
            let input = Input::load_path(args, path)?;
            let session = input.session()?;
            code = code.max(input.damage().verdict.exit_code());
            Ok(session)
        })
        .collect::<Result<_, Failure>>()?;
    Ok((sessions, ExitCode::from(code)))
}

/// `analyze --check`: runs the semantic checker over a copy of the
/// input's bytes before they are opened. Errors refuse analysis (exit 2);
/// warnings and notes are reported and analysis goes on.
fn run_check(path: &str, bytes: &[u8]) -> Result<CheckOutcome, Failure> {
    let report = check_bytes(bytes.to_vec(), &mut RuleSet::standard())
        .map_err(|e| Failure::unrecoverable(format!("cannot check {path}: {e}")))?;
    if report.errors() > 0 {
        eprint!("{}", report.render_text(path));
        return Err(Failure {
            msg: format!(
                "check found {} error(s) in {path}; refusing analysis",
                report.errors()
            ),
            code: EXIT_SALVAGED,
        });
    }
    if !report.is_clean() {
        eprintln!(
            "check: {path}: {} warning(s), {} note(s); analyzing anyway",
            report.warnings(),
            report.notes()
        );
    }
    Ok(CheckOutcome {
        errors: report.errors() as u64,
        warnings: report.warnings() as u64,
        notes: report.notes() as u64,
    })
}

fn cmd_analyze(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = first_path(args, "analyze")?;
    let bytes = read_input(path)?;
    let check = if opt_flag(args, "--check") {
        if corpus::is_corpus(&bytes) {
            return Err("--check is not supported on corpus files".into());
        }
        Some(run_check(path, &bytes)?)
    } else {
        None
    };
    let input = Input::open(args, path, bytes)?;
    if let Some(reader) = input.corpus_wide() {
        return analyze_corpus(args, &input, reader, stdout);
    }
    if parse_format(args)? != "text" {
        return Err("--format json is only supported for corpus-wide analyze".into());
    }
    let jobs = input.jobs;
    let histogram = opt_flag(args, "--histogram");
    // Everything is computed before the first byte is printed, so a warm
    // fallback never emits a partial report. The Table III row and the
    // outlier scan share one mined pattern set (the dedicated `outliers`
    // subcommand exposes the knobs).
    let (meta, stats, excluded, outliers, histogram) =
        input.answer("zero decode", true, |summaries| {
            let patterns = summaries.mine_patterns_with_jobs(jobs);
            let outliers = input.outliers(summaries, &patterns, &OutlierConfig::default())?;
            Some((
                summaries.meta().clone(),
                SessionStats::compute_from(summaries, &patterns, jobs),
                summaries.excluded(),
                outliers,
                histogram.then(|| summaries.histogram()),
            ))
        })?;
    writeln!(stdout, "application       {}", meta.application)?;
    writeln!(stdout, "session           {}", meta.session)?;
    writeln!(
        stdout,
        "E2E               {:.0} s",
        stats.end_to_end.as_secs_f64()
    )?;
    writeln!(
        stdout,
        "in-episode        {:.0} %",
        stats.in_episode_fraction * 100.0
    )?;
    writeln!(stdout, "episodes < 3ms    {}", stats.short_count)?;
    writeln!(stdout, "episodes >= 3ms   {}", stats.traced_count)?;
    writeln!(stdout, "episodes >= 100ms {}", stats.perceptible_count)?;
    if excluded > 0 {
        writeln!(stdout, "filtered out      {excluded}")?;
    }
    writeln!(stdout, "long per minute   {:.0}", stats.long_per_minute)?;
    writeln!(stdout, "distinct patterns {}", stats.distinct_patterns)?;
    writeln!(stdout, "episodes in pats  {}", stats.episodes_in_patterns)?;
    writeln!(
        stdout,
        "singleton pats    {:.0} %",
        stats.singleton_fraction * 100.0
    )?;
    writeln!(stdout, "mean tree size    {:.1}", stats.mean_tree_size)?;
    writeln!(stdout, "mean tree depth   {:.1}", stats.mean_tree_depth)?;
    writeln!(stdout, "outliers          {}", outliers.summary())?;
    if let Some(check) = check {
        writeln!(
            stdout,
            "semantic check    {} error(s), {} warning(s), {} note(s)",
            check.errors, check.warnings, check.notes
        )?;
    }
    if let Some(histogram) = histogram {
        writeln!(stdout, "\nepisode duration distribution:")?;
        write!(stdout, "{}", histogram.to_ascii(50))?;
        writeln!(
            stdout,
            "fraction handled under 128ms: {:.1} %",
            histogram.fraction_under(DurationNs::from_millis(128)) * 100.0
        )?;
    }
    Ok(input.exit_code())
}

/// Per-member `(episodes, perceptible)` counts, the merged cross-session
/// patterns and the filtered-out total of a whole corpus.
type CorpusPatterns = (Vec<(usize, usize)>, MultiPatternSet, u64);

/// A whole corpus's per-member `(episodes, perceptible)` counts, merged
/// cross-session pattern table and filtered-out total, computed once over
/// the members' summaries: read from the rollups when every member carries
/// a valid one, else summarized from the decoded sessions.
fn corpus_patterns(input: &Input, reader: &CorpusReader) -> Result<CorpusPatterns, Failure> {
    let (jobs, threshold) = (input.jobs, input.config.perceptible_threshold);
    let warms = input.warm_corpus();
    let folded: Vec<(Folded, SessionSource<'_>)>;
    let cold: Vec<Summaries<'_>>;
    let members: Vec<&Summaries<'_>> = match &warms {
        Some(warms) => {
            eprintln!("rollup: cache hit ({} sessions, zero decode)", warms.len());
            warms.iter().map(WarmSession::summaries).collect()
        }
        None => {
            // Each member folded into an in-memory rollup as it decodes;
            // mining reads no lag breakdowns.
            folded = reader
                .sessions()
                .map(|view| {
                    let source = view.source();
                    RollupBuilder::new(source.meta(), source.symbols())
                        .breakdowns(false)
                        .fold(&source, jobs, &input.filter)
                        .map(|folded| (folded, source))
                })
                .collect::<Result<_, TraceError>>()
                .map_err(|e| format!("cannot load {}: {e}", input.path))?;
            cold = folded
                .iter()
                .map(|(folded, source)| {
                    let facts = SessionFacts::of_source(source, input.config);
                    Summaries::of_rollup(facts, &folded.rollup, RollupRows::Folded(&folded.rows))
                })
                .collect();
            cold.iter().collect()
        }
    };
    let counts = members
        .iter()
        .map(|s| {
            let perceptible = s.episodes().iter().filter(|e| e.duration >= threshold);
            (s.episodes().len(), perceptible.count())
        })
        .collect();
    let sets: Vec<PatternSet> = members
        .iter()
        .map(|s| s.mine_patterns_with_jobs(jobs))
        .collect();
    let excluded = reader
        .sessions()
        .map(|view| view.source().excluded_by(&input.filter) as u64)
        .sum();
    Ok((counts, MultiPatternSet::merge(&sets), excluded))
}

/// Corpus-wide `analyze`: one row per member session plus the merged
/// cross-session patterns (byte-identical to mining the N files
/// separately).
fn analyze_corpus(
    args: &[String],
    input: &Input,
    reader: &CorpusReader,
    stdout: &mut dyn Write,
) -> Result<ExitCode, Failure> {
    let format = parse_format(args)?;
    let (counts, multi, excluded) = corpus_patterns(input, reader)?;
    let episodes: usize = counts.iter().map(|c| c.0).sum();
    let perceptible: usize = counts.iter().map(|c| c.1).sum();
    let damaged = reader.sessions().filter(SessionView::is_damaged).count();
    if format == "json" {
        let sessions_json: Vec<String> = reader
            .sessions()
            .zip(&counts)
            .map(|(view, (episodes, perceptible))| {
                let meta = view.source().meta();
                format!(
                    "{{\"index\":{},\"application\":{},\"session\":{},\"episodes\":{episodes},\
                     \"perceptible\":{perceptible},\"salvaged\":{},\"damaged\":{},\"compressed\":{},\
                     \"health\":{}}}",
                    view.index(),
                    json_string(&meta.application),
                    json_string(&meta.session.to_string()),
                    view.is_salvaged(),
                    view.is_damaged(),
                    view.is_compressed(),
                    json_string(&view.health().to_string()),
                )
            })
            .collect();
        writeln!(
            stdout,
            "{{\"corpus\":{{\"sessions\":{},\"episodes\":{episodes},\"perceptible\":{perceptible},\
             \"filtered_out\":{excluded},\"global_symbols\":{},\"damaged_sessions\":{damaged}}},\
             \"sessions\":[{}],\
             \"patterns\":{{\"merged\":{},\"recurring\":{},\"stable_problems\":{}}}}}",
            reader.len(),
            reader.global_symbols().len(),
            sessions_json.join(","),
            multi.len(),
            multi.recurring().count(),
            multi.stable_problems().len(),
        )?;
    } else {
        writeln!(stdout, "corpus            {}", input.path)?;
        writeln!(stdout, "sessions          {}", reader.len())?;
        writeln!(stdout, "episodes          {episodes}")?;
        writeln!(stdout, "episodes >= 100ms {perceptible}")?;
        if excluded > 0 {
            writeln!(stdout, "filtered out      {excluded}")?;
        }
        writeln!(
            stdout,
            "global symbols    {}",
            reader.global_symbols().len()
        )?;
        writeln!(stdout, "damaged sessions  {damaged}")?;
        for (view, (episodes, perceptible)) in reader.sessions().zip(&counts) {
            let meta = view.source().meta();
            let mut notes = Vec::new();
            if view.is_damaged() {
                notes.push("damaged");
            } else if view.is_salvaged() {
                notes.push("salvaged");
            }
            if view.is_compressed() {
                notes.push("compressed");
            }
            writeln!(
                stdout,
                "  session {:<3} {} {}  {episodes:>6} episodes {perceptible:>5} perceptible  [{}]{}",
                view.index(),
                meta.application,
                meta.session,
                view.health(),
                if notes.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", notes.join(", "))
                },
            )?;
        }
        writeln!(
            stdout,
            "merged patterns   {} ({} recurring in every session)",
            multi.len(),
            multi.recurring().count()
        )?;
        writeln!(
            stdout,
            "stable problems   {}",
            multi.stable_problems().len()
        )?;
    }
    Ok(input.exit_code())
}

fn cmd_patterns(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let input = Input::load(args, "patterns")?;
    let perceptible_only = opt_flag(args, "--perceptible-only");
    if let Some(reader) = input.corpus_wide() {
        // The merged cross-session table.
        let (_, multi, _) = corpus_patterns(&input, reader)?;
        writeln!(
            stdout,
            "{} sessions, {} merged patterns ({} recurring in every session)",
            multi.sessions(),
            multi.len(),
            multi.recurring().count()
        )?;
        writeln!(
            stdout,
            "{:>5} {:>5} {:>8} {:>12}  signature",
            "eps", "perc", "sessions", "total lag"
        )?;
        for p in multi.patterns() {
            if perceptible_only && p.total_perceptible() == 0 {
                continue;
            }
            let sig: String = p.signature().as_str().chars().take(60).collect();
            writeln!(
                stdout,
                "{:>5} {:>5} {:>8} {:>12}  {sig}",
                p.total_episodes(),
                p.total_perceptible(),
                p.session_coverage(),
                p.total_lag().to_string(),
            )?;
        }
        return Ok(input.exit_code());
    }
    let sort = parse_sort(args)?;
    let patterns = input.answer("zero decode", false, |summaries| {
        Some(summaries.mine_patterns_with_jobs(input.jobs))
    })?;
    // The table needs only the patterns: a set mined from a salvaged
    // session carries the provenance note itself.
    let mut browser = PatternBrowser::of_patterns(&patterns);
    browser.perceptible_only(perceptible_only).sort_by(sort);
    write!(stdout, "{}", browser.to_table())?;
    Ok(input.exit_code())
}

fn cmd_lint(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = first_path(args, "lint")?;
    let bytes = read_input(path)?;
    if corpus::is_corpus(&bytes) {
        // Corpus: one index-health line per member session, then the
        // aggregate verdict. Exit codes follow the same 0/2/3 contract
        // as single traces (1 is reserved for usage/I-O errors).
        return match CorpusReader::open(bytes) {
            Err(e) => {
                writeln!(stdout, "unrecoverable: {e}")?;
                Ok(ExitCode::from(DamageVerdict::Unrecoverable.exit_code()))
            }
            Ok(reader) => {
                writeln!(
                    stdout,
                    "corpus              {} session(s), {} episode(s), {} symbol(s)",
                    reader.len(),
                    reader.total_episodes(),
                    reader.global_symbols().len()
                )?;
                for view in reader.sessions() {
                    let status = if view.is_damaged() {
                        format!(
                            "damaged ({} skip(s), {} episode(s) lost)",
                            view.skips(),
                            view.episodes_lost()
                        )
                    } else if view.is_salvaged() {
                        "salvaged clean".to_string()
                    } else {
                        "clean".to_string()
                    };
                    writeln!(
                        stdout,
                        "session {:<11} index {}; rollup {}; {status}",
                        view.index(),
                        view.health(),
                        view.rollup_health(),
                    )?;
                }
                let verdict = reader.damage_verdict();
                writeln!(
                    stdout,
                    "aggregate           {}",
                    if matches!(verdict, DamageVerdict::Clean) {
                        "clean"
                    } else {
                        "damaged corpus"
                    }
                )?;
                Ok(ExitCode::from(verdict.exit_code()))
            }
        };
    }
    // Index and rollup health are diagnostic only; they never change the
    // exit code (a footerless or footer-damaged trace still decodes, and a
    // stale cache only costs the warm path). They are probed before the
    // salvage decode takes over the buffer.
    let index = lagalyzer_trace::index::probe_health(&bytes);
    let rollup = lagalyzer_trace::probe_rollup(&bytes);
    // The report comes from the salvage decode `check` runs, and the exit
    // code from the shared damage classification, so `lint` and `check`
    // can never disagree on what counts as salvaged.
    match lagalyzer_trace::decode_bytes_salvage(bytes, 1) {
        Err(e) => {
            writeln!(stdout, "unrecoverable: {e}")?;
            Ok(ExitCode::from(DamageVerdict::Unrecoverable.exit_code()))
        }
        Ok((salvaged, _)) => {
            write!(stdout, "{}", salvaged.report.render())?;
            match index {
                Some(health) => writeln!(stdout, "index               {health}")?,
                None => writeln!(stdout, "index               not applicable (text trace)")?,
            }
            match rollup {
                Some(health) => writeln!(stdout, "rollup              {health}")?,
                None => writeln!(
                    stdout,
                    "rollup              not applicable (no v2 section region)"
                )?,
            }
            Ok(ExitCode::from(
                DamageVerdict::of_report(&salvaged.report).exit_code(),
            ))
        }
    }
}

/// Builds the rule set for `check`, applying every `--allow CODE`,
/// `--deny CODE` and `--level CODE=SEVERITY` override in turn. Rules may
/// be named by code (`LA007`) or by name (`sub-floor-episode`).
fn check_ruleset(args: &[String]) -> Result<RuleSet, Failure> {
    let mut rules = RuleSet::standard();
    for code in opt_values(args, "--allow") {
        rules.allow(code).map_err(|e| e.to_string())?;
    }
    for code in opt_values(args, "--deny") {
        rules.deny(code).map_err(|e| e.to_string())?;
    }
    for spec in opt_values(args, "--level") {
        let (code, sev) = spec
            .split_once('=')
            .ok_or_else(|| format!("--level expects CODE=SEVERITY, got {spec:?}"))?;
        let severity = Severity::parse(sev)
            .ok_or_else(|| format!("unknown severity {sev:?}; expected note, warning or error"))?;
        rules.level(code, severity).map_err(|e| e.to_string())?;
    }
    Ok(rules)
}

fn cmd_check(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    if opt_flag(args, "--list-rules") {
        writeln!(
            stdout,
            "{:<7} {:<25} {:<8} summary",
            "code", "name", "level"
        )?;
        for (code, name, severity, summary) in RuleSet::standard().descriptions() {
            writeln!(
                stdout,
                "{code:<7} {name:<25} {:<8} {summary}",
                severity.name()
            )?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let path = first_path(args, "check")?;
    let format = parse_format(args)?;
    let mut rules = check_ruleset(args)?;
    let bytes = read_input(path)?;
    if corpus::is_corpus(&bytes) {
        // A usage error, not an unrecoverable trace: the rules check
        // single traces, so corpus members are checked as `.lgz` files.
        return Err("check is not supported on corpus files".into());
    }
    let report = check_bytes(bytes, &mut rules)
        .map_err(|e| Failure::unrecoverable(format!("cannot check {path}: {e}")))?;
    if format == "json" {
        writeln!(stdout, "{}", report.render_json(path))?;
    } else {
        write!(stdout, "{}", report.render_text(path))?;
    }
    if let Some(out) = opt_value(args, "--fix-report") {
        let mut json = report.render_json(path);
        json.push('\n');
        fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// Builds the hazard detection config from `--min-samples` and
/// `--starvation-streak`.
fn parse_hazard_config(args: &[String]) -> Result<HazardConfig, Failure> {
    let mut config = HazardConfig::default();
    if let Some(v) = opt_value(args, "--min-samples") {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("--min-samples expects a number, got {v:?}"))?;
        config.min_wait_samples = n.max(1);
        config.min_edge_samples = n.max(1);
    }
    if let Some(v) = opt_value(args, "--starvation-streak") {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("--starvation-streak expects a number, got {v:?}"))?;
        config.starvation_streak = n.max(2);
    }
    Ok(config)
}

fn cmd_hazards(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let format = parse_format(args)?;
    let config = parse_hazard_config(args)?;
    let input = Input::load(args, "hazards")?;
    let report = match input.corpus_wide() {
        Some(reader) => {
            // Corpus: per-session lock graphs re-interned through the
            // corpus-wide symbol table, then the cross-session merge
            // (LA025).
            if opt_value(args, "--explain").is_some() {
                return Err("--explain works on single traces, not corpora".into());
            }
            let traces = input.decode_corpus(reader)?;
            let mut symbols = reader.global_symbols().clone();
            HazardReport::analyze_corpus(&traces, &mut symbols, input.jobs, &config)
        }
        None => {
            // The session's lock graph, folded as its episodes decode.
            let (shards, _) = input.fold(
                || (LockGraph::new(), 0usize),
                |(graph, episodes), _, episode| {
                    graph.add_episode(episode);
                    *episodes += 1;
                },
            )?;
            let mut graph = LockGraph::new();
            let mut episodes = 0;
            for (shard, n) in shards {
                graph.merge(shard);
                episodes += n;
            }
            // Only a `.lgz` trace's extents carry byte spans in the file.
            let symbols = input.symbols().expect("a single session has symbols");
            HazardReport::of_graph(&graph, episodes, symbols, input.file_extents(), &config)
        }
    };
    if format == "json" {
        writeln!(stdout, "{}", report.render_json(&input.path))?;
    } else {
        write!(stdout, "{}", report.render_text(&input.path))?;
    }
    if let Some(finding) = explained(args, &report.findings)? {
        let symbols = input.symbols().expect("--explain is refused on corpora");
        explain_hazard(&input, symbols, finding, stdout)?;
    }
    Ok(input.exit_code())
}

/// Deep-dive for one hazard finding: the episode's contended waits and an
/// ASCII sketch, the episode re-decoded alone from its extent.
fn explain_hazard(
    input: &Input,
    symbols: &SymbolTable,
    finding: &Diagnostic,
    stdout: &mut dyn Write,
) -> Result<(), Failure> {
    let id = finding
        .episode_id
        .ok_or("this finding is graph-wide, not tied to one episode")?;
    let episode = input.explain_episode(id)?;
    writeln!(
        stdout,
        "\nepisode {} — {}: {}",
        id.as_raw(),
        finding.code,
        finding.message
    )?;
    let waits = lagalyzer_model::lockgraph::extract_waits(&episode);
    if waits.is_empty() {
        writeln!(stdout, "contended waits: none")?;
    } else {
        writeln!(stdout, "contended waits:")?;
        for wait in &waits {
            writeln!(
                stdout,
                "  t{:<4} {:>4} sample(s)  {:<9} on {}",
                wait.thread.as_raw(),
                wait.samples,
                wait.kind.name(),
                symbols.render(wait.lock),
            )?;
        }
    }
    write!(stdout, "{}", ascii_sketch(&episode, symbols, 100))?;
    Ok(())
}

/// Builds the outlier detection config from `--mad-k`, `--min-excess-ms`
/// and `--min-count`.
fn parse_outlier_config(args: &[String]) -> Result<OutlierConfig, Failure> {
    let mut config = OutlierConfig::default();
    if let Some(v) = opt_value(args, "--mad-k") {
        let k: f64 = v
            .parse()
            .map_err(|_| format!("--mad-k expects a number, got {v:?}"))?;
        if !k.is_finite() || k <= 0.0 {
            return Err(format!("--mad-k must be a positive number, got {v:?}").into());
        }
        config.mad_k = k;
    }
    if let Some(v) = opt_value(args, "--min-excess-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--min-excess-ms expects milliseconds, got {v:?}"))?;
        config.min_excess = DurationNs::from_millis(ms);
    }
    if let Some(v) = opt_value(args, "--min-count") {
        let n: usize = v
            .parse()
            .map_err(|_| format!("--min-count expects a number, got {v:?}"))?;
        config.min_count = n.max(2);
    }
    Ok(config)
}

fn cmd_outliers(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let format = parse_format(args)?;
    let config = parse_outlier_config(args)?;
    let input = Input::load(args, "outliers")?;
    // Detection, medians, baselines and causes from the summaries; a warm
    // session re-decodes only its flagged lock/wait episodes.
    let mut report = input.answer("decoded only flagged lock/wait", true, |summaries| {
        input.outliers(
            summaries,
            &summaries.mine_patterns_with_jobs(input.jobs),
            &config,
        )
    })?;
    let symbols = input
        .symbols()
        .ok_or("outliers needs one session of a corpus; select it with --session K")?;
    // Each finding carries the byte span of its episode's records (the
    // provenance `check` diagnostics carry too).
    report.attach_spans(|id| input.span_of(id));
    if format == "json" {
        writeln!(stdout, "{}", report.render_json(symbols))?;
    } else {
        write!(stdout, "{}", report.render_text(symbols))?;
    }
    if let Some(finding) = explained(args, report.findings())? {
        let episode = input.explain_episode(finding.episode_id)?;
        print_explanation(&episode, symbols, finding, stdout)?;
    }
    Ok(input.exit_code())
}

/// The `outliers --explain` deep-dive body.
fn print_explanation(
    episode: &Episode,
    symbols: &SymbolTable,
    finding: &lagalyzer_core::OutlierFinding,
    stdout: &mut dyn Write,
) -> std::io::Result<()> {
    writeln!(
        stdout,
        "\nepisode {} — {} ({}), excess +{}ms over the pattern median",
        finding.episode_id.as_raw(),
        finding.cause.code(),
        finding.cause.label(),
        finding.excess.as_nanos() / 1_000_000,
    )?;
    let graph = lagalyzer_model::WaitGraph::extract(episode);
    if graph.wait_samples() > 0 {
        writeln!(
            stdout,
            "wait edges: {} blocked + {} waiting sample(s)",
            graph.blocked_samples, graph.waiting_samples
        )?;
        for holder in graph.holders().iter().take(5) {
            writeln!(
                stdout,
                "  t{:<4} {:>4} sample(s)  {}",
                holder.thread.as_raw(),
                holder.samples,
                holder
                    .top_frame
                    .map_or_else(|| "<vm>".to_string(), |(m, _)| symbols.render(m)),
            )?;
        }
    } else {
        writeln!(
            stdout,
            "wait edges: none (dispatch thread never sampled blocked/waiting)"
        )?;
    }
    write!(stdout, "{}", ascii_sketch(episode, symbols, 100))?;
    Ok(())
}

fn cmd_sketch(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let input = Input::load(args, "sketch")?;
    // Random access: a plain `--episode N` on an unfiltered, strictly
    // opened indexed input decodes just that episode, not the whole file.
    let random_access = opt_value(args, "--pattern").is_none() && input.filter.is_unrestricted();
    if let Some(source) = input.source().filter(|s| random_access && !s.is_lenient()) {
        let index = parse_u64(args, "--episode", 0)? as usize;
        if index >= source.len() {
            return Err(format!("trace has {} episodes, no index {index}", source.len()).into());
        }
        let episode = source
            .decode_episode(index)
            .map_err(|e| format!("cannot load {}: {e}", input.path))?;
        render_episode_sketch(args, &episode, source.symbols(), index, stdout)?;
        return Ok(input.exit_code());
    }
    let session = input.session()?;
    // --pattern N selects the first episode of the N-th pattern (what the
    // paper's pattern browser shows on selection); --episode N selects by
    // dispatch order.
    let index = if let Some(p) = opt_value(args, "--pattern") {
        let rank: usize = p
            .parse()
            .map_err(|_| format!("--pattern expects a number, got {p:?}"))?;
        let patterns = session.mine_patterns();
        let pattern = patterns
            .patterns()
            .get(rank)
            .ok_or_else(|| format!("trace has {} patterns, no rank {rank}", patterns.len()))?;
        if opt_flag(args, "--gallery") {
            // Render all of the pattern's episodes as mini-sketches on a
            // common scale (paper §II-E browsing flow).
            let episodes: Vec<_> = pattern
                .episode_indices()
                .iter()
                .map(|&i| &session.episodes()[i])
                .collect();
            let svg = render_pattern_gallery(
                &episodes,
                session.trace().symbols(),
                &SketchOptions::default(),
            );
            match opt_value(args, "--out") {
                Some(out) => {
                    fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
                    writeln!(
                        stdout,
                        "wrote gallery of {} episodes to {out}",
                        episodes.len()
                    )?;
                }
                None => writeln!(stdout, "{svg}")?,
            }
            return Ok(input.exit_code());
        }
        pattern.episode_indices()[0]
    } else {
        parse_u64(args, "--episode", 0)? as usize
    };
    let episode = session.episodes().get(index).ok_or_else(|| {
        format!(
            "trace has {} episodes, no index {index}",
            session.episodes().len()
        )
    })?;
    render_episode_sketch(args, episode, session.trace().symbols(), index, stdout)?;
    Ok(input.exit_code())
}

fn render_episode_sketch(
    args: &[String],
    episode: &Episode,
    symbols: &SymbolTable,
    index: usize,
    stdout: &mut dyn Write,
) -> Result<(), Failure> {
    if opt_flag(args, "--ascii") {
        write!(stdout, "{}", ascii_sketch(episode, symbols, 100))?;
        return Ok(());
    }
    let svg = render_sketch(episode, symbols, &SketchOptions::default());
    match opt_value(args, "--out") {
        Some(out) => {
            fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
            writeln!(stdout, "wrote sketch of episode {index} to {out}")?;
        }
        None => writeln!(stdout, "{svg}")?,
    }
    Ok(())
}

fn cmd_timeline(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let input = Input::load(args, "timeline")?;
    let svg = render_timeline(&input.session()?, &TimelineOptions::default());
    match opt_value(args, "--out") {
        Some(out) => {
            fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
            writeln!(stdout, "wrote timeline to {out}")?;
        }
        None => writeln!(stdout, "{svg}")?,
    }
    Ok(input.exit_code())
}

fn cmd_stable(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let paths = positional_args(args);
    if paths.is_empty() {
        return Err("stable requires at least one trace file".into());
    }
    let (sessions, code) = load_sessions(args, &paths)?;
    let multi = MultiPatternSet::mine_with_jobs(&sessions, parse_jobs(args)?);
    writeln!(
        stdout,
        "{} traces, {} merged patterns ({} recurring in every trace)",
        sessions.len(),
        multi.len(),
        multi.recurring().count()
    )?;
    let problems = multi.stable_problems();
    writeln!(
        stdout,
        "stable slow patterns (perceptible wherever they occur):"
    )?;
    for (i, p) in problems.iter().take(15).enumerate() {
        let sig: String = p.signature().as_str().chars().take(70).collect();
        writeln!(
            stdout,
            "  {i:>2}. {:>4} episodes / {:>3} perceptible, total {} — {sig}",
            p.total_episodes(),
            p.total_perceptible(),
            p.total_lag(),
        )?;
    }
    if problems.is_empty() {
        writeln!(stdout, "  (none)")?;
    }
    Ok(code)
}

fn cmd_diff(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let paths = positional_args(args);
    let usage = "diff requires exactly two trace files: BASELINE CANDIDATE";
    if paths.len() != 2 {
        return Err(usage.into());
    }
    let (sessions, code) = load_sessions(args, &paths)?;
    let [baseline, candidate] = sessions.as_slice() else {
        return Err(usage.into());
    };
    let diff = lagalyzer_core::SessionDiff::between(baseline, candidate);
    const TOLERANCE: f64 = 0.20;
    writeln!(stdout, "{}", diff.summary(TOLERANCE))?;
    let trim = |sig: &lagalyzer_core::ShapeSignature| -> String {
        sig.as_str().chars().take(64).collect()
    };
    let regressions = diff.regressions(TOLERANCE);
    if !regressions.is_empty() {
        writeln!(stdout, "\nregressions (mean lag, perceptible count):")?;
        for d in regressions.iter().take(10) {
            writeln!(
                stdout,
                "  {} -> {}  ({} -> {} perceptible)  {}",
                d.baseline_mean,
                d.candidate_mean,
                d.baseline_perceptible,
                d.candidate_perceptible,
                trim(&d.signature)
            )?;
        }
    }
    let improvements = diff.improvements(TOLERANCE);
    if !improvements.is_empty() {
        writeln!(stdout, "\nimprovements:")?;
        for d in improvements.iter().take(10) {
            writeln!(
                stdout,
                "  {} -> {}  ({} -> {} perceptible)  {}",
                d.baseline_mean,
                d.candidate_mean,
                d.baseline_perceptible,
                d.candidate_perceptible,
                trim(&d.signature)
            )?;
        }
    }
    if !diff.appeared.is_empty() {
        writeln!(stdout, "\nnew patterns (episodes, perceptible):")?;
        for (sig, eps, perc) in diff.appeared.iter().take(10) {
            writeln!(stdout, "  {eps:>5} {perc:>4}  {}", trim(sig))?;
        }
    }
    if !diff.disappeared.is_empty() {
        writeln!(stdout, "\ndisappeared patterns (episodes, perceptible):")?;
        for (sig, eps, perc) in diff.disappeared.iter().take(10) {
            writeln!(stdout, "  {eps:>5} {perc:>4}  {}", trim(sig))?;
        }
    }
    Ok(code)
}

fn cmd_experiments(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let out_dir = PathBuf::from(opt_value(args, "--out-dir").unwrap_or("target/experiments"));
    let sessions = parse_u64(args, "--sessions", 4)? as u32;
    let seed = parse_u64(args, "--seed", 42)?;
    let jobs = parse_jobs(args)?;
    fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;

    eprintln!(
        "simulating {} apps x {sessions} sessions on {jobs} worker(s) ...",
        apps::standard_suite().len()
    );
    let study = Study::run_with_jobs(&apps::standard_suite(), sessions, seed, jobs);

    let table = table3::render(&study);
    write_out(&out_dir, "table3.txt", &table)?;
    writeln!(stdout, "{table}")?;

    let mut figs = vec![
        figures::fig3(&study),
        figures::fig4(&study),
        figures::fig5(&study, false),
        figures::fig5(&study, true),
        figures::fig7(&study, false),
        figures::fig7(&study, true),
        figures::fig8(&study, false),
        figures::fig8(&study, true),
    ];
    for scope in [false, true] {
        let (a, b) = figures::fig6(&study, scope);
        figs.push(a);
        figs.push(b);
    }
    for fig in &figs {
        write_out(&out_dir, &format!("{}.svg", fig.id), &fig.svg)?;
        write_out(&out_dir, &format!("{}.txt", fig.id), &fig.text)?;
    }
    let html = lagalyzer_report::html::render(&study);
    write_out(&out_dir, "report.html", &html)?;
    writeln!(
        stdout,
        "wrote {} figures and report.html to {}",
        figs.len(),
        out_dir.display()
    )?;
    Ok(ExitCode::SUCCESS)
}

fn write_out(dir: &Path, name: &str, content: &str) -> Result<(), String> {
    let path = dir.join(name);
    fs::write(&path, content).map_err(|e| format!("cannot write {path:?}: {e}"))
}
