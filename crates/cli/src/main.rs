//! `lagalyzer` — the command-line front end. Its subcommands, their
//! flags and its help text are declared in [`COMMANDS`] (see `args`).
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

mod args;

use std::fs;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;

use args::{switch, Args, Command, Flag, Kind, Need};

use lagalyzer_check::{check_bytes, Diagnostic, HazardConfig, HazardReport, RuleSet, Severity};
use lagalyzer_core::analysis::Scope;
use lagalyzer_core::browser::SortBy;
use lagalyzer_core::prelude::*;
use lagalyzer_core::rollup::RollupBuilder;
use lagalyzer_model::{
    json_string, DurationNs, Episode, EpisodeId, LockGraphs, SessionTrace, SymbolTable, TimeNs,
};
use lagalyzer_report::{figures, table3, Study};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{
    binary, DamageVerdict, EpisodeExtent, EpisodeFilter, IndexedTrace, SalvageReport,
    SessionSource, SessionView, TraceError,
};
use lagalyzer_viz::ascii::ascii_sketch;
use lagalyzer_viz::sketch::{render_pattern_gallery, render_sketch, SketchOptions};
use lagalyzer_viz::timeline::{render_timeline, Timeline, TimelineOptions, TimelineRows};

/// Exit code for a trace that was damaged but salvageable.
const EXIT_SALVAGED: u8 = 2;
/// Exit code for a trace that could not be decoded at all.
const EXIT_UNRECOVERABLE: u8 = 3;

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

    /// A decode of `path` that failed: unrecoverable when a corpus
    /// member's payload section does not decompress, which leaves none of
    /// the member's episodes readable, and a plain error otherwise.
    fn of_decode(path: &str, e: &TraceError) -> Failure {
        let msg = format!("cannot load {path}: {e}");
        if matches!(e, TraceError::UnreadablePayload(_)) {
            Failure::unrecoverable(msg)
        } else {
            msg.into()
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
            to_stderr(format_args!("error: {}\n", failure.msg));
            ExitCode::from(failure.code)
        }
    }
}

/// Writes to stderr, dropping a failed write: a closed stderr never
/// panics, and the exit code stays the command's.
fn to_stderr(message: std::fmt::Arguments<'_>) {
    let _ = std::io::stderr().write_fmt(message);
}

/// Finds the command `args` names, checks the rest of `args` against it
/// and runs it, or prints its entry under `--help`.
fn run(args: &[String], stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let (name, rest) = match args.split_first() {
        None => ("help", args),
        Some((name, rest)) if matches!(name.as_str(), "--help" | "-h") => ("help", rest),
        Some((name, rest)) => (name.as_str(), rest),
    };
    let command = COMMANDS
        .iter()
        .find(|command| command.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `lagalyzer help`"))?;
    let args = Args::parse(command, rest)?;
    if args.help {
        write!(stdout, "{}", command.entry("usage: lagalyzer ", 4))?;
        return Ok(ExitCode::SUCCESS);
    }
    (command.run)(&args, stdout)
}

/// The flags of every command that loads its input through [`Input`].
#[rustfmt::skip]
const INPUT: &[Flag] = {
    use args::{Kind::*, Need::*};
    &[
        JOBS,
        switch("--salvage"),
        Flag::new("--session", "K", Count, Optional),
        switch("--no-cache"),
        Flag::new("--threshold-ms", "MS", Millis, Or("100")),
        Flag::new("--min-lag", "MS", Millis, Optional),
        switch("--perceptible"),
        Flag::new("--since-ms", "MS", Millis, Optional),
        Flag::new("--until-ms", "MS", Millis, Optional),
    ]
};
const JOBS: Flag = Flag::new("--jobs", "N", Kind::Count, Need::Optional);
#[rustfmt::skip]
const FORMAT: Flag = Flag::new("--format", "", Kind::Choice(&["text", "json"]), Need::Or("text"));
const EXPLAIN: Flag = Flag::new("--explain", "N", Kind::Count, Need::Optional);

/// Every subcommand, in the order `help` lists them.
#[rustfmt::skip]
const COMMANDS: &[Command] = {
    use args::{Kind::*, Need::*};
    &[
        Command { name: "apps", paths: "", run: cmd_apps, flags: &[],
            about: "list built-in application profiles" },
        Command { name: "simulate", paths: "", run: cmd_simulate, flags: &[&[
            Flag::new("--app", "NAME", Text, Required),
            Flag::new("--session", "N", U32, Or("0")),
            Flag::new("--seed", "S", Count, Or("42")),
            switch("--text"),
            Flag::new("--out", "FILE", Text, Required),
            Flag::new("--sessions", "N", U32, Optional),
            switch("--compress"),
        ]], about: "synthesize a session trace; --sessions N writes an N-session .lgzc \
             corpus instead" },
        Command { name: "pack", paths: "IN.lgz...", run: cmd_pack, flags: &[&[
            Flag::new("--out", "OUT.lgzc", Text, Required),
            switch("--compress"),
            switch("--salvage"),
            JOBS,
        ]], about: "pack traces into one corpus with a deduplicated corpus-wide symbol table" },
        Command { name: "compact", paths: "IN.lgzc", run: cmd_compact, flags: &[&[
            Flag::new("--out", "OUT.lgzc", Text, Required),
            switch("--compress"),
            JOBS,
        ]], about: "re-pack a corpus, dropping salvage-skipped bytes and re-deduplicating \
             symbols" },
        Command { name: "analyze", paths: "FILE", run: cmd_analyze, flags: &[INPUT, &[
            switch("--check"),
            switch("--histogram"),
            FORMAT,
        ]], about: "overall statistics of a trace; on a .lgzc corpus: corpus-wide stats (or one \
             session via --session K); --format json is corpus-wide only" },
        Command { name: "patterns", paths: "FILE", run: cmd_patterns, flags: &[INPUT, &[
            switch("--perceptible-only"),
            Flag::new("--sort", "", Choice(&["count", "total", "max", "perceptible"]), Or("count")),
        ]], about: "browse mined patterns; on a corpus: the cross-session merged table" },
        Command { name: "lint", paths: "FILE", run: cmd_lint, flags: &[&[JOBS]],
            about: "check a trace (or corpus) for damage; print the salvage report and \
                    index health" },
        Command { name: "check", paths: "[FILE]", run: cmd_check, flags: &[&[
            switch("--list-rules"),
            FORMAT,
            Flag::new("--allow", "CODE", Text, Repeat),
            Flag::new("--deny", "CODE", Text, Repeat),
            Flag::new("--level", "CODE=SEV", Text, Repeat),
            Flag::new("--fix-report", "FILE.json", Text, Optional),
            switch("--no-cache"),
        ]], about: "run the semantic rule checker on one trace, not a corpus (codes LA001..); \
             --list-rules prints the full rule table instead. check never answers from a \
             rollup, so --no-cache is accepted and changes nothing" },
        Command { name: "hazards", paths: "FILE", run: cmd_hazards, flags: &[INPUT, &[
            FORMAT,
            EXPLAIN,
            Flag::new("--min-samples", "N", Count, Optional),
            Flag::new("--starvation-streak", "N", Count, Optional),
        ]], about: "concurrency-hazard analysis over the session lock graph (LA020 lock-order \
             inversion, LA021 held-across-IO, LA022 held-across-pause, LA023 starvation, \
             LA024 self-wait); on a .lgzc corpus also LA025 cross-session inversions" },
        Command { name: "outliers", paths: "FILE", run: cmd_outliers, flags: &[INPUT, &[
            FORMAT,
            Flag::new("--mad-k", "K", Positive, Optional),
            Flag::new("--min-excess-ms", "MS", Millis, Optional),
            Flag::new("--min-count", "N", Count, Optional),
            EXPLAIN,
        ]], about: "flag per-pattern duration outliers and attribute each one's excess (codes \
             OC-LOCK, OC-WAIT, OC-SLEEP, OC-GC, OC-IO, OC-NATIVE, OC-SELF)" },
        Command { name: "sketch", paths: "FILE", run: cmd_sketch, flags: &[INPUT, &[
            Flag::new("--episode", "N", Count, Optional),
            Flag::new("--pattern", "N", Count, Optional),
            switch("--gallery"),
            switch("--ascii"),
            Flag::new("--out", "FILE.svg", Text, Optional),
        ]], about: "render an episode sketch: episode N (default 0), or the first episode of \
             pattern N, whose episodes --gallery renders side by side. --episode N on an \
             unfiltered .lgz decodes only that episode when its extent index adds up to the \
             declared record count (otherwise the whole trace folds, as for --pattern), so \
             damage inside other episodes under a resealed trailer goes unseen" },
        Command { name: "timeline", paths: "FILE", run: cmd_timeline, flags: &[INPUT, &[
            Flag::new("--out", "FILE.svg", Text, Optional),
        ]], about: "render the whole-session timeline" },
        Command { name: "stable", paths: "FILE...", run: cmd_stable, flags: &[INPUT],
            about: "stable slow patterns across several traces; a whole corpus counts as one \
             trace per member" },
        Command { name: "diff", paths: "BASELINE CANDIDATE", run: cmd_diff, flags: &[INPUT],
            about: "pattern-level regression report" },
        Command { name: "experiments", paths: "", run: cmd_experiments, flags: &[&[
            Flag::new("--out-dir", "DIR", Text, Or("target/experiments")),
            Flag::new("--sessions", "N", U32, Or("4")),
            Flag::new("--seed", "S", Count, Or("42")),
            JOBS,
        ]], about: "regenerate the paper's tables and figures" },
        Command { name: "help", paths: "", run: cmd_help, flags: &[],
            about: "print this help" },
    ]
};

/// The notes `help` prints after the commands.
const NOTES: &str = "\
FILE may come anywhere among the options. --session K selects member
session K of a .lgzc corpus FILE (of every corpus FILE, for stable and
diff) and is refused when no FILE is a corpus. A flag a command would
ignore is refused. An unknown flag, a repeated flag (bar --allow,
--deny and --level), a bad or out-of-range value, or a missing or
extra path is a usage error. `<command> --help` prints one command's
entry.

--jobs N shards trace decoding and analysis work across N worker
threads (0 or omitted: all cores; 1: serial). Results are
byte-identical for any N.

--min-lag MS, --perceptible, --since-ms MS and --until-ms MS
filter episodes at ingest; on indexed binary traces the excluded
episodes are never even decoded (skip-decode filtering). MS is at
most 18446744073709, and --since-ms may not exceed --until-ms.

--salvage decodes a damaged .lgz or text trace leniently, dropping
corrupt records and reporting every skip (lint and check always do);
a corpus member's leniency is fixed when it is packed. Exit codes:
0 clean, 1 usage or I/O error, 2 damaged but salvaged, 3
unrecoverable; every command that loads a trace takes its code from
the same damage verdict.

analyze, patterns, outliers, stable, diff and sketch answer from a
persisted rollup section when the trace, the --session K corpus
member, or (corpus-wide) each corpus session carries a valid one —
no episode decoding beyond the episodes sketch draws and outliers
flags, byte-identical output, a `rollup: cache hit` note on stderr.
--no-cache and --check force the cold path, which folds episodes as
they decode, and salvaged sessions always take it; stale or missing
rollups fall back to it automatically.

check FILE exits 0 when clean (notes allowed), 1 on warnings, 2 on
errors, 3 when the trace is unrecoverable. analyze --check runs
the checker first and refuses analysis when it reports errors.";

/// What a flag with a declared default or a required flag always has.
const DECLARED: &str = "the flag table declares a default or requires the flag";

/// The finding `--explain N` names, if the flag is given.
fn explained<'a, T>(args: &Args<'_>, findings: &'a [T]) -> Result<Option<&'a T>, Failure> {
    let Some(index) = args.get::<usize>("--explain") else {
        return Ok(None);
    };
    findings
        .get(index)
        .map(Some)
        .ok_or_else(|| format!("report has {} finding(s), no index {index}", findings.len()).into())
}

fn cmd_help(_: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    writeln!(
        stdout,
        "lagalyzer — latency profile analysis and visualization\n\n\
         usage: lagalyzer <command> [options]\n\n\
         commands:"
    )?;
    for command in COMMANDS {
        write!(stdout, "{}", command.entry("  ", 6))?;
    }
    writeln!(stdout, "\n{NOTES}")?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_apps(_: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
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

fn cmd_simulate(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let app_name = args.text("--app").expect(DECLARED);
    let profile = apps::by_name(app_name)
        .ok_or_else(|| format!("unknown application {app_name:?}; see `lagalyzer apps`"))?;
    let session = args.get("--session").expect(DECLARED);
    let seed = args.get("--seed").expect(DECLARED);
    let out = args.text("--out").expect(DECLARED);
    let sessions = args.get::<u32>("--sessions");
    if args.switch("--compress") && sessions.is_none() {
        return Err("--compress applies to a --sessions N corpus only".into());
    }
    if let Some(n) = sessions {
        // Multi-session corpus generation: N consecutive sessions of the
        // application, packed straight into one .lgzc file.
        if n == 0 {
            return Err("--sessions must be at least 1".into());
        }
        if args.switch("--text") {
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
                compress: args.switch("--compress"),
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
    if args.switch("--text") {
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

fn cmd_pack(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let out = args.text("--out").expect(DECLARED);
    let inputs = &args.paths;
    let salvage = args.switch("--salvage");
    let options = PackOptions {
        compress: args.switch("--compress"),
    };
    let mut opened = Vec::with_capacity(inputs.len());
    for &path in inputs {
        let bytes = read_input(path)?;
        if !bytes.starts_with(binary::MAGIC_PREFIX) {
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
    let (jobs, builder) = (jobs(args), RollupBuilder::default());
    let built: Vec<Option<lagalyzer_trace::Rollup>> = opened
        .iter()
        .map(|t| {
            if t.rollup().is_some() || t.salvage_report().is_some() {
                return None;
            }
            let folded = t.source().fold(jobs, &EpisodeFilter::default(), &builder);
            folded.ok().map(|folded| folded.rollup)
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

fn cmd_compact(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = args.paths[0];
    let out = args.text("--out").expect(DECLARED);
    let jobs = jobs(args);
    let options = PackOptions {
        compress: args.switch("--compress"),
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
    let failed = |e: TraceError| match e {
        TraceError::UnreadablePayload(_) => Failure::of_decode(path, &e),
        e => Failure::from(e.to_string()),
    };
    let compacted =
        corpus::compact_with_rollups(&reader, jobs, options, Some(&build)).map_err(failed)?;
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
fn parse_filter(args: &Args<'_>) -> Result<EpisodeFilter, String> {
    let mut filter = EpisodeFilter::new();
    if let Some(ns) = args.nanos("--min-lag") {
        filter = filter.min_duration(DurationNs::from_nanos(ns));
    }
    if args.switch("--perceptible") {
        filter = filter.min_duration(DurationNs::PERCEPTIBLE_DEFAULT);
    }
    let (since, until) = (args.nanos("--since-ms"), args.nanos("--until-ms"));
    if since.is_some() || until.is_some() {
        let (from, to) = (since.unwrap_or(0), until.unwrap_or(u64::MAX));
        if from > to {
            return Err("--since-ms may not exceed --until-ms".into());
        }
        filter = filter.window(TimeNs::from_nanos(from), TimeNs::from_nanos(to));
    }
    Ok(filter)
}

/// `--jobs N` as a worker count: absent or `0` means every available
/// core. Results are byte-identical for any count.
fn jobs(args: &Args<'_>) -> usize {
    lagalyzer_core::parallel::resolve_jobs(args.get("--jobs"))
}

/// Reads a trace input from disk — the one place any subcommand reads a
/// whole input.
fn read_input(path: &str) -> Result<Vec<u8>, Failure> {
    fs::read(path).map_err(|e| format!("cannot read {path}: {e}").into())
}

/// `true` when the file at `path` starts with the corpus signature; a
/// file that cannot be read is left for its load to report.
fn is_corpus_file(path: &str) -> bool {
    let mut head = [0; 8];
    let read = fs::File::open(path).and_then(|mut file| file.read_exact(&mut head));
    read.is_ok() && corpus::is_corpus(&head)
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
            to_stderr(format_args!(
                "salvage: {label}: recovered {} episode(s), lost {}, {} skip(s)\n",
                self.recovered, self.episodes_lost, self.skips
            ));
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
    /// A `--salvage` binary input reopened through the salvage scan by
    /// its verified fold (see [`Input::run`]); it then stands in
    /// for the open everywhere.
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
    /// Reads and opens the input file at `path`.
    fn load(args: &Args<'_>, path: &str) -> Result<Input, Failure> {
        Input::open(args, path, read_input(path)?, args.get("--session"))
    }

    /// Classifies and opens the bytes read from `path`, applying
    /// `--salvage`; `session` selects a corpus member and is refused on any
    /// other input.
    fn open(
        args: &Args<'_>,
        path: &str,
        bytes: Vec<u8>,
        session: Option<usize>,
    ) -> Result<Input, Failure> {
        let salvage = args.switch("--salvage");
        let failed = |e: TraceError| -> Failure {
            if salvage {
                Failure::unrecoverable(format!("cannot salvage {path}: {e}"))
            } else {
                format!("cannot load {path}: {e}").into()
            }
        };
        let (opened, damage, session) = if corpus::is_corpus(&bytes) {
            if salvage {
                return Err("--salvage needs a .lgz or text trace; a corpus member's \
                            leniency is fixed when it is packed"
                    .into());
            }
            let reader = CorpusReader::open(bytes)
                .map_err(|e| Failure::unrecoverable(format!("cannot load {path}: {e}")))?;
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
            if session.is_some() {
                return Err(format!("--session K needs a .lgzc corpus; {path} is not one").into());
            }
            let (opened, damage) = if bytes.starts_with(binary::MAGIC_PREFIX) {
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
            jobs: jobs(args),
            config: AnalysisConfig {
                perceptible_threshold: DurationNs::from_nanos(
                    args.nanos("--threshold-ms").expect(DECLARED),
                ),
            },
            filter: parse_filter(args)?,
            cache: !args.switch("--no-cache") && !args.switch("--check"),
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

    /// The warm path: `source` answered from its validated rollup, unless
    /// `--no-cache` or `--check` asks for the cold one.
    fn warm<'s>(&self, source: SessionSource<'s>) -> Option<WarmSession<'s>> {
        let warm = || WarmSession::of_source(source, self.config, &self.filter);
        self.cache.then(warm).flatten()
    }

    /// The streamed cold path: `analysis` run over the episodes the filter
    /// admits, each lent with its position (extent position, or index
    /// into a text trace) and never kept, and how many episodes the filter
    /// excluded. A text trace, whose episodes are already decoded, feeds
    /// them in order into one shard. An indexed session folds over
    /// `--jobs` workers (see [`SessionSource::fold`]); a `.lgz` folds
    /// through [`IndexedTrace::fold_verified`], so a `--salvage` input
    /// whose trusted extents fail the fold (damage resealed under a
    /// trailer checksum that still verifies, or records that do not add up
    /// to the declared count) is reopened through the salvage scan and
    /// folded again, as `lint` does; clean inputs never get there, so they
    /// keep the warm path and skip-decode filtering. A whole corpus has to
    /// pick a member with `--session K`.
    fn run<A: Analysis>(&self, analysis: &A) -> Result<(A::Output, u64), Failure> {
        if let Opened::Text(trace) = &self.opened {
            let scope = Scope::of_trace(trace);
            let mut shard = analysis.shard(scope);
            let mut excluded = 0;
            for (position, episode) in trace.episodes().iter().enumerate() {
                if self.filter.admits_episode(episode) {
                    analysis.push(scope, &mut shard, position, episode);
                } else {
                    excluded += 1;
                }
            }
            return Ok((analysis.finish(scope, vec![shard]), excluded));
        }
        let source = self.source().ok_or_else(|| {
            let (path, sessions) = (&self.path, self.corpus_wide().map_or(0, CorpusReader::len));
            format!("{path} is a corpus of {sessions} sessions; select one with --session K")
        })?;
        let failed = |e: TraceError| Failure::of_decode(&self.path, &e);
        let fold = |source: SessionSource<'_>| source.fold(self.jobs, &self.filter, analysis);
        let output = match &self.opened {
            Opened::Binary(indexed) if self.rescanned.get().is_none() => {
                let (output, rescanned) = indexed
                    .fold_verified(|_, source| fold(source))
                    .map_err(failed)?;
                if let Some(scanned) = rescanned {
                    self.rescanned.get_or_init(|| scanned);
                    self.damage().note(&self.path);
                }
                output
            }
            _ => fold(source).map_err(failed)?,
        };
        let source = self.source().expect("a folded input has a source");
        Ok((output, source.excluded_by(&self.filter) as u64))
    }

    /// Re-decodes just the episodes at extent `positions`, touching no
    /// other extent's bytes; a text trace's are copied from its episodes.
    /// `None` unless every one decodes.
    fn decode_subset(&self, positions: &[usize]) -> Option<Vec<Episode>> {
        match &self.opened {
            Opened::Text(trace) => positions
                .iter()
                .map(|&i| trace.episodes().get(i).cloned())
                .collect(),
            _ => self.source()?.decode_subset(self.jobs, positions).ok(),
        }
        .filter(|episodes| episodes.len() == positions.len())
    }

    /// The episode a finding names: re-decoded alone from its extent on an
    /// indexed input, else copied from the text trace.
    fn explain_episode(&self, id: EpisodeId) -> Result<Episode, Failure> {
        let position = match &self.opened {
            Opened::Text(trace) => trace.episodes().iter().position(|e| e.id() == id),
            _ => self
                .source()
                .and_then(|s| s.extents().iter().position(|e| e.id == id)),
        };
        let found = position.and_then(|position| self.decode_subset(&[position])?.pop());
        found.ok_or_else(|| "finding points outside the decoded session".into())
    }

    /// The facts of the one session this input names, as currently opened
    /// (after a salvage rescan, the rescanned session's); `None` for a
    /// whole corpus.
    fn facts(&self) -> Option<SessionFacts<'_>> {
        match &self.opened {
            Opened::Text(trace) => Some(SessionFacts::of_trace(trace, self.config)),
            _ => self
                .source()
                .map(|source| SessionFacts::of_source(&source, self.config)),
        }
    }

    /// The symbol table of the one session this input names; `None` for a
    /// whole corpus.
    fn symbols(&self) -> Option<&SymbolTable> {
        self.facts().map(|facts| facts.symbols)
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
        if let Some(warm) = self.source().and_then(|source| self.warm(source)) {
            if let Some(found) = answer(warm.summaries()) {
                to_stderr(format_args!(
                    "rollup: cache hit ({} episode summaries, {how})\n",
                    warm.rollup().summaries.len()
                ));
                return Ok(found);
            }
        }
        let (folded, excluded) = self.run(&RollupBuilder::default().breakdowns(breakdowns))?;
        let mut facts = self.facts().expect("a folded input is one session");
        (facts.excluded, facts.salvaged) =
            (excluded, self.damage().verdict != DamageVerdict::Clean);
        let rows = RollupRows::Folded(&folded.rows);
        answer(&Summaries::of_rollup(facts, &folded.rollup, rows))
            .ok_or_else(|| format!("cannot analyze {}", self.path).into())
    }

    /// The session's mined pattern set; mining reads no lag breakdowns.
    fn patterns(&self) -> Result<PatternSet, Failure> {
        self.answer("zero decode", false, |summaries| {
            Some(summaries.mine_patterns_with_jobs(self.jobs))
        })
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

/// Mines every input's patterns through [`Input::answer`], one input at a
/// time and in order; the exit code is the worst input's. `--session K`
/// selects member K of every corpus input, and is refused when no input
/// is a corpus. With `members`, a whole corpus counts as one input per
/// member, each mined as [`corpus_patterns`] mines it; otherwise it has
/// to select one.
fn mine_inputs(args: &Args<'_>, members: bool) -> Result<(Vec<PatternSet>, ExitCode), Failure> {
    let session = args.get::<usize>("--session");
    if session.is_some() && !args.paths.iter().any(|path| is_corpus_file(path)) {
        return Err("--session K needs a .lgzc corpus among the inputs".into());
    }
    let (mut sets, mut code) = (Vec::with_capacity(args.paths.len()), 0);
    for &path in &args.paths {
        let bytes = read_input(path)?;
        let session = session.filter(|_| corpus::is_corpus(&bytes));
        let input = Input::open(args, path, bytes, session)?;
        match input.corpus_wide().filter(|_| members) {
            Some(reader) => sets.extend(corpus_patterns(&input, reader)?.1),
            None => sets.push(input.patterns()?),
        }
        code = code.max(input.damage().verdict.exit_code());
    }
    Ok((sets, ExitCode::from(code)))
}

/// `analyze --check`: runs the semantic checker over a copy of the
/// input's bytes before they are opened. Errors refuse analysis (exit 2);
/// warnings and notes are reported and analysis goes on.
fn run_check(path: &str, bytes: &[u8]) -> Result<CheckOutcome, Failure> {
    let report = check_bytes(bytes.to_vec(), &mut RuleSet::standard())
        .map_err(|e| Failure::unrecoverable(format!("cannot check {path}: {e}")))?;
    if report.errors() > 0 {
        to_stderr(format_args!("{}", report.render_text(path)));
        return Err(Failure {
            msg: format!(
                "check found {} error(s) in {path}; refusing analysis",
                report.errors()
            ),
            code: EXIT_SALVAGED,
        });
    }
    if !report.is_clean() {
        to_stderr(format_args!(
            "check: {path}: {} warning(s), {} note(s); analyzing anyway\n",
            report.warnings(),
            report.notes()
        ));
    }
    Ok(CheckOutcome {
        errors: report.errors() as u64,
        warnings: report.warnings() as u64,
        notes: report.notes() as u64,
    })
}

fn cmd_analyze(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = args.paths[0];
    let bytes = read_input(path)?;
    let check = if args.switch("--check") {
        if corpus::is_corpus(&bytes) {
            return Err("--check is not supported on corpus files".into());
        }
        Some(run_check(path, &bytes)?)
    } else {
        None
    };
    let input = Input::open(args, path, bytes, args.get("--session"))?;
    if let Some(reader) = input.corpus_wide() {
        if args.switch("--histogram") {
            return Err("--histogram needs one session; select it with --session K".into());
        }
        return analyze_corpus(args, &input, reader, stdout);
    }
    if args.text("--format") == Some("json") {
        return Err("--format json is only supported for corpus-wide analyze".into());
    }
    let jobs = input.jobs;
    let histogram = args.switch("--histogram");
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

/// Per-member `(episodes, perceptible)` counts and pattern sets, and the
/// filtered-out total of a whole corpus.
type CorpusPatterns = (Vec<(usize, usize)>, Vec<PatternSet>, u64);

/// A whole corpus's per-member `(episodes, perceptible)` counts and
/// pattern sets, and its filtered-out total, computed over the members'
/// summaries one member at a time: each member's read from its own valid
/// rollup when it carries one, else folded from the member as it decodes
/// (mining reads no lag breakdowns). A member's few thousand summaries
/// are mined on the calling thread: sharding them costs more than it
/// saves.
fn corpus_patterns(input: &Input, reader: &CorpusReader) -> Result<CorpusPatterns, Failure> {
    let (jobs, threshold) = (input.jobs, input.config.perceptible_threshold);
    let builder = RollupBuilder::default().breakdowns(false);
    let mine = |s: &Summaries<'_>| {
        let perceptible = s.episodes().iter().filter(|e| e.duration >= threshold);
        let counts = (s.episodes().len(), perceptible.count());
        (counts, s.mine_patterns_with_jobs(1))
    };
    let (mut members, mut warm) = (Vec::with_capacity(reader.len()), 0);
    for view in reader.sessions() {
        let source = view.source();
        if let Some(session) = input.warm(source) {
            warm += 1;
            members.push(mine(session.summaries()));
            continue;
        }
        let folded = source
            .fold(jobs, &input.filter, &builder)
            .map_err(|e| Failure::of_decode(&input.path, &e))?;
        let facts = SessionFacts::of_source(&source, input.config);
        let rows = RollupRows::Folded(&folded.rows);
        members.push(mine(&Summaries::of_rollup(facts, &folded.rollup, rows)));
    }
    if warm > 0 {
        let how = if warm == reader.len() {
            "zero decode"
        } else {
            "the rest folded"
        };
        to_stderr(format_args!(
            "rollup: cache hit ({warm} of {} sessions, {how})\n",
            reader.len()
        ));
    }
    let (counts, sets) = members.into_iter().unzip();
    let excluded = reader
        .sessions()
        .map(|view| view.source().excluded_by(&input.filter) as u64)
        .sum();
    Ok((counts, sets, excluded))
}

/// Corpus-wide `analyze`: one row per member session plus the merged
/// cross-session patterns (byte-identical to mining the N files
/// separately).
fn analyze_corpus(
    args: &Args<'_>,
    input: &Input,
    reader: &CorpusReader,
    stdout: &mut dyn Write,
) -> Result<ExitCode, Failure> {
    let (counts, sets, excluded) = corpus_patterns(input, reader)?;
    let multi = MultiPatternSet::merge(&sets);
    let episodes: usize = counts.iter().map(|c| c.0).sum();
    let perceptible: usize = counts.iter().map(|c| c.1).sum();
    let damaged = reader.sessions().filter(SessionView::is_damaged).count();
    if args.text("--format") == Some("json") {
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

fn cmd_patterns(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let input = Input::load(args, args.paths[0])?;
    let perceptible_only = args.switch("--perceptible-only");
    if let Some(reader) = input.corpus_wide() {
        // The merged cross-session table, always sorted by count.
        if let Some(sort) = args.text("--sort").filter(|&sort| sort != "count") {
            return Err(format!("--sort {sort} needs one session (--session K)").into());
        }
        let multi = MultiPatternSet::merge(&corpus_patterns(&input, reader)?.1);
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
    let sort = match args.text("--sort") {
        Some("total") => SortBy::TotalLag,
        Some("max") => SortBy::MaxLag,
        Some("perceptible") => SortBy::PerceptibleCount,
        _ => SortBy::Count,
    };
    let patterns = input.patterns()?;
    // The table needs only the patterns: a set mined from a salvaged
    // session carries the provenance note itself.
    let mut browser = PatternBrowser::of_patterns(&patterns);
    browser.perceptible_only(perceptible_only).sort_by(sort);
    write!(stdout, "{}", browser.to_table())?;
    Ok(input.exit_code())
}

fn cmd_lint(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let path = args.paths[0];
    let bytes = read_input(path)?;
    if corpus::is_corpus(&bytes) {
        // Corpus: one index-health line per member session, then the
        // aggregate verdict. Exit codes follow the same 0/2/3 contract
        // as single traces (1 is reserved for usage/I-O errors); a payload
        // section that does not decompress is unrecoverable, like a corpus
        // that does not open.
        let opened =
            CorpusReader::open(bytes).and_then(|reader| reader.verify_payloads().map(|()| reader));
        return match opened {
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
    // salvage open takes over the buffer.
    let index = lagalyzer_trace::index::probe_health(&bytes);
    let rollup = lagalyzer_trace::probe_rollup(&bytes);
    // The report comes from the salvage open `check` folds, through the
    // same verified fold (here with no consumer), and the exit code from
    // the shared damage classification, so `lint` and `check` can never
    // disagree on what counts as salvaged.
    let report = if bytes.starts_with(binary::MAGIC_PREFIX) {
        let (jobs, all) = (jobs(args), EpisodeFilter::default());
        IndexedTrace::open_salvage(bytes).and_then(|opened| {
            let (_, rescanned) = opened.fold_verified(|_, source| source.fold(jobs, &all, &()))?;
            let indexed = rescanned.as_ref().unwrap_or(&opened);
            Ok(indexed.salvage_report().cloned().unwrap_or_default())
        })
    } else {
        lagalyzer_trace::read_bytes_salvage(&bytes).map(|salvaged| salvaged.report)
    };
    match report {
        Err(e) => {
            writeln!(stdout, "unrecoverable: {e}")?;
            Ok(ExitCode::from(DamageVerdict::Unrecoverable.exit_code()))
        }
        Ok(report) => {
            write!(stdout, "{}", report.render())?;
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
                DamageVerdict::of_report(&report).exit_code(),
            ))
        }
    }
}

/// Builds the rule set for `check`, applying every `--allow CODE`,
/// `--deny CODE` and `--level CODE=SEVERITY` override in turn. Rules may
/// be named by code (`LA007`) or by name (`sub-floor-episode`).
fn check_ruleset(args: &Args<'_>) -> Result<RuleSet, Failure> {
    let mut rules = RuleSet::standard();
    for code in args.texts("--allow") {
        rules.allow(code).map_err(|e| e.to_string())?;
    }
    for code in args.texts("--deny") {
        rules.deny(code).map_err(|e| e.to_string())?;
    }
    for spec in args.texts("--level") {
        let (code, sev) = spec
            .split_once('=')
            .ok_or_else(|| format!("--level expects CODE=SEVERITY, got {spec:?}"))?;
        let severity = Severity::parse(sev)
            .ok_or_else(|| format!("unknown severity {sev:?}; expected note, warning or error"))?;
        rules.level(code, severity).map_err(|e| e.to_string())?;
    }
    Ok(rules)
}

fn cmd_check(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    if args.switch("--list-rules") {
        if !args.paths.is_empty() {
            return Err("--list-rules prints the rule table and checks no FILE".into());
        }
        let options = ["--format", "--allow", "--deny", "--level", "--fix-report"];
        if let Some(flag) = options.into_iter().find(|f| args.texts(f).next().is_some()) {
            return Err(
                format!("--list-rules prints the text rule table; {flag} checks a FILE").into(),
            );
        }
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
    let path = *args.paths.first().ok_or("check requires FILE")?;
    let mut rules = check_ruleset(args)?;
    let bytes = read_input(path)?;
    if corpus::is_corpus(&bytes) {
        // A usage error, not an unrecoverable trace: the rules check
        // single traces, so corpus members are checked as `.lgz` files.
        return Err("check is not supported on corpus files".into());
    }
    let report = check_bytes(bytes, &mut rules)
        .map_err(|e| Failure::unrecoverable(format!("cannot check {path}: {e}")))?;
    if args.text("--format") == Some("json") {
        writeln!(stdout, "{}", report.render_json(path))?;
    } else {
        write!(stdout, "{}", report.render_text(path))?;
    }
    if let Some(out) = args.text("--fix-report") {
        let mut json = report.render_json(path);
        json.push('\n');
        fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// Builds the hazard detection config from `--min-samples` and
/// `--starvation-streak`.
fn parse_hazard_config(args: &Args<'_>) -> HazardConfig {
    let mut config = HazardConfig::default();
    if let Some(n) = args.get::<u64>("--min-samples") {
        config.min_wait_samples = n.max(1);
        config.min_edge_samples = n.max(1);
    }
    if let Some(n) = args.get::<u64>("--starvation-streak") {
        config.starvation_streak = n.max(2);
    }
    config
}

fn cmd_hazards(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let config = parse_hazard_config(args);
    let input = Input::load(args, args.paths[0])?;
    // Each session's lock graph is folded as its episodes decode.
    let report = match input.corpus_wide() {
        Some(reader) => {
            // Corpus: every member's graph from one fold of the whole
            // corpus, each re-interned through the corpus-wide symbol
            // table, then the cross-session merge (LA025).
            if args.switch("--explain") {
                return Err("--explain works on single traces, not corpora".into());
            }
            let graphs = reader
                .fold(input.jobs, &input.filter, &LockGraphs)
                .map_err(|e| Failure::of_decode(&input.path, &e))?;
            let members = graphs
                .into_iter()
                .zip(reader.sessions())
                .map(|((graph, episodes), view)| (graph, episodes, view.source().symbols()));
            let mut symbols = reader.global_symbols().clone();
            HazardReport::of_corpus(members, &mut symbols, &config)
        }
        None => {
            let ((graph, episodes), _) = input.run(&LockGraphs)?;
            // Only a `.lgz` trace's extents carry byte spans in the file.
            let symbols = input.symbols().expect("a single session has symbols");
            HazardReport::of_graph(&graph, episodes, symbols, input.file_extents(), &config)
        }
    };
    if args.text("--format") == Some("json") {
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
fn parse_outlier_config(args: &Args<'_>) -> OutlierConfig {
    let mut config = OutlierConfig::default();
    if let Some(k) = args.get::<f64>("--mad-k") {
        config.mad_k = k;
    }
    if let Some(ns) = args.nanos("--min-excess-ms") {
        config.min_excess = DurationNs::from_nanos(ns);
    }
    if let Some(n) = args.get::<usize>("--min-count") {
        config.min_count = n.max(2);
    }
    config
}

fn cmd_outliers(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let config = parse_outlier_config(args);
    let input = Input::load(args, args.paths[0])?;
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
    if args.text("--format") == Some("json") {
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

fn cmd_sketch(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let rank = args.get::<usize>("--pattern");
    let gallery = args.switch("--gallery");
    if gallery && rank.is_none() {
        return Err("--gallery needs --pattern N".into());
    }
    if rank.is_some() && args.switch("--episode") {
        return Err("--episode and --pattern both choose the episode; give one".into());
    }
    if gallery && args.switch("--ascii") {
        return Err("--ascii draws one episode; --gallery is always SVG".into());
    }
    let index = args.get("--episode").unwrap_or(0);
    let input = Input::load(args, args.paths[0])?;
    // Random access: a plain `--episode N` on an unfiltered, strictly
    // opened indexed input decodes just that episode, not the whole file,
    // when its extent index accounts for the declared record count (every
    // file the writer produces does; a miscounted one takes the verified
    // fold below, as every other command does). Otherwise the episodes
    // are chosen over the session's summaries and only they are decoded:
    // the N-th episode the filter admits, or the first episode of the N-th
    // pattern (what the paper's pattern browser shows on selection), or
    // all of that pattern's for --gallery.
    let random_access = rank.is_none() && input.filter.is_unrestricted();
    let random = |s: &SessionSource<'_>| random_access && !s.is_lenient() && s.extents_add_up();
    let (episodes, index) = match input.source().filter(random) {
        Some(source) if index >= source.len() => {
            return Err(format!("trace has {} episodes, no index {index}", source.len()).into());
        }
        Some(source) => {
            let episode = source
                .decode_episode(index)
                .map_err(|e| Failure::of_decode(&input.path, &e))?;
            (vec![episode], index)
        }
        None => input.answer("decoded only the sketched episodes", false, |s| {
            let episodes = s.episodes().len();
            let chosen = match rank {
                None if index < episodes => Ok(vec![index]),
                None => Err(format!("trace has {episodes} episodes, no index {index}")),
                Some(rank) => {
                    let patterns = s.mine_patterns_with_jobs(input.jobs);
                    let all = patterns.patterns().get(rank).map(Pattern::episode_indices);
                    let chosen = all.map(|all| all[..if gallery { all.len() } else { 1 }].to_vec());
                    let count = patterns.len();
                    chosen.ok_or_else(|| format!("trace has {count} patterns, no rank {rank}"))
                }
            };
            let indices = match chosen {
                Ok(indices) => indices,
                Err(e) => return Some(Err(e)),
            };
            let positions: Vec<usize> = indices.iter().map(|&i| s.position(i)).collect();
            Some(Ok((input.decode_subset(&positions)?, indices[0])))
        })??,
    };
    let symbols = input.symbols().expect("a sketched input is one session");
    if gallery {
        // All of the pattern's episodes as mini-sketches on a common scale
        // (paper §II-E browsing flow).
        let episodes: Vec<&Episode> = episodes.iter().collect();
        let svg = render_pattern_gallery(&episodes, symbols, &SketchOptions::default());
        let what = format!("gallery of {} episodes", episodes.len());
        write_svg(args, &svg, &what, stdout)?;
    } else if args.switch("--ascii") {
        write!(stdout, "{}", ascii_sketch(&episodes[0], symbols, 100))?;
    } else {
        let svg = render_sketch(&episodes[0], symbols, &SketchOptions::default());
        write_svg(args, &svg, &format!("sketch of episode {index}"), stdout)?;
    }
    Ok(input.exit_code())
}

/// Writes `svg` to `--out FILE` and says `wrote {what} to FILE`, or
/// prints it.
fn write_svg(
    args: &Args<'_>,
    svg: &str,
    what: &str,
    stdout: &mut dyn Write,
) -> Result<(), Failure> {
    match args.text("--out") {
        Some(out) => {
            fs::write(out, svg).map_err(|e| format!("cannot write {out}: {e}"))?;
            writeln!(stdout, "wrote {what} to {out}")?;
        }
        None => writeln!(stdout, "{svg}")?,
    }
    Ok(())
}

fn cmd_timeline(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let input = Input::load(args, args.paths[0])?;
    // One row per admitted episode, folded as the episodes decode.
    let (rows, _) = input.run(&TimelineRows)?;
    let timeline = Timeline {
        facts: input.facts().expect("a folded input is one session"),
        rows,
    };
    let svg = render_timeline(timeline, &TimelineOptions::default());
    write_svg(args, &svg, "timeline", stdout)?;
    Ok(input.exit_code())
}

fn cmd_stable(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let (sets, code) = mine_inputs(args, true)?;
    let multi = MultiPatternSet::merge(&sets);
    writeln!(
        stdout,
        "{} traces, {} merged patterns ({} recurring in every trace)",
        sets.len(),
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

fn cmd_diff(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let (sets, code) = mine_inputs(args, false)?;
    let [baseline, candidate] = sets.as_slice() else {
        unreachable!("diff takes two paths");
    };
    let diff = lagalyzer_core::SessionDiff::from_patterns(baseline, candidate);
    const TOLERANCE: f64 = 0.20;
    writeln!(stdout, "{}", diff.summary(TOLERANCE))?;
    let trim = |sig: &lagalyzer_core::ShapeSignature| -> String {
        sig.as_str().chars().take(64).collect()
    };
    let regressions = (
        "regressions (mean lag, perceptible count)",
        diff.regressions(TOLERANCE),
    );
    for (title, deltas) in [regressions, ("improvements", diff.improvements(TOLERANCE))] {
        if !deltas.is_empty() {
            writeln!(stdout, "\n{title}:")?;
        }
        for d in deltas.iter().take(10) {
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
    for (title, patterns) in [("new", &diff.appeared), ("disappeared", &diff.disappeared)] {
        if !patterns.is_empty() {
            writeln!(stdout, "\n{title} patterns (episodes, perceptible):")?;
        }
        for (sig, eps, perc) in patterns.iter().take(10) {
            writeln!(stdout, "  {eps:>5} {perc:>4}  {}", trim(sig))?;
        }
    }
    Ok(code)
}

fn cmd_experiments(args: &Args<'_>, stdout: &mut dyn Write) -> Result<ExitCode, Failure> {
    let out_dir = PathBuf::from(args.text("--out-dir").expect(DECLARED));
    let sessions = args.get("--sessions").expect(DECLARED);
    if sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    let seed = args.get("--seed").expect(DECLARED);
    let jobs = jobs(args);
    fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;

    to_stderr(format_args!(
        "simulating {} apps x {sessions} sessions on {jobs} worker(s) ...\n",
        apps::standard_suite().len()
    ));
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
