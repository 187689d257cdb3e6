//! The in-process replica: each request the benchmark sends the CLI,
//! re-issued through the same public library calls in the same order as
//! the CLI's `main.rs` makes them at this commit, redundant reads and
//! opens included, with a span around every call into a layer.
//!
//! Only the request shapes the workloads send are replicated (no filters,
//! no `--salvage`, binary `.lgz` inputs); anything else is an error, not
//! a guess. `study` has no CLI command; its replica *is* the request.

use std::fmt::Write as _;
use std::fs;
use std::io::Read as _;
use std::path::Path;

use lagalyzer_check::{CheckSubject, HazardConfig, HazardReport, RuleSet};
use lagalyzer_core::prelude::*;
use lagalyzer_model::{DurationNs, OriginClassifier, SessionMeta, SessionTrace};
use lagalyzer_report::study::aggregate_sessions_with_jobs;
use lagalyzer_report::{figures, html, table3, AppResult, Study};
use lagalyzer_sim::apps;
use lagalyzer_trace::corpus::{self, CorpusReader, PackOptions};
use lagalyzer_trace::{EpisodeFilter, IndexedTrace, Rollup, TraceError};
use lagalyzer_viz::ascii::ascii_sketch;

use crate::spans::Tracer;

/// The study workload's input, one compressed corpus of the whole suite.
pub const SUITE_CORPUS: &str = "suite.lgzc";
/// Where a study pass writes Table III, the figures and the report.
const STUDY_OUT: &str = "out";

const BINARY_MAGIC: &[u8] = b"LGLZTRC";

type Result<T> = std::result::Result<T, String>;

/// Runs one request in `dir` and returns what the CLI prints on stdout.
pub fn run(t: &Tracer, dir: &Path, args: &[String]) -> Result<String> {
    let _request = t.request(&args.join(" "));
    let jobs = lagalyzer_core::parallel::resolve_jobs(Some(
        value(args, "--jobs")
            .map_or(Ok(0), str::parse)
            .map_err(|_| "bad --jobs")?,
    ));
    let Some((command, rest)) = args.split_first() else {
        return Err("empty request".into());
    };
    if command == "study" {
        return study(t, dir, jobs).map(|out| out.digest_line());
    }
    let file = rest.first().ok_or("request names no file")?;
    let path = dir.join(file);
    match command.as_str() {
        "analyze" => analyze(t, &path, jobs),
        "patterns" => patterns(t, &path, jobs),
        "outliers" => outliers(t, &path, jobs),
        "hazards" => hazards(t, &path, file, jobs),
        "check" => check(t, &path, file),
        "sketch" => {
            let index = value(args, "--episode")
                .ok_or("sketch needs --episode")?
                .parse()
                .map_err(|_| "bad --episode")?;
            sketch(t, &path, index)
        }
        "pack" => {
            let out = value(args, "--out").ok_or("pack needs --out")?;
            let inputs: Vec<&String> = rest.iter().take_while(|a| !a.starts_with("--")).collect();
            pack(t, dir, &inputs, out, jobs)
        }
        "compact" => compact(
            t,
            &path,
            dir,
            value(args, "--out").ok_or("compact needs --out")?,
            jobs,
        ),
        other => Err(format!("the replica has no {other:?} command")),
    }
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn read(t: &Tracer, path: &Path) -> Result<Vec<u8>> {
    let _span = t.span("io.read");
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    t.add("io.read.bytes", bytes.len() as u64);
    Ok(bytes)
}

/// The CLI's `sniff_corpus`: an 8-byte read before dispatch.
fn sniff_corpus(t: &Tracer, path: &Path) -> bool {
    let _span = t.span("io.read");
    t.add("io.read.bytes", 8);
    let mut magic = [0u8; 8];
    fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok_and(|()| corpus::is_corpus(&magic))
}

fn open(t: &Tracer, bytes: Vec<u8>) -> Result<IndexedTrace> {
    let _span = t.span("trace.open");
    t.add("trace.open.calls", 1);
    IndexedTrace::open(bytes).map_err(err)
}

fn decode<T>(
    t: &Tracer,
    episodes: usize,
    f: impl FnOnce() -> std::result::Result<T, TraceError>,
) -> Result<T> {
    let _span = t.span("trace.decode");
    t.add("trace.decode.episodes", episodes as u64);
    f().map_err(err)
}

/// Frees decoded data where the CLI drops it, so the cost of tearing
/// down episode trees is attributed instead of hiding in request time.
fn free<T>(t: &Tracer, value: T) {
    t.time("model.free", move || drop(value));
}

/// Cold pattern mining, counted so redundant mining shows.
fn mine(t: &Tracer, session: &AnalysisSession, jobs: usize) -> PatternSet {
    let _span = t.span("core.patterns");
    t.add("core.patterns.calls", 1);
    session.mine_patterns_with_jobs(jobs)
}

fn default_config() -> AnalysisConfig {
    AnalysisConfig {
        perceptible_threshold: DurationNs::from_millis(100),
    }
}

/// `session_from` for an unfiltered, non-salvage binary trace.
fn session_from(t: &Tracer, path: &Path, jobs: usize) -> Result<AnalysisSession> {
    let filter = EpisodeFilter::new();
    let bytes = read(t, path)?;
    if corpus::is_corpus(&bytes) || !bytes.starts_with(BINARY_MAGIC) {
        return Err("the replica reads binary .lgz traces only".into());
    }
    let indexed = open(t, bytes)?;
    let admitted = indexed
        .extents()
        .iter()
        .filter(|e| filter.admits_extent(e))
        .count();
    let excluded = (indexed.len() - admitted) as u64;
    let trace = decode(t, admitted, || indexed.par_decode_filtered(jobs, &filter))?;
    Ok(AnalysisSession::with_exclusions(
        trace,
        default_config(),
        Provenance::Clean,
        excluded,
    ))
}

/// `warm_trace`: a second read and open of the same file, kept only when
/// it carries a validated rollup.
fn warm_trace(t: &Tracer, path: &Path) -> Option<IndexedTrace> {
    t.add("core.warm.attempts", 1);
    let bytes = read(t, path).ok()?;
    if !bytes.starts_with(BINARY_MAGIC) {
        return None;
    }
    let trace = open(t, bytes).ok()?;
    trace.rollup()?;
    Some(trace)
}

fn warm_session<'a>(t: &Tracer, indexed: &'a IndexedTrace) -> Option<WarmSession<'a>> {
    t.time("core.warm", || {
        WarmSession::of_indexed(indexed, default_config(), &EpisodeFilter::new())
    })
}

/// The subset decode the warm outlier pass asks for.
fn subset_decoder<'a>(
    t: &'a Tracer,
    indexed: &'a IndexedTrace,
    jobs: usize,
) -> impl Fn(&[usize]) -> Option<Vec<lagalyzer_model::Episode>> + 'a {
    move |positions: &[usize]| {
        decode(t, positions.len(), || {
            indexed.par_decode_subset(jobs, positions)
        })
        .ok()
    }
}

fn print_stats(out: &mut String, meta: &SessionMeta, stats: &SessionStats, excluded: u64) {
    let _ = writeln!(out, "application       {}", meta.application);
    let _ = writeln!(out, "session           {}", meta.session);
    let _ = writeln!(
        out,
        "E2E               {:.0} s",
        stats.end_to_end.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "in-episode        {:.0} %",
        stats.in_episode_fraction * 100.0
    );
    let _ = writeln!(out, "episodes < 3ms    {}", stats.short_count);
    let _ = writeln!(out, "episodes >= 3ms   {}", stats.traced_count);
    let _ = writeln!(out, "episodes >= 100ms {}", stats.perceptible_count);
    if excluded > 0 {
        let _ = writeln!(out, "filtered out      {excluded}");
    }
    let _ = writeln!(out, "long per minute   {:.0}", stats.long_per_minute);
    let _ = writeln!(out, "distinct patterns {}", stats.distinct_patterns);
    let _ = writeln!(out, "episodes in pats  {}", stats.episodes_in_patterns);
    let _ = writeln!(
        out,
        "singleton pats    {:.0} %",
        stats.singleton_fraction * 100.0
    );
    let _ = writeln!(out, "mean tree size    {:.1}", stats.mean_tree_size);
    let _ = writeln!(out, "mean tree depth   {:.1}", stats.mean_tree_depth);
}

fn analyze(t: &Tracer, path: &Path, jobs: usize) -> Result<String> {
    if sniff_corpus(t, path) {
        return Err("the replica does not analyze corpora".into());
    }
    let mut out = String::new();
    if let Some(indexed) = warm_trace(t, path) {
        if let Some(warm) = warm_session(t, &indexed) {
            let patterns = t.time("core.warm", || warm.mine_patterns_with_jobs(jobs));
            let stats = t.time("core.warm", || warm.session_stats_from(&patterns, jobs));
            let decode = subset_decoder(t, &indexed, jobs);
            let outliers = t.time("core.warm", || {
                warm.outliers(&patterns, &OutlierConfig::default(), &decode)
            });
            if let Some(outliers) = outliers {
                t.add("core.warm.hits", 1);
                print_stats(&mut out, warm.meta(), &stats, warm.excluded());
                let _ = writeln!(out, "outliers          {}", outliers.summary());
                return Ok(out);
            }
        }
    }
    let session = session_from(t, path, jobs)?;
    let stats = {
        let _span = t.span("core.stats");
        // `compute_with_jobs` mines the patterns itself.
        t.add("core.patterns.calls", 1);
        SessionStats::compute_with_jobs(&session, jobs)
    };
    print_stats(
        &mut out,
        session.trace().meta(),
        &stats,
        session.excluded_episodes(),
    );
    let patterns = mine(t, &session, jobs);
    let outliers = t.time("core.outliers", || {
        OutlierReport::analyze_with_jobs(&session, &patterns, &OutlierConfig::default(), jobs)
    });
    let _ = writeln!(out, "outliers          {}", outliers.summary());
    free(t, (patterns, session));
    Ok(out)
}

fn patterns(t: &Tracer, path: &Path, jobs: usize) -> Result<String> {
    if sniff_corpus(t, path) {
        return Err("the replica does not mine corpora".into());
    }
    if let Some(indexed) = warm_trace(t, path) {
        if let Some(warm) = warm_session(t, &indexed) {
            let patterns = t.time("core.warm", || warm.mine_patterns_with_jobs(jobs));
            t.add("core.warm.hits", 1);
            return Ok(t.time("core.browser", || {
                PatternBrowser::of_patterns(&patterns).to_table()
            }));
        }
    }
    let session = session_from(t, path, jobs)?;
    let patterns = mine(t, &session, jobs);
    let table = t.time("core.browser", || {
        PatternBrowser::new(&session, &patterns).to_table()
    });
    free(t, (patterns, session));
    Ok(table)
}

fn span_of(
    indexed: &IndexedTrace,
) -> impl Fn(lagalyzer_model::EpisodeId) -> Option<(u64, u64)> + '_ {
    |id| {
        indexed
            .extents()
            .iter()
            .find(|e| e.id == id)
            .map(|e| (e.offset, e.offset + e.len))
    }
}

fn outliers(t: &Tracer, path: &Path, jobs: usize) -> Result<String> {
    let config = OutlierConfig::default();
    if let Some(indexed) = warm_trace(t, path) {
        if let Some(warm) = warm_session(t, &indexed) {
            let patterns = t.time("core.warm", || warm.mine_patterns_with_jobs(jobs));
            let decode = subset_decoder(t, &indexed, jobs);
            if let Some(mut report) =
                t.time("core.warm", || warm.outliers(&patterns, &config, &decode))
            {
                t.add("core.warm.hits", 1);
                return Ok(t.time("core.outliers", || {
                    report.attach_spans(span_of(&indexed));
                    report.render_text(warm.symbols())
                }));
            }
        }
    }
    let session = session_from(t, path, jobs)?;
    let patterns = mine(t, &session, jobs);
    let mut report = t.time("core.outliers", || {
        OutlierReport::analyze_with_jobs(&session, &patterns, &config, jobs)
    });
    // The CLI reads and opens the file once more for the byte spans.
    let indexed = match read(t, path) {
        Ok(bytes) if bytes.starts_with(BINARY_MAGIC) => open(t, bytes).ok(),
        _ => None,
    };
    let text = t.time("core.outliers", || {
        if let Some(indexed) = &indexed {
            report.attach_spans(span_of(indexed));
        }
        report.render_text(session.trace().symbols())
    });
    free(t, (patterns, session));
    Ok(text)
}

fn hazards(t: &Tracer, path: &Path, name: &str, jobs: usize) -> Result<String> {
    let bytes = read(t, path)?;
    if corpus::is_corpus(&bytes) || !bytes.starts_with(BINARY_MAGIC) {
        return Err("the replica checks binary .lgz traces only".into());
    }
    let indexed = {
        let _span = t.span("trace.open");
        t.add("trace.open.calls", 1);
        IndexedTrace::open(bytes.clone()).map_err(err)?
    };
    let trace = decode(t, indexed.len(), || indexed.par_decode(jobs))?;
    let text = t.time("check.hazards", || {
        HazardReport::analyze(
            &trace,
            Some(indexed.extents()),
            jobs,
            &HazardConfig::default(),
        )
        .render_text(name)
    });
    free(t, trace);
    Ok(text)
}

/// `check` and the `check_bytes` it calls, unrolled.
fn check(t: &Tracer, path: &Path, name: &str) -> Result<String> {
    let mut rules = t.time("check.rules", RuleSet::standard);
    let bytes = read(t, path)?;
    if !bytes.starts_with(BINARY_MAGIC) {
        return Err("the replica checks binary .lgz traces only".into());
    }
    let indexed = {
        let _span = t.span("trace.open");
        t.add("trace.open.calls", 1);
        IndexedTrace::open_salvage(bytes.to_vec()).map_err(err)?
    };
    let trace = decode(t, indexed.len(), || indexed.par_decode(1))?;
    let rollup = t.time("trace.probe_rollup", || {
        lagalyzer_trace::probe_rollup(&bytes)
    });
    let text = t.time("check.rules", || {
        let subject = CheckSubject {
            trace: &trace,
            extents: Some(indexed.extents()),
            health: Some(indexed.health()),
            salvage: indexed.salvage_report(),
            file_len: Some(bytes.len() as u64),
            rollup: rollup.as_ref(),
        };
        rules.run(&subject).render_text(name)
    });
    free(t, trace);
    Ok(text)
}

fn sketch(t: &Tracer, path: &Path, index: usize) -> Result<String> {
    let bytes = read(t, path)?;
    if !bytes.starts_with(BINARY_MAGIC) {
        return Err("the replica sketches binary .lgz traces only".into());
    }
    let indexed = open(t, bytes)?;
    if index >= indexed.len() {
        return Err(format!(
            "trace has {} episodes, no index {index}",
            indexed.len()
        ));
    }
    let episode = decode(t, 1, || indexed.decode_episode(index))?;
    Ok(t.time("viz.sketch", || {
        ascii_sketch(&episode, indexed.symbols(), 100)
    }))
}

fn pack(t: &Tracer, dir: &Path, inputs: &[&String], out: &str, jobs: usize) -> Result<String> {
    let mut opened = Vec::with_capacity(inputs.len());
    for name in inputs {
        let bytes = read(t, &dir.join(name))?;
        if !bytes.starts_with(BINARY_MAGIC) {
            return Err(format!("{name} is not a binary .lgz trace"));
        }
        opened.push(open(t, bytes)?);
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
    let built: Vec<Option<Rollup>> = opened
        .iter()
        .map(|trace| {
            if trace.rollup().is_some() || trace.salvage_report().is_some() {
                return None;
            }
            let decoded = decode(t, trace.len(), || trace.par_decode(jobs)).ok()?;
            let rollup = t.time("core.rollup", || lagalyzer_core::rollup::build(&decoded));
            free(t, decoded);
            Some(rollup)
        })
        .collect();
    let packed = t.time("trace.pack", || {
        corpus::pack_with_rollups(&opened, built, PackOptions { compress: true })
    });
    let packed = packed.map_err(err)?;
    t.time("io.write", || fs::write(dir.join(out), &packed))
        .map_err(err)?;
    Ok(format!(
        "packed {} session(s), {episodes} episode(s) into {out} ({} bytes): \
         {per_file_symbols} per-file symbols deduplicated to {distinct_symbols}\n",
        opened.len(),
        packed.len(),
    ))
}

fn compact(t: &Tracer, path: &Path, dir: &Path, out: &str, jobs: usize) -> Result<String> {
    let bytes = read(t, path)?;
    if !corpus::is_corpus(&bytes) {
        return Err("compact needs a .lgzc corpus".into());
    }
    let before = bytes.len();
    let reader = t
        .time("trace.corpus_open", || CorpusReader::open(bytes))
        .map_err(err)?;
    let build =
        |trace: &SessionTrace| t.time("core.rollup", || lagalyzer_core::rollup::build(trace));
    let compacted = t.time("trace.compact", || {
        corpus::compact_with_rollups(&reader, jobs, PackOptions { compress: true }, Some(&build))
    });
    let compacted = compacted.map_err(err)?;
    let after = compacted.len();
    t.time("io.write", || fs::write(dir.join(out), compacted))
        .map_err(err)?;
    Ok(format!(
        "compacted {} session(s): {before} -> {after} bytes in {out}\n",
        reader.len()
    ))
}

/// What a study pass wrote.
pub struct StudyOutput {
    pub table3: String,
    /// FNV-1a over every file name and content, in write order.
    pub digest: u64,
}

impl StudyOutput {
    pub fn digest_line(&self) -> String {
        format!("study outputs fnv1a={:016x}\n", self.digest)
    }
}

/// One §IV pass from bytes on disk: open and decode the suite corpus,
/// analyze and aggregate per application, render Table III, Figs 3-8 and
/// the HTML report, and write them as `experiments` does.
pub fn study(t: &Tracer, dir: &Path, jobs: usize) -> Result<StudyOutput> {
    let bytes = read(t, &dir.join(SUITE_CORPUS))?;
    let reader = t
        .time("trace.corpus_open", || CorpusReader::open(bytes))
        .map_err(err)?;
    let traces = decode(t, reader.total_episodes(), || reader.par_decode(jobs))?;
    free(t, reader);
    let study = t.time("report.aggregate", || -> Result<Study> {
        let classifier = OriginClassifier::java_default();
        let profiles = apps::standard_suite();
        let sessions_per_app = traces.len() / profiles.len();
        let mut traces = traces.into_iter();
        let mut results = Vec::with_capacity(profiles.len());
        for profile in profiles {
            let sessions: Vec<AnalysisSession> = traces
                .by_ref()
                .take(sessions_per_app)
                .map(|trace| AnalysisSession::new(trace, AnalysisConfig::default()))
                .collect();
            if sessions
                .iter()
                .any(|s| s.trace().meta().application != profile.name)
            {
                return Err(format!(
                    "{SUITE_CORPUS} is not in suite order at {}",
                    profile.name
                ));
            }
            let aggregate =
                aggregate_sessions_with_jobs(&profile.name, &sessions, &classifier, jobs);
            free(t, sessions);
            results.push(AppResult { profile, aggregate });
        }
        Ok(Study {
            apps: results,
            sessions_per_app: sessions_per_app as u32,
        })
    })?;
    let mut files = t.time("report.render", || {
        let mut files = vec![("table3.txt".to_owned(), table3::render(&study))];
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
        for fig in figs {
            files.push((format!("{}.svg", fig.id), fig.svg));
            files.push((format!("{}.txt", fig.id), fig.text));
        }
        files.push(("report.html".to_owned(), html::render(&study)));
        files
    });
    let out_dir = dir.join(STUDY_OUT);
    t.time("io.write", || -> Result<()> {
        fs::create_dir_all(&out_dir).map_err(err)?;
        for (name, content) in &files {
            fs::write(out_dir.join(name), content).map_err(err)?;
        }
        Ok(())
    })?;
    let mut digest = crate::stats::Fnv::new();
    for (name, content) in &files {
        digest.write(name.as_bytes());
        digest.write(content.as_bytes());
    }
    Ok(StudyOutput {
        table3: files.swap_remove(0).1,
        digest: digest.finish(),
    })
}
