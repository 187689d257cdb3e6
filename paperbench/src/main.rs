//! `lagalyzer-benchmark`: the paper's §IV workload, end to end from bytes
//! on disk, with per-layer attribution from a traced in-process replica.
//!
//! ```text
//! lagalyzer-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
//! lagalyzer-benchmark compare RESULTS_A RESULTS_B
//! ```
//!
//! Run it through `paperbench/run.sh`, which builds the CLI and this
//! harness first. See `paperbench/README.md` for the workloads and metrics.

mod cli;
mod replica;
mod spans;
mod stats;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use cli::{Outcome, Runner};
use spans::{self_times, Tracer};
use stats::{fnv1a, median, tail_percentile, Rng};
use workload::{Prepared, Request, Workload};

const MIB: f64 = 1024.0 * 1024.0;

/// Set-up repeats behind `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Layers with a `<layer>.self_ms` metric, named after the crate and
/// module the replica calls into.
const LAYERS: &[&str] = &[
    "io.read",
    "io.write",
    "trace.open",
    "trace.probe_rollup",
    "trace.corpus_open",
    "trace.decode",
    "trace.pack",
    "trace.compact",
    "model.free",
    "core.stats",
    "core.patterns",
    "core.outliers",
    "core.browser",
    "core.warm",
    "core.rollup",
    "check.rules",
    "check.hazards",
    "report.aggregate",
    "report.render",
    "viz.sketch",
];

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rss") => rss_child(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => parse_options(&args).and_then(|o| run_all(&o)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: 12,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.max(1),
            "--trace" => options.trace = Some(number()? != 0),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

fn run_all(options: &Options) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").join("cli").is_dir() {
        return Err("run from the root of a lagalyzer checkout".into());
    }
    let workloads = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes = options.trace.map_or(vec![false, true], |t| vec![t]);
    for &workload in &workloads {
        for &traced in &modes {
            run_one(&root, workload, options.seed, options.seconds, traced)?;
        }
    }
    Ok(())
}

/// Counts requests and failures; remembers the first failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("`{label}`: {why}"));
        }
    }
}

/// Where a workload's requests run: the spawned CLI, or in-process for
/// `study`, which no CLI command runs from disk.
enum Target<'a> {
    Cli(&'a Runner<'a>),
    InProcess,
}

impl Target<'_> {
    fn run(&self, dir: &Path, args: &[String]) -> Outcome {
        match self {
            Target::Cli(runner) => runner.run(dir, args),
            Target::InProcess => {
                let start = Instant::now();
                let result = replica::run(&Tracer::new(false), dir, args);
                let elapsed = start.elapsed();
                let (code, stdout, stderr) = match result {
                    Ok(out) => (0, out.into_bytes(), Vec::new()),
                    Err(e) => (1, Vec::new(), e.into_bytes()),
                };
                Outcome {
                    code: Some(code),
                    stdout,
                    stderr,
                    elapsed,
                }
            }
        }
    }
}

fn verdict(dir: &Path, request: &Request, out: &Outcome) -> Result<(), String> {
    if out.elapsed > cli::TIMEOUT {
        return Err(format!("timed out after {:?}", cli::TIMEOUT));
    }
    if out.code != Some(request.expected_code) {
        return Err(format!(
            "exit code {:?}, expected {}: {}",
            out.code,
            request.expected_code,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    if request
        .expected_stdout
        .is_some_and(|d| d != fnv1a(&out.stdout))
    {
        return Err("stdout differs from the reference".into());
    }
    if let Some((file, digest)) = &request.output {
        let written = fs::read(dir.join(file)).map_err(|e| format!("no output {file}: {e}"))?;
        if fnv1a(&written) != *digest {
            return Err(format!("{file} differs from the reference"));
        }
    }
    Ok(())
}

/// Runs every request once in `order`; returns (request, ms) samples.
fn pass(
    target: &Target<'_>,
    dir: &Path,
    requests: &[Request],
    order: &[usize],
    tally: &mut Tally,
) -> Vec<(usize, f64)> {
    order
        .iter()
        .map(|&i| {
            let out = target.run(dir, &requests[i].args);
            tally.record(&requests[i].label(), verdict(dir, &requests[i], &out));
            (i, out.elapsed.as_secs_f64() * 1e3)
        })
        .collect()
}

/// The first pass: untimed, on every core. It warms caches and checks
/// every request; requests without an independent reference (the ingest
/// commands' stdout, study's outputs) take its stdout as theirs.
fn warm_up(target: &Target<'_>, dir: &Path, requests: &mut [Request], tally: &mut Tally) {
    let outcomes = workload::par_map(requests.len(), |i| target.run(dir, &requests[i].args));
    for (request, out) in requests.iter_mut().zip(outcomes) {
        if out.code == Some(request.expected_code) && request.expected_stdout.is_none() {
            request.expected_stdout = Some(fnv1a(&out.stdout));
        }
        tally.record(&request.label(), verdict(dir, request, &out));
    }
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// One metric as printed: name, value (`None` prints `null`), unit.
type Metric = (String, Option<f64>, &'static str);

fn run_one(
    root: &Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(), String> {
    let binary = cli::binary(root);
    if workload.spawns_cli() {
        cli::check_fresh(&binary, root)?;
    }
    let dir = workload::target_dir(root, "work").join(workload.name());
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = cli::with_runner(&binary, |runner| {
        measure(root, &dir, runner, workload, seed, seconds, traced)
    });
    let _ = fs::remove_dir_all(&dir);
    let report = result?;
    print!("{report}");
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn measure(
    root: &Path,
    dir: &Path,
    runner: &Runner<'_>,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<String, String> {
    let sessions = workload::simulate_suite(seed);
    let (setup, fingerprint) = workload::set_up(
        workload,
        &sessions,
        dir,
        if traced { 1 } else { SETUP_REPEATS },
    )?;
    let target = if workload.spawns_cli() {
        Target::Cli(runner)
    } else {
        Target::InProcess
    };
    let Prepared {
        mut requests,
        mut stored_bytes,
    } = workload::prepare(
        workload,
        &sessions,
        dir,
        seed,
        workload.spawns_cli().then_some(runner),
    )?;
    drop(sessions);

    // A stream apart from the one `prepare` draws sketch indices from.
    let mut rng = Rng::new(!seed);
    let mut tally = Tally::default();
    warm_up(&target, dir, &mut requests, &mut tally);
    if workload == Workload::Study {
        check_study(dir, seed, &requests[0], &mut tally);
    }
    if workload == Workload::Ingest {
        stored_bytes = workload::output_bytes(dir, &requests)?;
    }

    let mut out = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(
        out,
        "== {} (seed {seed}, trace {}, {seconds} s, nproc {nproc}, study jobs {}) ==",
        workload.name(),
        u8::from(traced),
        workload::STUDY_JOBS
    );
    let _ = writeln!(
        out,
        "inputs      fnv1a={:016x} bytes={} episodes={} requests/pass={}",
        fingerprint.digest,
        fingerprint.bytes,
        fingerprint.episodes,
        requests.len()
    );
    let metrics = if traced {
        per_layer(
            root, dir, workload, &target, &requests, &mut rng, &mut tally, seconds, &mut out,
        )?
    } else {
        end_to_end(
            dir,
            &target,
            &requests,
            &mut rng,
            &mut tally,
            seconds,
            &setup,
            stored_bytes,
            &mut out,
        )?
    };
    let _ = writeln!(
        out,
        "failed_ratio  {} ({} of {} requests)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    if let Some(why) = &tally.first_failure {
        let _ = writeln!(out, "first failure {why}");
    }
    save_results(root, workload, seed, traced, &fingerprint, &metrics)?;
    let _ = writeln!(out, "{}", json_line(&tally, &metrics));
    Ok(out)
}

/// Study's extra checks, untimed: Table III from disk equals Table III
/// of the same suite analyzed in memory, and a `--jobs 1` pass writes
/// exactly what the timed `--jobs` pass wrote.
fn check_study(dir: &Path, seed: u64, request: &Request, tally: &mut Tally) {
    let verdict = replica::study(&Tracer::new(false), dir, 1).and_then(|serial| {
        if serial.table3 != workload::reference_table3(seed) {
            Err("Table III differs from the in-memory study".to_owned())
        } else if request.expected_stdout != Some(fnv1a(serial.digest_line().as_bytes())) {
            Err("a --jobs 1 pass wrote different outputs".to_owned())
        } else {
            Ok(())
        }
    });
    tally.record("study --jobs 1", verdict);
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    dir: &Path,
    target: &Target<'_>,
    requests: &[Request],
    rng: &mut Rng,
    tally: &mut Tally,
    seconds: u64,
    setup: &[f64],
    stored_bytes: u64,
    out: &mut String,
) -> Result<Vec<Metric>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut samples = Vec::new();
    let mut passes = 0;
    // Whole passes only, so every timed sample set has the same mix.
    while passes == 0 || Instant::now() < deadline {
        let order = shuffled(rng, requests.len());
        samples.extend(pass(target, dir, requests, &order, tally));
        passes += 1;
    }
    let ms: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    let episodes: u64 = samples.iter().map(|&(i, _)| requests[i].episodes).sum();
    let busy_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let (peak_kib, peak_label) = peak_rss(dir, requests)?;
    let n = ms.len();
    let p50 = median(&ms);
    let per_s = episodes as f64 / busy_s;
    let peak_mb = peak_kib as f64 / 1024.0;
    let setup_s = median(setup);
    let stored_mb = stored_bytes as f64 / MIB;
    let p90 = tail_percentile(&ms, 90.0).map_or_else(
        || "not reported: fewer than 10 samples beyond it".to_owned(),
        |v| format!("{v:.4} ms"),
    );
    let _ = writeln!(out, "timed       {passes} passes, {n} requests");
    for (name, value, count) in [
        ("latency_p50_ms", format!("{p50:.4} ms"), format!("n={n}")),
        ("latency_p90_ms", p90, format!("n={n}")),
        (
            "episodes_per_s",
            format!("{per_s:.1} episodes/s"),
            format!("n={n}"),
        ),
        (
            "peak_rss_mb",
            format!("{peak_mb:.2} MiB"),
            format!("n={}, max at `{peak_label}`", requests.len()),
        ),
        (
            "setup_s",
            format!("{setup_s:.4} s"),
            format!("n={}", setup.len()),
        ),
        (
            "stored_mb",
            format!("{stored_mb:.3} MiB"),
            "as written".to_owned(),
        ),
    ] {
        let _ = writeln!(out, "{name:<15} {value} ({count})");
    }
    let metrics: Vec<Metric> = vec![
        ("latency_p50_ms".into(), Some(p50), "ms"),
        ("episodes_per_s".into(), Some(per_s), "episodes/s"),
        ("peak_rss_mb".into(), Some(peak_mb), "MiB"),
        ("setup_s".into(), Some(setup_s), "s"),
        ("stored_mb".into(), Some(stored_mb), "MiB"),
    ];
    Ok(metrics)
}

/// Peak resident memory of an untraced replica pass. Like the CLI, each
/// request runs in a process of its own (several at a time: each reads
/// only its own peak), so the harness's memory is not counted.
fn peak_rss(dir: &Path, requests: &[Request]) -> Result<(u64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let peaks = workload::par_map(requests.len(), |i| -> Result<u64, String> {
        let out = Command::new(&exe)
            .arg("rss")
            .arg(dir)
            .args(&requests[i].args)
            .output()
            .map_err(|e| format!("cannot run the memory pass: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("peak_rss_kib "))
            .filter(|_| out.status.success())
            .and_then(|kib| kib.parse().ok())
            .ok_or_else(|| {
                format!(
                    "memory pass of `{}` failed: {}",
                    requests[i].label(),
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })
    });
    let mut peak = (0, String::new());
    for (request, kib) in requests.iter().zip(peaks) {
        let kib = kib?;
        if kib > peak.0 {
            peak = (kib, request.label());
        }
    }
    Ok(peak)
}

/// The child side of [`peak_rss`]: `rss DIR ARGS...` runs one request.
fn rss_child(args: &[String]) -> Result<(), String> {
    let (dir, request) = args.split_first().ok_or("rss needs a directory")?;
    // Writing 5 resets the peak to the current resident set, so start-up
    // before the request is not counted.
    let _ = fs::write("/proc/self/clear_refs", "5");
    replica::run(&Tracer::new(false), Path::new(dir), request)?;
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = stats::parse_vmhwm_kib(&status).ok_or("no VmHWM in /proc/self/status")?;
    println!("peak_rss_kib {kib}");
    Ok(())
}

/// Per-layer numbers from the traced replica: each round runs a CLI
/// pass (untraced by definition), an untraced replica pass and a traced
/// replica pass, until `seconds` are spent.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    root: &Path,
    dir: &Path,
    workload: Workload,
    target: &Target<'_>,
    requests: &[Request],
    rng: &mut Rng,
    tally: &mut Tally,
    seconds: u64,
    out: &mut String,
) -> Result<Vec<Metric>, String> {
    let untraced = Tracer::new(false);
    let traced = Tracer::new(true);
    let mut cli_ms: Vec<(usize, f64)> = Vec::new();
    let mut plain_ms: Vec<(usize, f64)> = Vec::new();
    let mut traced_ms: Vec<(usize, f64)> = Vec::new();
    let mut matched = 0u64;
    let mut mismatch: Option<String> = None;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        let order = shuffled(rng, requests.len());
        if workload.spawns_cli() {
            cli_ms.extend(pass(target, dir, requests, &order, tally));
        }
        for (tracer, samples) in [(&untraced, &mut plain_ms), (&traced, &mut traced_ms)] {
            for &i in &order {
                let start = Instant::now();
                let result = replica::run(tracer, dir, &requests[i].args);
                samples.push((i, start.elapsed().as_secs_f64() * 1e3));
                let same = result
                    .as_ref()
                    .is_ok_and(|s| requests[i].expected_stdout == Some(fnv1a(s.as_bytes())));
                if same {
                    matched += 1;
                } else if mismatch.is_none() {
                    mismatch = Some(format!(
                        "`{}`: {}",
                        requests[i].label(),
                        result
                            .err()
                            .unwrap_or_else(|| "output differs from the CLI's".into())
                    ));
                }
            }
        }
        rounds += 1;
    }
    let records = traced.take();

    let trace_dir = workload::target_dir(root, "trace");
    fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let mut jsonl = String::new();
    spans::to_jsonl(&records, &mut jsonl);
    let trace_file = trace_dir.join(format!("{}.jsonl", workload.name()));
    fs::write(&trace_file, jsonl).map_err(|e| e.to_string())?;

    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut request_ns, mut root_self_ns, mut input_bytes, mut episodes) =
        (0u64, 0u64, 0u64, 0u64);
    for (record, &(i, _)) in records.iter().zip(&traced_ms) {
        for (span, own) in record.spans.iter().zip(self_times(&record.spans)) {
            if span.parent.is_none() {
                request_ns += span.duration_ns();
                root_self_ns += own;
            } else {
                *self_ns.entry(span.name).or_insert(0) += own;
            }
        }
        for (name, n) in &record.counters {
            *counters.entry(name).or_insert(0) += n;
        }
        input_bytes += requests[i].input_bytes;
        episodes += requests[i].episodes;
    }
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / f64::from(rounds);
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let n_requests = records.len() as f64;
    let fidelity = matched as f64 / (plain_ms.len() + traced_ms.len()) as f64;
    let coverage = 1.0 - root_self_ns as f64 / request_ns as f64;
    let sum = |samples: &[(usize, f64)]| samples.iter().map(|&(_, ms)| ms).sum::<f64>();
    let overhead = sum(&traced_ms) / sum(&plain_ms);
    let ms_of = |samples: &[(usize, f64)]| samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>();
    let process_ms = if cli_ms.is_empty() {
        0.0
    } else {
        median(&ms_of(&cli_ms)) - median(&ms_of(&plain_ms))
    };

    let _ = writeln!(
        out,
        "replica     {rounds} rounds of CLI + untraced + traced passes; spans in {}",
        trace_file
            .strip_prefix(root)
            .unwrap_or(&trace_file)
            .display()
    );
    if !cli_ms.is_empty() {
        let commands: BTreeSet<&str> = requests.iter().map(Request::command).collect();
        for command in commands {
            let of = |samples: &[(usize, f64)]| {
                median(
                    &samples
                        .iter()
                        .filter(|&&(i, _)| requests[i].command() == command)
                        .map(|&(_, ms)| ms)
                        .collect::<Vec<_>>(),
                )
            };
            let (cli, plain) = (of(&cli_ms), of(&plain_ms));
            let _ = writeln!(
                out,
                "  {command:<9} CLI p50 {cli:.3} ms, replica p50 {plain:.3} ms, process {:.3} ms",
                cli - plain
            );
        }
    }
    let layer_ok = fidelity >= 1.0;
    if let Some(why) = &mismatch {
        let _ = writeln!(out, "replica mismatch, per-layer metrics withheld: {why}");
    }
    let gated = |v: f64| layer_ok.then_some(v);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics: Vec<Metric> = vec![("cli.process_ms".into(), gated(process_ms), "ms")];
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        metrics.push((format!("{layer}.self_ms"), gated(per_pass_ms(ns)), "ms"));
    }
    metrics.extend([
        (
            "io.read.amplification".into(),
            gated(ratio(count("io.read.bytes"), input_bytes as f64)),
            "ratio",
        ),
        (
            "trace.open.calls_per_request".into(),
            gated(ratio(count("trace.open.calls"), n_requests)),
            "calls/request",
        ),
        (
            "trace.decode.episode_ratio".into(),
            gated(ratio(count("trace.decode.episodes"), episodes as f64)),
            "ratio",
        ),
        (
            "core.patterns.calls_per_request".into(),
            gated(ratio(count("core.patterns.calls"), n_requests)),
            "calls/request",
        ),
        (
            "core.warm.hit_ratio".into(),
            gated(ratio(count("core.warm.hits"), count("core.warm.attempts"))),
            "ratio",
        ),
        ("replica.fidelity".into(), Some(fidelity), "ratio"),
        ("replica.coverage".into(), Some(coverage), "ratio"),
        ("trace.overhead".into(), Some(overhead), "ratio"),
    ]);
    for (name, value, unit) in &metrics {
        match value {
            Some(v) => {
                let _ = writeln!(out, "  {name:<34} {v:>12.4} {unit}");
            }
            None => {
                let _ = writeln!(out, "  {name:<34} {:>12} {unit}", "null");
            }
        }
    }
    Ok(metrics)
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = value
                .filter(|v| v.is_finite())
                .map_or_else(|| "null".to_owned(), |v| v.to_string());
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Writes `paperbench/target/results/<workload>-seed<S>-trace<T>.txt`,
/// the input to `compare`.
fn save_results(
    root: &Path,
    workload: Workload,
    seed: u64,
    traced: bool,
    fingerprint: &workload::Fingerprint,
    metrics: &[Metric],
) -> Result<(), String> {
    let dir = workload::target_dir(root, "results");
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut text = format!(
        "fingerprint {} fnv1a={:016x} bytes={} episodes={}\n",
        workload.name(),
        fingerprint.digest,
        fingerprint.bytes,
        fingerprint.episodes
    );
    for (name, value, unit) in metrics {
        if let Some(v) = value {
            let _ = writeln!(text, "metric {name} {v} {unit}");
        }
    }
    let file = dir.join(format!(
        "{}-seed{seed}-trace{}.txt",
        workload.name(),
        u8::from(traced)
    ));
    fs::write(file, text).map_err(|e| e.to_string())
}

/// Compares two results files metric by metric, unless their inputs
/// differ: then the simulator changed the workload, and the numbers are
/// reported as workload drift, not as a result.
fn compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("compare needs two results files".into());
    };
    let read = |p: &String| fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (a, b) = (read(a)?, read(b)?);
    let fingerprint = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("fingerprint "))
            .map(str::to_owned)
    };
    let (fa, fb) = (fingerprint(&a), fingerprint(&b));
    if fa != fb {
        println!("workload drift: the inputs differ, so no comparison is made");
        println!("  a: {}", fa.unwrap_or_default());
        println!("  b: {}", fb.unwrap_or_default());
        return Ok(());
    }
    let metrics = |t: &str| -> BTreeMap<String, (f64, String)> {
        t.lines()
            .filter_map(|l| {
                let mut f = l.strip_prefix("metric ")?.split(' ');
                let name = f.next()?.to_owned();
                let value = f.next()?.parse().ok()?;
                Some((name, (value, f.next().unwrap_or("").to_owned())))
            })
            .collect()
    };
    let mb = metrics(&b);
    for (name, (va, unit)) in metrics(&a) {
        if let Some((vb, _)) = mb.get(&name) {
            let change = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va * 100.0
            };
            println!("{name:<34} {va:>12.4} -> {vb:>12.4} {unit:<13} {change:+.2}%");
        }
    }
    Ok(())
}
