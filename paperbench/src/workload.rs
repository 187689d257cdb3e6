//! The four workloads: generating the §IV suite, writing it to disk
//! through the program's own write path (timed as set-up), and the
//! requests each workload sends with the reference each is checked against.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lagalyzer_model::SessionTrace;
use lagalyzer_report::{table3, Study};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::binary;
use lagalyzer_trace::corpus::{self, PackOptions};
use lagalyzer_trace::IndexedTrace;
use lagalyzer_viz::ascii::ascii_sketch;

use crate::cli::Runner;
use crate::replica::SUITE_CORPUS;
use crate::stats::{fnv1a, Fnv, Rng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Study,
    TriageWarm,
    TriageCold,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Study,
        Workload::TriageWarm,
        Workload::TriageCold,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::TriageWarm => "triage_warm",
            Workload::TriageCold => "triage_cold",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `study` runs in-process; the others spawn the CLI.
    pub fn spawns_cli(self) -> bool {
        self != Workload::Study
    }
}

/// Worker threads for `study`. Both cores of the measurement host; the
/// CLI requests of the other workloads run with `--jobs 1`.
pub const STUDY_JOBS: usize = 2;

const SESSIONS_PER_APP: u32 = 4;

/// One simulated session of the suite.
pub struct Session {
    pub app: String,
    pub trace: SessionTrace,
    pub file: String,
}

/// Simulates the paper's §IV suite, 14 applications × 4 sessions, in
/// suite order. Simulation is the load generator: it is not timed, so it
/// runs on every core.
pub fn simulate_suite(seed: u64) -> Vec<Session> {
    let plan: Vec<(lagalyzer_sim::profile::AppProfile, u32)> = apps::standard_suite()
        .into_iter()
        .flat_map(|p| (0..SESSIONS_PER_APP).map(move |i| (p.clone(), i)))
        .collect();
    par_map(plan.len(), |k| {
        let (profile, i) = &plan[k];
        Session {
            app: profile.name.clone(),
            trace: runner::simulate_session(profile, *i, seed),
            file: format!("{}_{i}.lgz", profile.name),
        }
    })
}

type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `simulate` write path: an optional rollup, then the binary
/// encoding.
fn encode(trace: &SessionTrace, with_rollup: bool) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    if with_rollup {
        let rollup = lagalyzer_core::rollup::build(trace);
        binary::write_with_rollup(trace, &mut buf, rollup).map_err(err)?;
    } else {
        binary::write(trace, &mut buf).map_err(err)?;
    }
    Ok(buf)
}

/// The `simulate --sessions` write path: rollup, encode, open, then pack
/// with compression.
fn pack_sessions<'a>(sessions: impl Iterator<Item = &'a Session>) -> Result<Vec<u8>> {
    let opened = sessions
        .map(|s| IndexedTrace::open(encode(&s.trace, true)?).map_err(err))
        .collect::<Result<Vec<_>>>()?;
    corpus::pack_with_rollups(&opened, Vec::new(), PackOptions { compress: true }).map_err(err)
}

/// The workload's input files, encoded in memory.
fn encode_inputs(workload: Workload, sessions: &[Session]) -> Result<Vec<(String, Vec<u8>)>> {
    match workload {
        Workload::Study => Ok(vec![(
            SUITE_CORPUS.to_owned(),
            pack_sessions(sessions.iter())?,
        )]),
        // `triage_warm` as `simulate` writes them, the others as a tracer
        // emits them: without a rollup section.
        _ => sessions
            .iter()
            .map(|s| {
                Ok((
                    s.file.clone(),
                    encode(&s.trace, workload == Workload::TriageWarm)?,
                ))
            })
            .collect(),
    }
}

/// Encodes the inputs `repeats` times, timing each, then writes them to
/// `dir`. The file writes stay out of `setup_s`: their cost follows the
/// bytes, which `stored_mb` measures, and the shared host's page cache
/// would only add noise. Returns the seconds and the inputs' fingerprint.
pub fn set_up(
    workload: Workload,
    sessions: &[Session],
    dir: &Path,
    repeats: usize,
) -> Result<(Vec<f64>, Fingerprint)> {
    let mut seconds = Vec::with_capacity(repeats);
    let mut inputs = Vec::new();
    for _ in 0..repeats {
        let start = Instant::now();
        inputs = encode_inputs(workload, sessions)?;
        seconds.push(start.elapsed().as_secs_f64());
    }
    let mut digest = Fnv::new();
    let mut bytes = 0;
    for (name, content) in &inputs {
        digest.write(name.as_bytes());
        digest.write(content);
        bytes += content.len() as u64;
        fs::write(dir.join(name), content).map_err(|e| format!("cannot write {name}: {e}"))?;
    }
    let fingerprint = Fingerprint {
        digest: digest.finish(),
        bytes,
        episodes: sessions
            .iter()
            .map(|s| s.trace.episodes().len() as u64)
            .sum(),
    };
    Ok((seconds, fingerprint))
}

/// One request and how its result is checked.
pub struct Request {
    pub args: Vec<String>,
    pub input_bytes: u64,
    pub episodes: u64,
    /// Digest the request's stdout must have; taken from the warm-up
    /// pass where no independent reference exists.
    pub expected_stdout: Option<u64>,
    /// The exit code the request must end with: 0, except for `check`,
    /// which exits 1 on warnings and 2 on errors.
    pub expected_code: i32,
    /// A file the request writes and the digest it must have.
    pub output: Option<(String, u64)>,
}

impl Request {
    pub fn label(&self) -> String {
        self.args.join(" ")
    }

    pub fn command(&self) -> &str {
        &self.args[0]
    }
}

/// Digest, size and episode count of a workload's generated inputs: if
/// the digest differs between two runs, the simulator changed the
/// workload and their numbers are not comparable.
pub struct Fingerprint {
    pub digest: u64,
    pub bytes: u64,
    pub episodes: u64,
}

pub struct Prepared {
    pub requests: Vec<Request>,
    /// Bytes of the inputs as written (for `ingest`, of one pass's
    /// outputs, known after the first pass).
    pub stored_bytes: u64,
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

fn file_len(path: &Path) -> Result<u64> {
    fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// Builds the requests and their references. Reference runs of the CLI
/// (`--no-cache` on a file with a rollup) go through `runner`.
pub fn prepare(
    workload: Workload,
    sessions: &[Session],
    dir: &Path,
    seed: u64,
    runner: Option<&Runner<'_>>,
) -> Result<Prepared> {
    match workload {
        Workload::Study => {
            let bytes = file_len(&dir.join(SUITE_CORPUS))?;
            // Table III is checked against the in-memory study after the
            // warm-up.
            Ok(Prepared {
                requests: vec![Request {
                    args: args(&["study", "--jobs", &STUDY_JOBS.to_string()]),
                    input_bytes: bytes,
                    episodes: sessions
                        .iter()
                        .map(|s| s.trace.episodes().len() as u64)
                        .sum(),
                    expected_stdout: None,
                    expected_code: 0,
                    output: None,
                }],
                stored_bytes: bytes,
            })
        }
        Workload::TriageWarm | Workload::TriageCold => {
            let runner = runner.expect("triage workloads spawn the CLI");
            let cold = workload == Workload::TriageCold;
            // Cold references run on the same sessions written with a
            // rollup, under the same file names, so outputs that embed
            // the name compare equal.
            let ref_dir = if cold {
                dir.join("ref")
            } else {
                dir.to_path_buf()
            };
            if cold {
                fs::create_dir_all(&ref_dir).map_err(err)?;
                par_map(sessions.len(), |i| {
                    let bytes = encode(&sessions[i].trace, true)?;
                    fs::write(ref_dir.join(&sessions[i].file), bytes).map_err(err)
                })
                .into_iter()
                .collect::<Result<()>>()?;
            }
            let commands: &[&str] = if cold {
                &["analyze", "patterns", "outliers", "hazards", "check"]
            } else {
                &["analyze", "patterns", "outliers", "sketch"]
            };
            let mut rng = Rng::new(seed);
            let mut requests = Vec::new();
            let mut stored_bytes = 0;
            for s in sessions {
                let input_bytes = file_len(&dir.join(&s.file))?;
                stored_bytes += input_bytes;
                let episodes = s.trace.episodes().len();
                for &command in commands {
                    let args = match command {
                        "sketch" => {
                            let k = rng.below(episodes).to_string();
                            args(&["sketch", &s.file, "--episode", &k, "--ascii"])
                        }
                        "check" => args(&[command, &s.file]),
                        _ => args(&[command, &s.file, "--jobs", "1"]),
                    };
                    requests.push(Request {
                        args,
                        input_bytes,
                        episodes: episodes as u64,
                        expected_stdout: None,
                        expected_code: 0,
                        output: None,
                    });
                }
            }
            let expected = par_map(requests.len(), |i| {
                reference(runner, dir, &ref_dir, &requests[i].args)
            });
            for (request, expected) in requests.iter_mut().zip(expected) {
                let (digest, code) = expected?;
                request.expected_stdout = Some(digest);
                request.expected_code = code;
            }
            if cold {
                fs::remove_dir_all(&ref_dir).map_err(err)?;
            }
            Ok(Prepared {
                requests,
                stored_bytes,
            })
        }
        Workload::Ingest => {
            let apps: Vec<&[Session]> = sessions.chunks(SESSIONS_PER_APP as usize).collect();
            // `pack` must produce what packing the same sessions with
            // rollups already attached produces.
            let packed = par_map(apps.len(), |i| pack_sessions(apps[i].iter()));
            let mut requests = Vec::new();
            for (app, packed) in apps.iter().zip(packed) {
                let packed = packed?;
                let name = &app[0].app;
                let episodes: u64 = app.iter().map(|s| s.trace.episodes().len() as u64).sum();
                let mut input_bytes = 0;
                for s in *app {
                    input_bytes += file_len(&dir.join(&s.file))?;
                }
                let packed_digest = fnv1a(&packed);
                let packed_name = format!("{name}.packed.lgzc");
                fs::write(dir.join(&packed_name), &packed).map_err(err)?;
                let mut pack = vec!["pack".to_owned()];
                pack.extend(app.iter().map(|s| s.file.clone()));
                let out = format!("{name}.lgzc");
                pack.extend(args(&["--out", &out, "--compress", "--jobs", "1"]));
                requests.push(Request {
                    args: pack,
                    input_bytes,
                    episodes,
                    expected_stdout: None,
                    expected_code: 0,
                    output: Some((out, packed_digest)),
                });
                // `compact` of a freshly packed corpus is the identity.
                let out = format!("{name}.compact.lgzc");
                requests.push(Request {
                    args: args(&[
                        "compact",
                        &packed_name,
                        "--out",
                        &out,
                        "--compress",
                        "--jobs",
                        "1",
                    ]),
                    input_bytes: packed.len() as u64,
                    episodes,
                    expected_stdout: None,
                    expected_code: 0,
                    output: Some((out, packed_digest)),
                });
            }
            Ok(Prepared {
                requests,
                // Set from the outputs of the first pass.
                stored_bytes: 0,
            })
        }
    }
}

/// The stdout digest and exit code a triage request must produce:
/// `sketch` against the serial reader's decode of the same episode, the
/// other commands against the CLI's cold path (`--no-cache`) on the file
/// with a rollup.
fn reference(
    runner: &Runner<'_>,
    dir: &Path,
    ref_dir: &Path,
    args: &[String],
) -> Result<(u64, i32)> {
    if args[0] == "sketch" {
        let k: usize = args[3].parse().map_err(err)?;
        let bytes = fs::read(dir.join(&args[1])).map_err(err)?;
        let trace = lagalyzer_trace::read_bytes(&bytes).map_err(err)?;
        let sketch = ascii_sketch(&trace.episodes()[k], trace.symbols(), 100);
        return Ok((fnv1a(sketch.as_bytes()), 0));
    }
    let mut reference = args.to_vec();
    reference.push("--no-cache".to_owned());
    let out = runner.run(ref_dir, &reference);
    // `check` reports what it found in its exit code: 1 warnings, 2 errors.
    let accepted = if args[0] == "check" { 0..=2 } else { 0..=0 };
    if !out.code.is_some_and(|c| accepted.contains(&c)) {
        return Err(format!(
            "reference `lagalyzer {}` failed: {}",
            reference.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((fnv1a(&out.stdout), out.code.unwrap_or_default()))
}

/// Untimed helper work (references, the memory pass) on every core, in
/// input order.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let jobs = lagalyzer_core::parallel::available_jobs();
    lagalyzer_core::parallel::map_shards(n, jobs, |range| range.map(&f).collect::<Vec<_>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Table III of the same suite analyzed in memory, straight from the
/// simulator: what `study` must reproduce from bytes on disk.
pub fn reference_table3(seed: u64) -> String {
    table3::render(&Study::run_with_jobs(
        &apps::standard_suite(),
        SESSIONS_PER_APP,
        seed,
        1,
    ))
}

/// Bytes of the files the ingest requests wrote.
pub fn output_bytes(dir: &Path, requests: &[Request]) -> Result<u64> {
    requests
        .iter()
        .filter_map(|r| r.output.as_ref())
        .map(|(name, _)| file_len(&dir.join(name)))
        .sum()
}

/// `paperbench/target/<what>` under the checkout root.
pub fn target_dir(root: &Path, what: &str) -> PathBuf {
    root.join("paperbench").join("target").join(what)
}
