//! Spawning the real `lagalyzer` binary: one request in flight, timed
//! from spawn until exit with stdout drained, killed after a timeout.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request that has not exited by then counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// The CLI binary cargo builds for this checkout.
pub fn binary(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || root.join("target"),
        |t| {
            let t = PathBuf::from(t);
            if t.is_absolute() {
                t
            } else {
                root.join(t)
            }
        },
    );
    target.join("release").join("lagalyzer")
}

/// Refuses a binary older than any source it is built from: a stale
/// binary would measure some other commit.
pub fn check_fresh(binary: &Path, root: &Path) -> Result<(), String> {
    let built = std::fs::metadata(binary)
        .and_then(|m| m.modified())
        .map_err(|e| {
            format!(
                "cannot stat {}: {e} (build it with paperbench/run.sh)",
                binary.display()
            )
        })?;
    let mut sources = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let crates =
        std::fs::read_dir(root.join("crates")).map_err(|e| format!("cannot list crates/: {e}"))?;
    for entry in crates.flatten() {
        collect_files(&entry.path().join("src"), &mut sources);
    }
    let newest = sources
        .iter()
        .filter_map(|p| Some((std::fs::metadata(p).ok()?.modified().ok()?, p)))
        .max_by_key(|(t, _)| *t);
    match newest {
        Some((time, path)) if time > built => Err(format!(
            "{} is older than {} ({}s newer); rebuild with paperbench/run.sh",
            binary.display(),
            path.display(),
            time.duration_since(built).unwrap_or_default().as_secs()
        )),
        _ => Ok(()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// What one spawned request produced.
pub struct Outcome {
    /// The exit code; `None` when the process could not start or was
    /// killed.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    pub elapsed: Duration,
}

/// Runs CLI requests; a watchdog thread kills any that outlives
/// [`TIMEOUT`]. Timed requests run one at a time; untimed reference runs
/// may share a runner across threads.
pub struct Runner<'a> {
    binary: &'a Path,
    in_flight: &'a Mutex<Vec<(u32, Instant)>>,
}

/// Runs `f` with a [`Runner`] whose watchdog is stopped and joined before
/// this returns.
pub fn with_runner<T>(binary: &Path, f: impl FnOnce(&Runner<'_>) -> T) -> T {
    let in_flight = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| watchdog(&in_flight, &stop));
        let result = f(&Runner {
            binary,
            in_flight: &in_flight,
        });
        stop.store(true, Ordering::Relaxed);
        result
    })
}

fn watchdog(in_flight: &Mutex<Vec<(u32, Instant)>>, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let overdue: Vec<u32> = in_flight
            .lock()
            .expect("watchdog lock")
            .iter()
            .filter(|(_, started)| started.elapsed() > TIMEOUT)
            .map(|&(pid, _)| pid)
            .collect();
        for pid in overdue {
            // The request's own wait reaps the killed child.
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .stderr(Stdio::null())
                .status();
        }
    }
}

impl Runner<'_> {
    /// Runs `lagalyzer <args>` in `dir`.
    pub fn run(&self, dir: &Path, args: &[String]) -> Outcome {
        let started = Instant::now();
        let child = Command::new(self.binary)
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        let child = match child {
            Ok(child) => child,
            Err(e) => {
                return Outcome {
                    code: None,
                    stdout: Vec::new(),
                    stderr: format!("cannot spawn {}: {e}", self.binary.display()).into_bytes(),
                    elapsed: started.elapsed(),
                }
            }
        };
        let pid = child.id();
        self.in_flight
            .lock()
            .expect("runner lock")
            .push((pid, started));
        let output = child.wait_with_output();
        let elapsed = started.elapsed();
        self.in_flight
            .lock()
            .expect("runner lock")
            .retain(|&(p, _)| p != pid);
        match output {
            Ok(out) => Outcome {
                code: out.status.code(),
                stdout: out.stdout,
                stderr: out.stderr,
                elapsed,
            },
            Err(e) => Outcome {
                code: None,
                stdout: Vec::new(),
                stderr: format!("wait failed: {e}").into_bytes(),
                elapsed,
            },
        }
    }
}
