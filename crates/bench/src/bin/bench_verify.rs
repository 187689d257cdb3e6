//! `bench-verify` — validates the machine-readable bench artifacts.
//!
//! The benches emit `BENCH_ingest.json`, `BENCH_mining.json`,
//! `BENCH_corpus.json`, `BENCH_warm.json` and `BENCH_hazards.json` (see
//! `lagalyzer_bench::benchjson`); this binary is the CI gate over them.
//! One table, [`ARTIFACTS`], says for each artifact which top-level
//! sections it holds, which fields each section requires, and which gate
//! applies. Two subcommands read it:
//!
//! * `check FILE...` — the file parses, is a non-empty JSON object and
//!   holds no `zz_`/placeholder key at any depth. If its name matches an
//!   entry, it holds exactly that entry's sections: a listed section the
//!   bench did not emit fails, and so does an emitted section nobody
//!   listed. Every required field is there: a non-empty string, a finite
//!   number above zero, a nested object, or a non-empty array of rows. A
//!   speedup across job counts that ran on one worker is labelled
//!   single-core cost and sharding overhead, not parallel speedup, on the
//!   file's line.
//! * `gate FILE --min-speedup X` — `check` plus the entry's gate. For the
//!   ingest artifact, decode speedups must be monotone non-regressing
//!   along the jobs axis, and the widest row must clear X. X only applies
//!   where the hardware can express it: when the widest row's
//!   `effective_jobs` is below 4 the parallel section degenerates to the
//!   single-worker schedule, and the gate instead requires the
//!   single-core algorithmic floor ([`SINGLE_CORE_FLOOR`]), so a 1-core
//!   runner still verifies that indexed decode beats the serial reader.
//!   For the corpus and warm-analysis artifacts, the speedup the entry
//!   names must be *strictly above* X, so `--min-speedup 1.0` on the
//!   corpus artifact enforces that corpus-wide mining beats N separate
//!   file loads rather than tying them.
//!
//! Exit status: 0 on success, 1 on a failed validation, 2 on usage or
//! I/O errors. Documents are read with [`lagalyzer_model::json`].

use std::fmt::Write as _;
use std::process::ExitCode;

use lagalyzer_model::json::{self, Json};

/// Decode speedup every host must reach at its widest row, even with a
/// single effective worker: the indexed path skips the checksum pass,
/// the streaming-reader indirection, and the intermediate record vector,
/// which beats the serial reader without any parallelism at all.
const SINGLE_CORE_FLOOR: f64 = 1.15;

/// Effective worker count from which the full `--min-speedup` threshold
/// applies to the ingest rows.
const PARALLEL_GATE_MIN_WORKERS: f64 = 4.0;

/// Relative tolerance for the monotone-speedup check: one step down the
/// jobs axis may lose at most this fraction before it counts as a
/// regression (absorbs timer noise between separately measured rows).
const MONOTONE_TOLERANCE: f64 = 0.95;

/// What one field of an artifact must hold.
enum Kind {
    /// A non-empty string.
    Str,
    /// A finite number above zero.
    Num,
    /// A finite number above zero: a speedup across job counts, measured
    /// on as many workers as the named field records (in the same row,
    /// else in the section). At one worker it shows single-core cost and
    /// sharding overhead, not parallel speedup, and `check` says so.
    Speedup(&'static str),
    /// A nested object of fields.
    Obj(&'static [Field]),
    /// A non-empty array of rows of fields.
    Rows(&'static [Field]),
}

/// A required key and what it holds.
type Field = (&'static str, Kind);

/// The rule `gate FILE --min-speedup X` holds an artifact to.
enum Gate {
    /// The decode rows at this path pass [`gate_rows`].
    JobsAxis(&'static str),
    /// The number at this path is strictly above X: a tie fails.
    Above(&'static str),
}

/// One artifact: the file names it covers, every top-level section it
/// holds with that section's fields, and its gate.
struct Artifact {
    /// Matched against the file name; entries are tried in table order.
    name: &'static str,
    sections: &'static [(&'static str, &'static [Field])],
    gate: Option<Gate>,
}

use Kind::{Num, Obj, Rows, Speedup, Str};

const CORPUS_PAIR: &[Field] = &[
    ("separate_files_ns_per_iter", Num),
    ("corpus_ns_per_iter", Num),
    ("speedup", Num),
];

/// Every artifact. `hazard` and `corpus` come before `ingest`, so that
/// `corpus_ingest.json` never falls into the trace-ingest rules.
const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "hazard",
        sections: &[(
            "hazard_scan",
            &[
                ("corpus", Str),
                ("episodes", Num),
                ("available_jobs", Num),
                ("waits", Num),
                ("locks", Num),
                (
                    "build",
                    Obj(&[
                        ("serial_ns_per_iter", Num),
                        ("sharded_ns_per_iter", Num),
                        ("speedup", Speedup("available_jobs")),
                    ]),
                ),
            ],
        )],
        // Shard-merge cost makes the build speedup hardware-dependent.
        gate: None,
    },
    Artifact {
        name: "corpus",
        sections: &[(
            "corpus_ingest",
            &[
                ("corpus", Str),
                ("sessions", Num),
                ("episodes", Num),
                ("available_jobs", Num),
                ("separate_bytes", Num),
                ("corpus_bytes", Num),
                ("load_only", Obj(CORPUS_PAIR)),
                ("load_and_mine", Obj(CORPUS_PAIR)),
            ],
        )],
        gate: Some(Gate::Above("corpus_ingest.load_and_mine.speedup")),
    },
    Artifact {
        name: "warm",
        sections: &[(
            "analysis_warm",
            &[
                ("corpus", Str),
                ("episodes", Num),
                ("available_jobs", Num),
                ("trace_bytes", Num),
                ("trace_bytes_with_rollup", Num),
                (
                    "analyze",
                    Obj(&[
                        ("cold_ns_per_iter", Num),
                        ("warm_ns_per_iter", Num),
                        ("speedup", Num),
                    ]),
                ),
            ],
        )],
        gate: Some(Gate::Above("analysis_warm.analyze.speedup")),
    },
    Artifact {
        name: "ingest",
        sections: &[(
            "trace_ingest",
            &[
                ("corpus", Str),
                ("episodes", Num),
                ("trace_bytes", Num),
                ("available_jobs", Num),
                ("serial_read_ns_per_iter", Num),
                (
                    "indexed_decode_by_jobs",
                    Rows(&[
                        ("jobs", Num),
                        ("effective_jobs", Num),
                        ("ns_per_iter", Num),
                        ("speedup_vs_serial", Speedup("effective_jobs")),
                    ]),
                ),
                (
                    "filtered_analysis",
                    Obj(&[
                        ("filter", Str),
                        ("full_decode_ns_per_iter", Num),
                        ("skip_decode_ns_per_iter", Num),
                        ("speedup", Num),
                    ]),
                ),
            ],
        )],
        gate: Some(Gate::JobsAxis("trace_ingest.indexed_decode_by_jobs")),
    },
    Artifact {
        name: "mining",
        sections: &[
            (
                "parallel_pipeline",
                &[
                    ("corpus", Str),
                    ("episodes", Num),
                    ("reference_serial_ns_per_iter", Num),
                    // The rows record no worker count, so their speedups
                    // carry no one-worker label.
                    (
                        "mining_by_jobs",
                        Rows(&[
                            ("jobs", Num),
                            ("ns_per_iter", Num),
                            ("speedup_vs_reference", Num),
                        ]),
                    ),
                ],
            ),
            (
                "pattern_mining",
                &[
                    (
                        "apps",
                        Rows(&[
                            ("app", Str),
                            ("episodes", Num),
                            ("before_ns_per_iter", Num),
                            ("after_ns_per_iter", Num),
                            ("speedup", Num),
                        ]),
                    ),
                    ("total", Obj(&[("speedup", Num)])),
                ],
            ),
        ],
        gate: None,
    },
];

/// The table entry a path's file name matches, if any.
fn artifact(path: &str) -> Option<&'static Artifact> {
    let name = path.rsplit('/').next().unwrap_or(path);
    ARTIFACTS.iter().find(|a| name.contains(a.name))
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// What `check` found in one file: failures, and notes on how to read
/// its numbers.
#[derive(Default)]
struct Findings {
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Findings {
    fn push(&mut self, msg: String) {
        self.problems.push(msg);
    }
}

/// Keys that mark a section or field as not-real data.
fn is_placeholder_key(key: &str) -> bool {
    let lower = key.to_ascii_lowercase();
    lower.starts_with("zz_")
        || lower.contains("placeholder")
        || lower.contains("todo")
        || lower.contains("fixme")
}

/// Walks the whole value rejecting placeholder keys at any depth.
fn check_no_placeholders(value: &Json, path: &str, out: &mut Findings) {
    match value {
        Json::Obj(fields) => {
            for (key, child) in fields {
                let here = format!("{path}.{key}");
                if is_placeholder_key(key) {
                    out.push(format!("placeholder key `{here}`"));
                }
                check_no_placeholders(child, &here, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                check_no_placeholders(item, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// A finite number above zero, if `value` is one.
fn positive(value: Option<&Json>) -> Option<f64> {
    value
        .and_then(Json::as_num)
        .filter(|n| n.is_finite() && *n > 0.0)
}

/// The value at a dotted path from the document root.
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |value, key| value.get(key))
}

/// Checks `obj` (at `path`, inside the top-level `section`) against
/// `fields`, recursing into nested objects and rows.
fn walk(fields: &[Field], obj: &Json, path: &str, section: (&str, &Json), out: &mut Findings) {
    for (key, kind) in fields {
        let here = format!("{path}.{key}");
        let value = obj.get(key);
        match kind {
            Str => {
                if value.and_then(Json::as_str).map_or(true, str::is_empty) {
                    out.push(format!("`{here}` missing or not a non-empty string"));
                }
            }
            Num | Speedup(_) => match value.and_then(Json::as_num) {
                Some(n) if n.is_finite() && n > 0.0 => {
                    if let Speedup(workers) = kind {
                        let count = [(path, obj), section]
                            .into_iter()
                            .find_map(|(at, o)| Some((positive(o.get(workers))?, at)));
                        if let Some((_, at)) = count.filter(|&(count, _)| count == 1.0) {
                            out.notes.push(format!(
                                "`{here}` {n:.3}x ran on 1 worker (`{at}.{workers}`): \
                                 single-core cost and sharding overhead, not parallel speedup"
                            ));
                        }
                    }
                }
                Some(n) => out.push(format!("`{here}` = {n} (must be > 0 and finite)")),
                None => out.push(format!("`{here}` missing or not a number")),
            },
            Obj(inner) => match value {
                Some(v) => walk(inner, v, &here, section, out),
                None => out.push(format!("`{here}` is missing")),
            },
            Rows(row) => match value.and_then(Json::as_arr) {
                Some([]) | None => out.push(format!("`{here}` missing or empty")),
                Some(items) => {
                    for (i, item) in items.iter().enumerate() {
                        walk(row, item, &format!("{here}[{i}]"), section, out);
                    }
                }
            },
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read file: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: parse error: {e}"))?;
    match &doc {
        Json::Obj(fields) if !fields.is_empty() => Ok(doc),
        Json::Obj(_) => Err(format!("{path}: top-level object is empty")),
        _ => Err(format!("{path}: top level is not a JSON object")),
    }
}

/// The `check` validation for one already-parsed file: placeholder keys
/// anywhere, then the sections of the table entry its name matches.
fn check_doc(path: &str, doc: &Json) -> Findings {
    let mut findings = Findings::default();
    check_no_placeholders(doc, "", &mut findings);
    let Some(entry) = artifact(path) else {
        return findings;
    };
    for &(name, fields) in entry.sections {
        match doc.get(name) {
            Some(section) => walk(fields, section, name, (name, section), &mut findings),
            None => findings.push(format!("required section `{name}` is missing")),
        }
    }
    if let Json::Obj(sections) = doc {
        for (name, _) in sections {
            if !entry.sections.iter().any(|(listed, _)| listed == name) {
                findings.push(format!(
                    "unreviewed section `{name}`: the `{}` artifact does not list it",
                    entry.name
                ));
            }
        }
    }
    findings
}

fn report(path: &str, findings: &Findings) -> bool {
    let notes: String = findings.notes.iter().map(|n| format!("; {n}")).collect();
    if findings.problems.is_empty() {
        eprintln!("bench-verify: {path}: ok{notes}");
        true
    } else {
        let mut msg = format!(
            "bench-verify: {path}: {} problem(s){notes}\n",
            findings.problems.len()
        );
        for p in &findings.problems {
            let _ = writeln!(msg, "  - {p}");
        }
        eprint!("{msg}");
        false
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_check(paths: &[String]) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("check: at least one FILE required".into());
    }
    let mut ok = true;
    for path in paths {
        let doc = load(path)?;
        ok &= report(path, &check_doc(path, &doc));
    }
    Ok(exit_code(ok))
}

/// One decode-scaling row of the ingest artifact.
struct DecodeRow {
    jobs: f64,
    effective_jobs: f64,
    speedup: f64,
}

/// The rows at `path` whose three numbers `check` accepts.
fn decode_rows(doc: &Json, path: &str) -> Vec<DecodeRow> {
    let rows = lookup(doc, path).and_then(Json::as_arr).unwrap_or_default();
    rows.iter()
        .filter_map(|row| {
            Some(DecodeRow {
                jobs: positive(row.get("jobs"))?,
                effective_jobs: positive(row.get("effective_jobs"))?,
                speedup: positive(row.get("speedup_vs_serial"))?,
            })
        })
        .collect()
}

/// The `gate` performance rules over validated decode rows.
fn gate_rows(rows: &[DecodeRow], min_speedup: f64, out: &mut Findings) {
    let mut sorted: Vec<&DecodeRow> = rows.iter().collect();
    sorted.sort_by(|a, b| a.jobs.total_cmp(&b.jobs));
    for pair in sorted.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        if hi.speedup < lo.speedup * MONOTONE_TOLERANCE {
            out.push(format!(
                "decode speedup regresses along the jobs axis: jobs={} gives {:.3}x but \
                 jobs={} gives {:.3}x",
                lo.jobs, lo.speedup, hi.jobs, hi.speedup
            ));
        }
    }
    let Some(widest) = sorted.last() else {
        out.push("no decode rows to gate on".into());
        return;
    };
    if widest.effective_jobs >= PARALLEL_GATE_MIN_WORKERS {
        if widest.speedup < min_speedup {
            out.push(format!(
                "jobs={} (effective {}) speedup {:.3}x is below the gate {min_speedup}x",
                widest.jobs, widest.effective_jobs, widest.speedup
            ));
        }
    } else {
        // Too few workers to express parallel scaling; hold the
        // single-core algorithmic floor instead (see module docs).
        eprintln!(
            "bench-verify: widest row has only {} effective worker(s); applying the \
             single-core floor {SINGLE_CORE_FLOOR}x instead of the parallel gate \
             {min_speedup}x",
            widest.effective_jobs
        );
        if widest.speedup < SINGLE_CORE_FLOOR {
            out.push(format!(
                "jobs={} (effective {}) speedup {:.3}x is below the single-core floor \
                 {SINGLE_CORE_FLOOR}x",
                widest.jobs, widest.effective_jobs, widest.speedup
            ));
        }
    }
}

/// Holds `doc` to `gate` at threshold `min_speedup`.
fn apply_gate(gate: &Gate, doc: &Json, min_speedup: f64, out: &mut Findings) {
    match *gate {
        Gate::JobsAxis(path) => gate_rows(&decode_rows(doc, path), min_speedup, out),
        Gate::Above(path) => match positive(lookup(doc, path)) {
            Some(s) if s > min_speedup => {}
            Some(s) => out.push(format!(
                "`{path}` {s:.3}x is not above the gate {min_speedup}x"
            )),
            None => out.push(format!("no `{path}` to gate on")),
        },
    }
}

fn cmd_gate(args: &[String]) -> Result<ExitCode, String> {
    let mut file = None;
    let mut min_speedup = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--min-speedup" {
            let v = iter.next().ok_or("gate: --min-speedup needs a value")?;
            let parsed = v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or(format!("gate: bad speedup `{v}`"))?;
            if min_speedup.replace(parsed).is_some() {
                return Err("gate: --min-speedup given twice".into());
            }
        } else if file.is_none() {
            file = Some(arg.as_str());
        } else {
            return Err(format!("gate: unexpected argument `{arg}`"));
        }
    }
    let file = file.ok_or("gate: FILE required")?;
    let gate = artifact(file)
        .and_then(|entry| entry.gate.as_ref())
        .ok_or(format!("gate: `{file}` is not a gateable artifact"))?;
    let min_speedup = min_speedup.ok_or("gate: --min-speedup required")?;
    let doc = load(file)?;
    let mut findings = check_doc(file, &doc);
    apply_gate(gate, &doc, min_speedup, &mut findings);
    Ok(exit_code(report(file, &findings)))
}

const USAGE: &str = "usage: bench-verify <check FILE...|gate FILE --min-speedup X>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "check" => cmd_check(rest),
        Some((cmd, rest)) if cmd == "gate" => cmd_gate(rest),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench-verify: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    fn found(path: &str, text: &str) -> Vec<String> {
        check_doc(path, &parse(text)).problems
    }

    fn has(problems: &[String], needle: &str) -> bool {
        problems.iter().any(|p| p.contains(needle))
    }

    /// `check` plus the gate of `path`'s entry at `min_speedup`.
    fn gated(path: &str, text: &str, min_speedup: f64) -> Vec<String> {
        let doc = parse(text);
        let mut findings = check_doc(path, &doc);
        let gate = artifact(path).and_then(|a| a.gate.as_ref()).unwrap();
        apply_gate(gate, &doc, min_speedup, &mut findings);
        findings.problems
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    fn ingest_doc(rows: &str) -> String {
        format!(
            r#"{{"trace_ingest": {{
                "corpus": "Euclide-3x", "episodes": 29000, "trace_bytes": 5333478,
                "available_jobs": 8, "serial_read_ns_per_iter": 40000000.0,
                "indexed_decode_by_jobs": [{rows}],
                "filtered_analysis": {{"filter": "min-lag 100ms",
                    "full_decode_ns_per_iter": 50000000.0,
                    "skip_decode_ns_per_iter": 1000000.0, "speedup": 50.0}}
            }}}}"#
        )
    }

    fn row(jobs: u32, eff: u32, speedup: f64) -> String {
        format!(
            r#"{{"jobs": {jobs}, "effective_jobs": {eff}, "ns_per_iter": 1000.0,
                "speedup_vs_serial": {speedup}}}"#
        )
    }

    #[test]
    fn check_accepts_complete_ingest() {
        let doc = parse(&ingest_doc(&[row(1, 2, 1.4), row(8, 8, 3.1)].join(",")));
        let findings = check_doc("BENCH_ingest.json", &doc);
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);
        assert!(findings.notes.is_empty(), "{:?}", findings.notes);
        let rows = decode_rows(&doc, "trace_ingest.indexed_decode_by_jobs");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn check_rejects_placeholder_keys_anywhere() {
        let problems = found(
            "BENCH_ingest.json",
            r#"{"trace_ingest": {"zz_placeholder": 1}, "zz_x": 2}"#,
        );
        assert!(has(&problems, "placeholder key `.zz_x`"));
        assert!(has(&problems, "trace_ingest.zz_placeholder"));
        // A file no entry matches gets the placeholder scan alone.
        assert_eq!(
            found("notes.json", r#"{"a": {"todo": 1}, "b": 2}"#),
            ["placeholder key `.a.todo`"]
        );
    }

    #[test]
    fn check_rejects_missing_sections_and_bad_numbers() {
        let problems = found("BENCH_ingest.json", r#"{"something_else": {}}"#);
        assert!(has(&problems, "required section `trace_ingest` is missing"));

        let problems = found("BENCH_ingest.json", &ingest_doc(&row(8, 8, 0.0)));
        assert!(has(
            &problems,
            "`trace_ingest.indexed_decode_by_jobs[0].speedup_vs_serial` = 0 (must be > 0 and \
             finite)"
        ));
        let problems = found("BENCH_ingest.json", &ingest_doc(""));
        assert!(has(
            &problems,
            "`trace_ingest.indexed_decode_by_jobs` missing or empty"
        ));
    }

    /// The two cases the old `drift` subcommand caught, now caught by
    /// `check` alone: a listed section the bench did not emit, and an
    /// emitted section nobody listed.
    #[test]
    fn check_rejects_missing_and_unlisted_sections() {
        let problems = found("target/experiments/BENCH_mining.json", &pattern_mining());
        assert_eq!(
            problems,
            ["required section `parallel_pipeline` is missing"]
        );

        let text = format!(
            r#"{{"analysis_warm": {}, "warm_extra": {{"speedup": 2.0}}}}"#,
            warm_section(3.75)
        );
        let problems = found("BENCH_warm.json", &text);
        assert_eq!(
            problems,
            ["unreviewed section `warm_extra`: the `warm` artifact does not list it"]
        );
    }

    fn corpus_doc(load_speedup: f64, mine_speedup: f64) -> String {
        format!(
            r#"{{"corpus_ingest": {{
                "corpus": "CrosswordSage-fleet", "sessions": 16, "episodes": 6400,
                "budget_ms": 500, "available_jobs": 1,
                "separate_bytes": 3000000, "corpus_bytes": 2800000,
                "load_only": {{"separate_files_ns_per_iter": 2000000.0,
                    "corpus_ns_per_iter": 1500000.0, "speedup": {load_speedup}}},
                "load_and_mine": {{"separate_files_ns_per_iter": 9000000.0,
                    "corpus_ns_per_iter": 8000000.0, "speedup": {mine_speedup}}}
            }}}}"#
        )
    }

    #[test]
    fn check_accepts_complete_corpus_and_gates_its_end_to_end_speedup() {
        let text = corpus_doc(1.3, 1.12);
        let problems = found("BENCH_corpus.json", &text);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(gated("BENCH_corpus.json", &text, 1.11).is_empty());
        assert_eq!(
            gated("BENCH_corpus.json", &text, 1.12),
            ["`corpus_ingest.load_and_mine.speedup` 1.120x is not above the gate 1.12x"]
        );
    }

    #[test]
    fn check_rejects_incomplete_corpus() {
        let problems = found("BENCH_corpus.json", r#"{"something_else": {}}"#);
        assert!(has(&problems, "`corpus_ingest` is missing"));

        let problems = found(
            "BENCH_corpus.json",
            r#"{"corpus_ingest": {"corpus": "x", "load_only": {}}}"#,
        );
        assert!(has(&problems, "load_and_mine` is missing"));
        assert!(has(&problems, "load_only.speedup"));
    }

    #[test]
    fn corpus_gate_requires_strictly_above_threshold() {
        assert!(gated("BENCH_corpus.json", &corpus_doc(1.3, 1.08), 1.0).is_empty());

        // A tie is not a win: exactly 1.0x fails the default gate.
        let problems = gated("BENCH_corpus.json", &corpus_doc(1.3, 1.0), 1.0);
        assert!(has(&problems, "not above"));

        let problems = gated("BENCH_corpus.json", r#"{"other": {}}"#, 1.0);
        assert!(has(
            &problems,
            "no `corpus_ingest.load_and_mine.speedup` to gate on"
        ));
    }

    #[test]
    fn corpus_names_never_fall_into_ingest_rules() {
        let name = |path| artifact(path).map(|a| a.name);
        assert_eq!(name("BENCH_corpus.json"), Some("corpus"));
        assert_eq!(name("target/smoke/BENCH_corpus.json"), Some("corpus"));
        assert_eq!(name("corpus_ingest.json"), Some("corpus"));
        assert_eq!(name("BENCH_ingest.json"), Some("ingest"));
        assert_eq!(name("BENCH_mining.json"), Some("mining"));
        assert_eq!(name("BENCH_warm.json"), Some("warm"));
        assert_eq!(name("target/smoke/BENCH_warm.json"), Some("warm"));
        assert_eq!(name("BENCH_hazards.json"), Some("hazard"));
        assert_eq!(name("target/smoke/BENCH_hazards.json"), Some("hazard"));
        assert_eq!(name("notes.json"), None);
    }

    fn hazards_doc(available_jobs: u32) -> String {
        format!(
            r#"{{"hazard_scan": {{
                "corpus": "jEdit-hazards", "episodes": 1200, "budget_ms": 500,
                "available_jobs": {available_jobs}, "waits": 900, "locks": 5,
                "held_edges": 7,
                "build": {{"serial_ns_per_iter": 9000000.0,
                    "sharded_ns_per_iter": 3000000.0, "speedup": 3.0}}
            }}}}"#
        )
    }

    #[test]
    fn check_validates_hazards_structure() {
        let findings = check_doc("BENCH_hazards.json", &parse(&hazards_doc(4)));
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);
        assert!(findings.notes.is_empty(), "{:?}", findings.notes);

        let problems = found("BENCH_hazards.json", r#"{"other": {}}"#);
        assert!(has(&problems, "`hazard_scan` is missing"));

        let problems = found("BENCH_hazards.json", r#"{"hazard_scan": {"corpus": "x"}}"#);
        assert!(has(&problems, "build` is missing"));
        assert!(has(&problems, "waits"));
    }

    /// A jobs speedup that had one worker is labelled, found through the
    /// worker field its table row names: the section's for the hazards
    /// build, the row's own for an ingest row.
    #[test]
    fn one_worker_speedups_are_labelled_sharding_overhead() {
        let findings = check_doc("BENCH_hazards.json", &parse(&hazards_doc(1)));
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);
        assert_eq!(
            findings.notes,
            ["`hazard_scan.build.speedup` 3.000x ran on 1 worker \
              (`hazard_scan.available_jobs`): single-core cost and sharding overhead, not \
              parallel speedup"]
        );

        let text = ingest_doc(&[row(1, 1, 1.4), row(8, 8, 3.1)].join(","));
        let findings = check_doc("BENCH_ingest.json", &parse(&text));
        assert!(findings.problems.is_empty(), "{:?}", findings.problems);
        assert_eq!(findings.notes.len(), 1, "{:?}", findings.notes);
        assert!(findings.notes[0].starts_with(
            "`trace_ingest.indexed_decode_by_jobs[0].speedup_vs_serial` 1.400x ran on 1 \
             worker (`trace_ingest.indexed_decode_by_jobs[0].effective_jobs`)"
        ));
    }

    fn warm_section(speedup: f64) -> String {
        format!(
            r#"{{
                "corpus": "jEdit-warm", "episodes": 1200, "budget_ms": 500,
                "available_jobs": 1, "trace_bytes": 1583639,
                "trace_bytes_with_rollup": 1645885,
                "analyze": {{"cold_ns_per_iter": 12000000.0,
                    "warm_ns_per_iter": 3200000.0, "speedup": {speedup}}}
            }}"#
        )
    }

    fn warm_doc(speedup: f64) -> String {
        format!(r#"{{"analysis_warm": {}}}"#, warm_section(speedup))
    }

    #[test]
    fn check_accepts_complete_warm_and_gates_its_speedup() {
        let problems = found("BENCH_warm.json", &warm_doc(3.75));
        assert!(problems.is_empty(), "{problems:?}");
        assert!(gated("BENCH_warm.json", &warm_doc(3.75), 3.74).is_empty());
        assert!(has(
            &gated("BENCH_warm.json", &warm_doc(3.75), 3.75),
            "not above"
        ));
    }

    #[test]
    fn check_rejects_incomplete_warm() {
        let problems = found("BENCH_warm.json", r#"{"something_else": {}}"#);
        assert!(has(&problems, "`analysis_warm` is missing"));

        let problems = found("BENCH_warm.json", r#"{"analysis_warm": {"corpus": "x"}}"#);
        assert!(has(&problems, "analyze` is missing"));
        assert!(has(&problems, "trace_bytes_with_rollup"));
    }

    #[test]
    fn warm_gate_requires_strictly_above_threshold() {
        assert!(gated("BENCH_warm.json", &warm_doc(3.6), 3.0).is_empty());

        let problems = gated("BENCH_warm.json", &warm_doc(3.0), 3.0);
        assert!(has(&problems, "not above"));

        let problems = gated("BENCH_warm.json", r#"{"other": {}}"#, 3.0);
        assert!(has(
            &problems,
            "no `analysis_warm.analyze.speedup` to gate on"
        ));
    }

    fn decode_row(jobs: f64, effective_jobs: f64, speedup: f64) -> DecodeRow {
        DecodeRow {
            jobs,
            effective_jobs,
            speedup,
        }
    }

    fn gate_problems(rows: &[DecodeRow]) -> Vec<String> {
        let mut findings = Findings::default();
        gate_rows(rows, 2.5, &mut findings);
        findings.problems
    }

    #[test]
    fn gate_applies_threshold_with_enough_workers() {
        let rows = [decode_row(1.0, 1.0, 1.4), decode_row(8.0, 8.0, 2.0)];
        assert!(has(&gate_problems(&rows), "below the gate"));

        let rows = [decode_row(1.0, 1.0, 1.4), decode_row(8.0, 8.0, 2.6)];
        let problems = gate_problems(&rows);
        assert!(problems.is_empty(), "{problems:?}");

        // The same rules through the ingest entry's gate.
        let text = ingest_doc(&[row(1, 1, 1.4), row(8, 8, 2.0)].join(","));
        assert!(has(
            &gated("BENCH_ingest.json", &text, 2.5),
            "below the gate"
        ));
    }

    #[test]
    fn gate_holds_single_core_floor_without_parallelism() {
        let rows = [decode_row(1.0, 1.0, 1.5), decode_row(8.0, 1.0, 1.5)];
        let problems = gate_problems(&rows);
        assert!(problems.is_empty(), "{problems:?}");

        let rows = [decode_row(8.0, 1.0, 1.0)];
        assert!(has(&gate_problems(&rows), "single-core floor"));
    }

    #[test]
    fn gate_rejects_regressions_along_the_jobs_axis() {
        let rows = [
            decode_row(1.0, 1.0, 2.0),
            decode_row(2.0, 2.0, 1.2),
            decode_row(8.0, 8.0, 2.6),
        ];
        assert!(has(&gate_problems(&rows), "regresses"));
    }

    /// `gate` on an artifact without a gate, or without a valid
    /// `--min-speedup`, is a usage error (exit 2), before any file is read.
    #[test]
    fn gate_refuses_ungated_artifacts_and_bad_thresholds() {
        for list in [
            &["BENCH_hazards.json", "--min-speedup", "1.0"][..],
            &["BENCH_mining.json", "--min-speedup", "1.0"],
            &["notes.json", "--min-speedup", "1.0"],
            &["BENCH_corpus.json"],
            &["BENCH_corpus.json", "--min-speedup"],
            &["BENCH_corpus.json", "--min-speedup", "fast"],
            &["BENCH_corpus.json", "--min-speedup", "NaN"],
            &["BENCH_corpus.json", "--min-speedup", "-1"],
            &[
                "BENCH_corpus.json",
                "--min-speedup",
                "1",
                "--min-speedup",
                "2",
            ],
            &["BENCH_corpus.json", "--threshold", "1.0"],
            &["--min-speedup", "1.0"],
        ] {
            assert!(cmd_gate(&args(list)).is_err(), "{list:?}");
        }
        assert!(cmd_check(&[]).is_err());
    }

    fn pattern_mining() -> String {
        r#"{"pattern_mining": {
            "apps": [{"app": "Jmol", "episodes": 100, "before_ns_per_iter": 10.0,
                      "after_ns_per_iter": 5.0, "speedup": 2.0}],
            "total": {"speedup": 2.0}
        }}"#
        .into()
    }

    #[test]
    fn mining_checks_both_sections() {
        let text = r#"{"parallel_pipeline": {
                "corpus": "Euclide-3x", "episodes": 29000, "budget_ms": 1500,
                "reference_serial_ns_per_iter": 13226963.1,
                "mining_by_jobs": [{"jobs": 1, "ns_per_iter": 3902160.0,
                                    "speedup_vs_reference": 3.390}]
            },"#;
        let full = format!("{text}{}", &pattern_mining()[1..]);
        let problems = found("BENCH_mining.json", &full);
        assert!(problems.is_empty(), "{problems:?}");

        let problems = found(
            "BENCH_mining.json",
            r#"{"pattern_mining": {"apps": [], "total": {}}, "parallel_pipeline": {}}"#,
        );
        assert!(has(&problems, "`pattern_mining.apps` missing or empty"));
        assert!(has(
            &problems,
            "`pattern_mining.total.speedup` missing or not a number"
        ));
        assert!(has(
            &problems,
            "`parallel_pipeline.mining_by_jobs` missing or empty"
        ));
    }
}
