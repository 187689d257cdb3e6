//! Validates the hazard rule family against scripted scenarios with a
//! *known injected hazard*: the ABBA inversion must surface as `LA020`
//! with both lock identities and both culprit threads, the
//! held-lock-over-IO episodes as `LA021`, and the consistent-order
//! control must stay hazard-free. A precision/recall gate over the
//! whole injected corpus (like the outlier analyzer's) keeps the rules
//! honest in both directions.

use lagalyzer_check::hazards::{HazardConfig, HazardReport};
use lagalyzer_check::{CheckSubject, Diagnostic, RuleSet};
use lagalyzer_sim::scenarios::{abba_inversion, hazard_control, hazard_truths, held_lock_io};

fn analyze(trace: &lagalyzer_model::SessionTrace) -> HazardReport {
    HazardReport::analyze(trace, None, 1, &HazardConfig::default())
}

fn hazard_findings(report: &HazardReport) -> Vec<&Diagnostic> {
    report.findings.iter().collect()
}

#[test]
fn abba_inversion_reported_with_identities_and_culprits() {
    let truth = abba_inversion();
    let report = analyze(&truth.trace);
    let la020: Vec<_> = report
        .findings
        .iter()
        .filter(|d| d.code == "LA020")
        .collect();
    assert_eq!(la020.len(), 1, "exactly one inversion cycle: {report:?}");
    for lock in &truth.locks {
        assert!(
            la020[0].message.contains(lock),
            "message names lock {lock}: {}",
            la020[0].message
        );
    }
    let notes: String = la020[0]
        .related
        .iter()
        .map(|r| r.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    for culprit in &truth.culprits {
        assert!(
            notes.contains(culprit),
            "edge notes name culprit {culprit}: {notes}"
        );
    }
    // Nothing else fires on this scenario.
    assert!(report.findings.iter().all(|d| d.code == "LA020"));

    // Through the ordinary check engine the inversion is an error: the
    // 0/1/2/3 contract reports exit 2.
    let check = RuleSet::standard().run(&CheckSubject::of_trace(&truth.trace));
    assert!(check.diagnostics().iter().any(|d| d.code == "LA020"));
    assert_eq!(check.exit_code(), 2);
}

#[test]
fn held_lock_over_io_reported_on_injected_episodes() {
    let truth = held_lock_io();
    let report = analyze(&truth.trace);
    let flagged: Vec<_> = report
        .findings
        .iter()
        .filter(|d| d.code == "LA021")
        .filter_map(|d| d.episode_id)
        .collect();
    assert_eq!(flagged, truth.injected, "LA021 flags exactly the injected");
    let first = report
        .findings
        .iter()
        .find(|d| d.code == "LA021")
        .expect("LA021 present");
    assert!(first.message.contains("com.app.sync.OrderA.enter"));
    assert!(first.message.contains("t9"));
    assert!(first.message.contains("java.io.RandomAccessFile.readBytes"));
    assert!(report.findings.iter().all(|d| d.code == "LA021"));

    let check = RuleSet::standard().run(&CheckSubject::of_trace(&truth.trace));
    assert!(check.diagnostics().iter().any(|d| d.code == "LA021"));
    assert_eq!(check.exit_code(), 1, "warnings exit 1 under check");
}

#[test]
fn control_scenario_stays_hazard_free() {
    let truth = hazard_control();
    let report = analyze(&truth.trace);
    assert_eq!(
        report.verdict(),
        "clean",
        "consistent-order contention is not a hazard: {:?}",
        report.findings
    );
    assert!(report.findings.is_empty());
    // The graph still has real structure — the rules are discriminating,
    // not blind.
    assert!(report.waits > 0, "control scenario is genuinely contended");
    assert!(report.held_edges > 0);
}

/// Precision/recall over the injected corpus. A hazard unit is one
/// injected inversion cycle (ABBA) or one injected held-over-IO
/// episode; any finding not attributable to an injection — including
/// anything on the control — counts against precision.
#[test]
fn precision_and_recall_gate() {
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fnd = 0usize;
    for truth in hazard_truths() {
        let report = analyze(&truth.trace);
        match truth.expected_code {
            Some("LA020") => {
                let cycles = report.findings.iter().filter(|d| d.code == "LA020").count();
                if cycles >= 1 {
                    tp += 1;
                    fp += cycles - 1;
                } else {
                    fnd += 1;
                }
                fp += report.findings.iter().filter(|d| d.code != "LA020").count();
            }
            Some(code) => {
                for id in &truth.injected {
                    if report
                        .findings
                        .iter()
                        .any(|d| d.code == code && d.episode_id == Some(*id))
                    {
                        tp += 1;
                    } else {
                        fnd += 1;
                    }
                }
                fp += report
                    .findings
                    .iter()
                    .filter(|d| {
                        d.code != code
                            || !d.episode_id.is_some_and(|id| truth.injected.contains(&id))
                    })
                    .count();
            }
            None => fp += hazard_findings(&report).len(),
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fnd).max(1) as f64;
    assert!(
        precision >= 0.9,
        "precision {precision} (tp {tp}, fp {fp}) below the 0.9 gate"
    );
    assert!(
        recall >= 0.9,
        "recall {recall} (tp {tp}, fn {fnd}) below the 0.9 gate"
    );
    assert!(tp > 0, "the gate actually saw injected hazards");
}

/// The report must be byte-identical for any worker count, over every
/// scenario, in both output formats.
#[test]
fn reports_are_byte_identical_across_jobs() {
    let config = HazardConfig::default();
    for truth in hazard_truths() {
        let serial = HazardReport::analyze(&truth.trace, None, 1, &config);
        for jobs in [2, 5] {
            let sharded = HazardReport::analyze(&truth.trace, None, jobs, &config);
            assert_eq!(
                sharded.render_text(truth.title),
                serial.render_text(truth.title),
                "{}: text drifted at jobs={jobs}",
                truth.title
            );
            assert_eq!(
                sharded.render_json(truth.title),
                serial.render_json(truth.title),
                "{}: json drifted at jobs={jobs}",
                truth.title
            );
        }
    }
}

/// In a corpus, each member's findings are exactly its single-session
/// findings, prefixed `s{i}: ` and without byte spans. The corpus table
/// is seeded with the inversion scenario's symbols so its locks keep
/// their ids, and with them the rotation of the cycle the message shows.
#[test]
fn corpus_findings_are_each_members_findings_prefixed() {
    let config = HazardConfig::default();
    let members = [
        hazard_control().trace,
        abba_inversion().trace,
        held_lock_io().trace,
    ];
    let mut want = Vec::new();
    for (i, trace) in members.iter().enumerate() {
        for d in analyze(trace).findings {
            want.push((d.code, format!("s{i}: {}", d.message)));
        }
    }
    assert!(!want.is_empty(), "the scenarios inject hazards");
    let mut symbols = members[1].symbols().clone();
    let corpus = HazardReport::analyze_corpus(&members, &mut symbols, 2, &config);
    let got: Vec<_> = corpus
        .findings
        .iter()
        .filter(|d| d.code != "LA025")
        .map(|d| (d.code, d.message.clone()))
        .collect();
    assert_eq!(got, want);
    assert!(corpus.findings.iter().all(|d| d.byte_span.is_none()));
    let episodes: usize = members.iter().map(|t| t.episodes().len()).sum();
    assert_eq!((corpus.episodes, corpus.sessions), (episodes, Some(3)));
}

/// Round-trip through the binary codec: spans come from the extent
/// index, and findings survive serialization.
#[test]
fn binary_round_trip_keeps_findings_and_adds_spans() {
    let truth = abba_inversion();
    let mut bytes = Vec::new();
    lagalyzer_trace::binary::write(&truth.trace, &mut bytes).unwrap();
    let indexed = lagalyzer_trace::IndexedTrace::open(bytes).unwrap();
    let trace = indexed.par_decode(1).unwrap();
    let report =
        HazardReport::analyze(&trace, Some(indexed.extents()), 2, &HazardConfig::default());
    let la020 = report
        .findings
        .iter()
        .find(|d| d.code == "LA020")
        .expect("inversion survives the codec");
    assert!(
        la020.byte_span.is_some(),
        "extent index provides byte-span provenance"
    );
    assert_eq!(la020.episode_id, Some(truth.injected[0]));
}
