//! Test support shared by the CLI suites: the `stable` and `diff`
//! reports, rendered as the CLI prints them from the library's pattern
//! sets.

use lagalyzer_core::{MultiPatternSet, SessionDiff, ShapeSignature};

/// The `stable` report, rendered as the CLI prints it.
pub fn stable_text(multi: &MultiPatternSet) -> String {
    let mut out = format!(
        "{} traces, {} merged patterns ({} recurring in every trace)\n\
         stable slow patterns (perceptible wherever they occur):\n",
        multi.sessions(),
        multi.len(),
        multi.recurring().count()
    );
    let problems = multi.stable_problems();
    for (i, p) in problems.iter().take(15).enumerate() {
        let sig: String = p.signature().as_str().chars().take(70).collect();
        out.push_str(&format!(
            "  {i:>2}. {:>4} episodes / {:>3} perceptible, total {} — {sig}\n",
            p.total_episodes(),
            p.total_perceptible(),
            p.total_lag(),
        ));
    }
    if problems.is_empty() {
        out.push_str("  (none)\n");
    }
    out
}

/// The `diff` report, rendered as the CLI prints it.
pub fn diff_text(diff: &SessionDiff) -> String {
    const TOLERANCE: f64 = 0.20;
    let trim = |sig: &ShapeSignature| -> String { sig.as_str().chars().take(64).collect() };
    let mut out = format!("{}\n", diff.summary(TOLERANCE));
    let sections = [
        (
            "regressions (mean lag, perceptible count)",
            diff.regressions(TOLERANCE),
        ),
        ("improvements", diff.improvements(TOLERANCE)),
    ];
    for (title, deltas) in sections {
        if !deltas.is_empty() {
            out.push_str(&format!("\n{title}:\n"));
        }
        for d in deltas.iter().take(10) {
            out.push_str(&format!(
                "  {} -> {}  ({} -> {} perceptible)  {}\n",
                d.baseline_mean,
                d.candidate_mean,
                d.baseline_perceptible,
                d.candidate_perceptible,
                trim(&d.signature)
            ));
        }
    }
    for (title, patterns) in [("new", &diff.appeared), ("disappeared", &diff.disappeared)] {
        if !patterns.is_empty() {
            out.push_str(&format!("\n{title} patterns (episodes, perceptible):\n"));
        }
        for (sig, eps, perc) in patterns.iter().take(10) {
            out.push_str(&format!("  {eps:>5} {perc:>4}  {}\n", trim(sig)));
        }
    }
    out
}
