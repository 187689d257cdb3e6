//! The paper's §IV reproduction, pinned: the seed-42 full study (14
//! applications × 4 sessions, the study `table3` prints) held to Table III
//! through `compare::summary`, with the cells more than 15% off named, so
//! a change that shifts a tally fails here. The study takes seconds in a
//! release build and far longer in a debug one, so a debug `cargo test`
//! skips it; CI runs
//!
//! ```text
//! cargo test --release --locked -p lagalyzer-bench --test reproduction
//! ```

use lagalyzer_bench::full_study;
use lagalyzer_report::compare;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode study; see the module docs")]
fn seed_42_study_reproduces_table_iii() {
    let comparisons = compare::table3_comparisons(&full_study());
    assert_eq!(
        compare::summary(&comparisons, 0.15),
        "150/154 quantities within 15% of the paper"
    );
    assert_eq!(
        compare::summary(&comparisons, 0.50),
        "154/154 quantities within 50% of the paper"
    );
    let off: Vec<&str> = comparisons
        .iter()
        .filter(|c| (c.ratio() - 1.0).abs() > 0.15)
        .map(|c| c.label.as_str())
        .collect();
    assert_eq!(
        off,
        [
            "Euclide Long/min",
            "JFreeChart Descs",
            "JMol Descs",
            "SwingSet >= 100ms"
        ]
    );
}
