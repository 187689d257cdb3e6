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
//!
//! The headline README, DESIGN and EXPERIMENTS quote is the one the study
//! is held to, read from the same constants in every build.

use lagalyzer_bench::full_study;
use lagalyzer_report::compare;

/// Table III quantities the study compares with the paper.
const QUANTITIES: usize = 154;
/// Those the seed-42 study lands within 15% of the paper.
const WITHIN_15: usize = 150;
/// Those it lands within 50% of the paper.
const WITHIN_50: usize = 154;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode study; see the module docs")]
fn seed_42_study_reproduces_table_iii() {
    let comparisons = compare::table3_comparisons(&full_study());
    assert_eq!(
        compare::summary(&comparisons, 0.15),
        format!("{WITHIN_15}/{QUANTITIES} quantities within 15% of the paper")
    );
    assert_eq!(
        compare::summary(&comparisons, 0.50),
        format!("{WITHIN_50}/{QUANTITIES} quantities within 50% of the paper")
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

/// Every count `text` quotes as `N of 154` or `N/154`.
fn quoted_counts(text: &str) -> Vec<usize> {
    let mut counts = Vec::new();
    for needle in [format!(" of {QUANTITIES}"), format!("/{QUANTITIES}")] {
        for (at, _) in text.match_indices(&needle) {
            let digits = text[..at].bytes().rev().take_while(u8::is_ascii_digit);
            counts.extend(text[at - digits.count()..at].parse::<usize>());
        }
    }
    counts
}

/// README, DESIGN and EXPERIMENTS quote the Table III headline the
/// release test asserts, and no other count of its quantities.
#[test]
fn docs_quote_the_asserted_table_iii_headline() {
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
        let counts = quoted_counts(&text);
        assert!(counts.contains(&WITHIN_15), "{doc} quotes {counts:?}");
        assert!(
            counts.iter().all(|n| [WITHIN_15, WITHIN_50].contains(n)),
            "{doc} quotes {counts:?}, not {WITHIN_15} or {WITHIN_50} of {QUANTITIES}"
        );
    }
}
