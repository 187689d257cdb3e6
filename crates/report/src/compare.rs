//! Paper-vs-measured comparison (feeds `EXPERIMENTS.md`).

use std::fmt::Write as _;

use crate::paper;
use crate::study::Study;
use crate::table::{Align, TextTable};

/// One compared quantity.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// What is compared (e.g. "JMol ≥100ms").
    pub label: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Measured / paper, or 0 when the paper value is 0.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            0.0
        } else {
            self.measured / self.paper
        }
    }
}

/// Compares every Table III cell of the study against the paper.
pub fn table3_comparisons(study: &Study) -> Vec<Comparison> {
    let mut out = Vec::new();
    for app in &study.apps {
        let Some(row) = paper::table3_row(&app.aggregate.name) else {
            continue;
        };
        let s = &app.aggregate.stats;
        push(
            &mut out,
            &app.aggregate.name,
            "E2E [s]",
            row.e2e_secs as f64,
            s.e2e_secs,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "In-Eps [%]",
            row.in_eps_pct as f64,
            s.in_episode_fraction * 100.0,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "< 3ms",
            row.short as f64,
            s.short_count,
        );
        push(
            &mut out,
            &app.aggregate.name,
            ">= 3ms",
            row.traced as f64,
            s.traced_count,
        );
        push(
            &mut out,
            &app.aggregate.name,
            ">= 100ms",
            row.perceptible as f64,
            s.perceptible_count,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "Long/min",
            row.long_per_min as f64,
            s.long_per_minute,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "Dist",
            row.dist as f64,
            s.distinct_patterns,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "#Eps",
            row.eps as f64,
            s.episodes_in_patterns,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "One-Ep [%]",
            row.one_ep_pct as f64,
            s.singleton_fraction * 100.0,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "Descs",
            row.descs as f64,
            s.mean_tree_size,
        );
        push(
            &mut out,
            &app.aggregate.name,
            "Depth",
            row.depth as f64,
            s.mean_tree_depth,
        );
    }
    out
}

fn push(out: &mut Vec<Comparison>, app: &str, col: &str, paper: f64, measured: f64) {
    out.push(Comparison {
        label: format!("{app} {col}"),
        paper,
        measured,
    });
}

/// Renders comparisons as a text table with ratios.
pub fn render(comparisons: &[Comparison]) -> String {
    let mut t = TextTable::new(&[
        ("quantity", Align::Left),
        ("paper", Align::Right),
        ("measured", Align::Right),
        ("ratio", Align::Right),
    ]);
    for c in comparisons {
        t.row(&[
            c.label.clone(),
            format!("{:.1}", c.paper),
            format!("{:.1}", c.measured),
            format!("{:.2}", c.ratio()),
        ]);
    }
    t.render()
}

/// A one-line verdict summarizing how many comparisons land within the
/// given relative tolerance.
pub fn summary(comparisons: &[Comparison], tolerance: f64) -> String {
    let within = comparisons
        .iter()
        .filter(|c| (c.ratio() - 1.0).abs() <= tolerance)
        .count();
    let mut out = String::new();
    let _ = write!(
        out,
        "{within}/{} quantities within {:.0}% of the paper",
        comparisons.len(),
        tolerance * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_sim::apps;

    #[test]
    fn comparisons_cover_all_columns() {
        let study = Study::run(&[apps::crossword_sage()], 1, 3);
        let comparisons = table3_comparisons(&study);
        assert_eq!(comparisons.len(), 11);
        assert!(comparisons.iter().any(|c| c.label.contains(">= 100ms")));
    }

    #[test]
    fn exact_columns_have_ratio_one() {
        let study = Study::run(&[apps::laoe()], 1, 3);
        let comparisons = table3_comparisons(&study);
        let short = comparisons
            .iter()
            .find(|c| c.label.contains("< 3ms"))
            .unwrap();
        assert!((short.ratio() - 1.0).abs() < 1e-9, "short-count is exact");
        let e2e = comparisons
            .iter()
            .find(|c| c.label.contains("E2E"))
            .unwrap();
        assert!((e2e.ratio() - 1.0).abs() < 0.05);
    }

    #[test]
    fn render_and_summary() {
        let comparisons = vec![
            Comparison {
                label: "x".into(),
                paper: 100.0,
                measured: 105.0,
            },
            Comparison {
                label: "y".into(),
                paper: 100.0,
                measured: 300.0,
            },
        ];
        let table = render(&comparisons);
        assert!(table.contains("1.05"));
        assert!(table.contains("3.00"));
        assert_eq!(
            summary(&comparisons, 0.10),
            "1/2 quantities within 10% of the paper"
        );
    }

    #[test]
    fn zero_paper_value_ratio() {
        let c = Comparison {
            label: "z".into(),
            paper: 0.0,
            measured: 5.0,
        };
        assert_eq!(c.ratio(), 0.0);
    }
}
