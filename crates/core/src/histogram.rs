//! Episode-duration histograms.
//!
//! The related work the paper builds on (Endo et al., OSDI '96) reports
//! response-time *distributions* — "Word handles 92% of requests in under
//! 100 ms". This module provides that view over a session: logarithmic
//! duration buckets with counts and cumulative fractions, including the
//! episodes the tracer filtered out (which all fall below the first
//! visible bucket but still belong in the distribution).

use lagalyzer_model::DurationNs;

/// One histogram bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: DurationNs,
    /// Exclusive upper bound. The last bucket has none: it reports
    /// `DurationNs::from_nanos(u64::MAX)` and also holds episodes of
    /// exactly that duration.
    pub hi: DurationNs,
    /// Episodes in `[lo, hi)` (`[lo, inf)` for the last bucket).
    pub count: u64,
}

/// A logarithmic (powers of two of a millisecond) duration histogram.
///
/// ```
/// use lagalyzer_core::prelude::*;
/// use lagalyzer_sim::{apps, runner};
///
/// let session = AnalysisSession::new(
///     runner::simulate_session(&apps::jedit(), 0, 1),
///     AnalysisConfig::default(),
/// );
/// let histogram = Summaries::of_session(&session).histogram();
/// // jEdit handles the vast majority of requests imperceptibly fast.
/// assert!(histogram.fraction_under(lagalyzer_model::DurationNs::from_millis(128)) > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct DurationHistogram {
    buckets: Vec<Bucket>,
    filtered: u64,
    total: u64,
}

impl DurationHistogram {
    /// Builds the histogram from traced episode durations plus the count
    /// of tracer-filtered short episodes, which are accounted as
    /// below-range mass. [`Summaries::histogram`] feeds it a session's
    /// summaries, decoded or persisted.
    ///
    /// [`Summaries::histogram`]: crate::summary::Summaries::histogram
    pub fn of_durations<I>(durations: I, filtered: u64) -> DurationHistogram
    where
        I: IntoIterator<Item = DurationNs>,
    {
        // Buckets: [0,1ms), [1,2), [2,4), ... up to [8192ms, inf).
        let mut bounds = vec![0u64, 1];
        while *bounds.last().expect("non-empty") < 8192 {
            let last = *bounds.last().expect("non-empty");
            bounds.push(last * 2);
        }
        let mut buckets: Vec<Bucket> = bounds
            .windows(2)
            .map(|w| Bucket {
                lo: DurationNs::from_millis(w[0]),
                hi: DurationNs::from_millis(w[1]),
                count: 0,
            })
            .collect();
        buckets.push(Bucket {
            lo: DurationNs::from_millis(*bounds.last().expect("non-empty")),
            hi: DurationNs::from_nanos(u64::MAX),
            count: 0,
        });
        let mut traced = 0u64;
        for d in durations {
            // The first bucket starts at zero, so some bucket's lower bound
            // is always at or below `d`; the last one is unbounded above.
            let idx = buckets.partition_point(|b| b.lo <= d) - 1;
            buckets[idx].count += 1;
            traced += 1;
        }
        let total = filtered + traced;
        DurationHistogram {
            buckets,
            filtered,
            total,
        }
    }

    /// The buckets, in ascending duration order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Episodes below the tracer filter (all shorter than the threshold).
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Total episodes including the filtered ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fraction of all episodes (including filtered ones) handled in
    /// under `threshold` — the Endo-style statistic. Filtered episodes
    /// count as under any threshold at or above the tracer filter.
    pub fn fraction_under(&self, threshold: DurationNs) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let traced_under: u64 = self
            .buckets
            .iter()
            .filter(|b| b.hi <= threshold)
            .map(|b| b.count)
            .sum();
        // Partial bucket: count nothing (conservative) — callers use the
        // bucket bounds as thresholds in practice.
        (self.filtered + traced_under) as f64 / self.total as f64
    }

    /// Renders an ASCII bar chart of the traced buckets.
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self
            .buckets
            .iter()
            .map(|b| b.count)
            .max()
            .unwrap_or(0)
            .max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{} episodes below the tracer filter (not bucketed)\n",
            self.filtered
        ));
        for b in &self.buckets {
            if b.count == 0 {
                continue;
            }
            let bar = (b.count as f64 / max as f64 * width as f64).round() as usize;
            let hi = if b.hi.as_nanos() == u64::MAX {
                "inf".to_owned()
            } else {
                b.hi.to_string()
            };
            out.push_str(&format!(
                "{:>7} .. {:<7} {:>7} {}\n",
                b.lo.to_string(),
                hi,
                b.count,
                "#".repeat(bar.max(1))
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram of `durations_ms` plus `filtered` short episodes.
    fn histogram(durations_ms: &[u64], filtered: u64) -> DurationHistogram {
        DurationHistogram::of_durations(
            durations_ms.iter().map(|&ms| DurationNs::from_millis(ms)),
            filtered,
        )
    }

    #[test]
    fn buckets_partition_all_traced_episodes() {
        let h = histogram(&[3, 5, 9, 17, 120, 9000, 20000], 50);
        let bucketed: u64 = h.buckets().iter().map(|b| b.count).sum();
        assert_eq!(bucketed, 7);
        assert_eq!(h.filtered(), 50);
        assert_eq!(h.total(), 57);
    }

    #[test]
    fn bucket_bounds_are_contiguous_powers_of_two() {
        let h = histogram(&[], 0);
        for pair in h.buckets().windows(2) {
            assert_eq!(pair[0].hi, pair[1].lo);
        }
        assert_eq!(h.buckets()[0].lo, DurationNs::ZERO);
        assert_eq!(h.buckets()[1].lo, DurationNs::from_millis(1));
        assert_eq!(h.buckets()[2].lo, DurationNs::from_millis(2));
        let last = h.buckets().last().unwrap();
        assert_eq!(last.lo, DurationNs::from_millis(8192));
        assert_eq!(last.hi, DurationNs::from_nanos(u64::MAX));
    }

    #[test]
    fn top_bucket_is_unbounded() {
        let h = DurationHistogram::of_durations([DurationNs::from_nanos(u64::MAX)], 0);
        assert_eq!(h.buckets().last().unwrap().count, 1);
        assert!(h.to_ascii(10).contains("8.19s .. inf"));
    }

    #[test]
    fn episodes_land_in_the_right_buckets() {
        let h = histogram(&[3, 120], 0);
        // 3 ms falls in [2, 4); 120 ms in [64, 128).
        let b3 = h
            .buckets()
            .iter()
            .find(|b| b.lo == DurationNs::from_millis(2))
            .unwrap();
        assert_eq!(b3.count, 1);
        let b120 = h
            .buckets()
            .iter()
            .find(|b| b.lo == DurationNs::from_millis(64))
            .unwrap();
        assert_eq!(b120.count, 1);
    }

    #[test]
    fn endo_style_fraction() {
        // 90 filtered + 8 fast + 2 slow: 98% under 100 ms... here: under
        // 128 ms (bucket boundary).
        let h = histogram(&[10, 10, 10, 10, 10, 10, 10, 10, 500, 900], 90);
        let under = h.fraction_under(DurationNs::from_millis(128));
        assert!((under - 0.98).abs() < 1e-9, "{under}");
        assert_eq!(h.fraction_under(DurationNs::ZERO), 0.9, "filtered only");
    }

    #[test]
    fn empty_session() {
        let h = histogram(&[], 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction_under(DurationNs::from_secs(1)), 0.0);
        assert!(h.to_ascii(40).contains("0 episodes below"));
    }

    #[test]
    fn ascii_renders_nonempty_buckets_only() {
        let art = histogram(&[5, 5, 5, 300], 10).to_ascii(40);
        assert!(art.contains("4ms"));
        assert!(art.contains('#'));
        // Empty buckets (e.g. the 8 s one) are elided.
        assert!(!art.contains("8.19s"));
    }
}
