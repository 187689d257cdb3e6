//! The extension API for custom analyses (paper §II-A: "Developers who
//! want to write their own analysis can implement it using the
//! straightforward API provided by the core").
//!
//! An analysis is an [`Analysis`]: a mergeable per-episode step. The
//! built-in ones are folds of this shape: the rollup
//! ([`crate::rollup::RollupBuilder`]), the Figs 5–8 characterization
//! ([`crate::aggregate::Characterize`]) and the session lock graph
//! ([`lagalyzer_model::LockGraphs`]). Two drivers run any of them:
//! `SessionSource::fold` over a `.lgz` or corpus member as it decodes, on
//! `--jobs` workers and under an ingest filter, and [`fold_episodes`] over
//! episodes already in memory. Each call sees the session it folds
//! through a [`Scope`], so the analysis value borrows no session.
//!
//! ```
//! use lagalyzer_core::analysis::{fold_episodes, Analysis, Scope};
//! use lagalyzer_model::{DurationNs, Episode};
//! use lagalyzer_sim::{apps, runner};
//! use lagalyzer_trace::{binary, EpisodeFilter, IndexedTrace};
//!
//! /// Counts episodes longer than one second.
//! struct ExtremeLag;
//!
//! impl Analysis for ExtremeLag {
//!     type Shard = usize;
//!     type Output = usize;
//!     fn shard(&self, _: Scope<'_>) -> usize {
//!         0
//!     }
//!     fn push(&self, _: Scope<'_>, count: &mut usize, _: usize, episode: &Episode) {
//!         *count += usize::from(episode.duration() >= DurationNs::from_secs(1));
//!     }
//!     fn finish(&self, _: Scope<'_>, counts: Vec<usize>) -> usize {
//!         counts.iter().sum()
//!     }
//! }
//!
//! # fn main() -> Result<(), lagalyzer_trace::TraceError> {
//! let trace = runner::simulate_session(&apps::crossword_sage(), 0, 1);
//! let mut bytes = Vec::new();
//! binary::write(&trace, &mut bytes)?;
//! let indexed = IndexedTrace::open(bytes)?;
//! let folded = indexed
//!     .source()
//!     .fold(2, &EpisodeFilter::default(), &ExtremeLag)?;
//! let scope = Scope::of_trace(&trace);
//! assert_eq!(folded, fold_episodes(&ExtremeLag, scope, trace.episodes(), 1));
//! assert!(folded <= trace.episodes().len());
//! # Ok(())
//! # }
//! ```

pub use lagalyzer_model::analysis::{fold_episodes, Analysis, Scope};
