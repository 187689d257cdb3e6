//! Core data model for latency traces of interactive applications.
//!
//! This crate defines the vocabulary shared by the whole LagAlyzer toolkit:
//! nanosecond [`time`] stamps, interned [`symbols`] for class and method
//! names, typed [`interval`]s, properly nested [`tree::IntervalTree`]s,
//! call-stack [`sample`]s with thread states, [`episode::Episode`]s (one per
//! handled user request) and whole-session [`session::SessionTrace`]s.
//!
//! The model mirrors the trace content produced by the LiLa listener-latency
//! profiler as described in the LagAlyzer paper (ISPASS 2010), §II-A:
//! listener notifications, graphics rendering, native calls,
//! background-thread event dispatches, garbage collections, and periodic
//! call-stack samples of all threads.
//!
//! # Example
//!
//! ```
//! use lagalyzer_model::prelude::*;
//!
//! # fn main() -> Result<(), lagalyzer_model::ModelError> {
//! let mut symbols = SymbolTable::new();
//! let paint = symbols.method("javax.swing.JFrame", "paint");
//!
//! let mut builder = IntervalTreeBuilder::new();
//! builder.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(0))?;
//! builder.enter(IntervalKind::Paint, Some(paint), TimeNs::from_millis(1))?;
//! builder.exit(TimeNs::from_millis(140))?;
//! builder.exit(TimeNs::from_millis(141))?;
//! let tree = builder.finish()?;
//!
//! assert_eq!(tree.root_interval().duration(), DurationNs::from_millis(141));
//! assert_eq!(tree.descendant_count(tree.root()), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod episode;
pub mod error;
pub mod ids;
pub mod interval;
pub mod json;
pub mod lockgraph;
pub mod parallel;
pub mod sample;
pub mod session;
pub mod symbols;
pub mod time;
pub mod tree;
pub mod waitgraph;

pub use analysis::{fold_episodes, Analysis, Scope};
pub use episode::{Episode, EpisodeBuilder};
pub use error::ModelError;
pub use ids::{EpisodeId, NodeId, SessionId, SymbolId, ThreadId};
pub use interval::{Interval, IntervalKind};
pub use json::json_string;
pub use lockgraph::{ContendedWait, HolderSight, LockGraph, LockGraphs, WaitKind};
pub use sample::{
    SampleSnapshot, Samples, SnapshotIter, SnapshotView, StackFrame, ThreadIter, ThreadSample,
    ThreadState, ThreadView,
};
pub use session::{GcEvent, SessionMeta, SessionTrace, SessionTraceBuilder};
pub use symbols::{CodeOrigin, MethodRef, OriginClassifier, SymbolTable};
pub use time::{DurationNs, TimeNs};
pub use tree::{IntervalTree, IntervalTreeBuilder, PreOrder};
pub use waitgraph::{HolderProfile, WaitGraph};

/// Convenient glob import for downstream users.
///
/// ```
/// use lagalyzer_model::prelude::*;
/// let t = TimeNs::from_millis(100);
/// assert_eq!(t.as_nanos(), 100_000_000);
/// ```
pub mod prelude {
    pub use crate::episode::{Episode, EpisodeBuilder};
    pub use crate::error::ModelError;
    pub use crate::ids::{EpisodeId, NodeId, SessionId, SymbolId, ThreadId};
    pub use crate::interval::{Interval, IntervalKind};
    pub use crate::lockgraph::{ContendedWait, HolderSight, LockGraph, WaitKind};
    pub use crate::sample::{
        SampleSnapshot, Samples, SnapshotView, StackFrame, ThreadSample, ThreadState, ThreadView,
    };
    pub use crate::session::{GcEvent, SessionMeta, SessionTrace, SessionTraceBuilder};
    pub use crate::symbols::{CodeOrigin, MethodRef, OriginClassifier, SymbolTable};
    pub use crate::time::{DurationNs, TimeNs};
    pub use crate::tree::{IntervalTree, IntervalTreeBuilder};
    pub use crate::waitgraph::{HolderProfile, WaitGraph};
}
