//! Rule-based semantic checker for decoded traces.
//!
//! LagAlyzer's analyses assume invariants the tracer is supposed to
//! guarantee: intervals of a thread are properly nested per episode
//! (paper §II-A), sampling is suppressed during stop-the-world GC
//! (§IV-B), sub-3 ms episodes are filtered with only a count surviving
//! (§IV-A). Salvage-mode decoding and index reconstruction deliberately
//! admit traces where those assumptions may be violated. This crate
//! turns that one-bit "salvaged" footnote into a compiler-style lint
//! pass: a configurable [`RuleSet`] of [`Rule`]s, each with a stable
//! code (`LA001`…) and default [`Severity`], visits the decoded
//! episodes once and emits [`Diagnostic`]s whose byte spans point back
//! into the raw `.lgz` file (threaded from the episode extent index and
//! from salvage skip offsets).
//!
//! # Example
//!
//! ```
//! use lagalyzer_check::{check_bytes, RuleSet};
//! use lagalyzer_model::prelude::*;
//! use lagalyzer_trace::binary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let meta = SessionMeta {
//!     application: "Demo".into(),
//!     session: SessionId::from_raw(0),
//!     gui_thread: ThreadId::from_raw(0),
//!     end_to_end: DurationNs::from_secs(1),
//!     filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
//! };
//! let trace = SessionTraceBuilder::new(meta, SymbolTable::new()).finish();
//! let mut bytes = Vec::new();
//! binary::write(&trace, &mut bytes)?;
//!
//! let report = check_bytes(bytes, &mut RuleSet::standard())?;
//! assert!(report.is_clean());
//! assert_eq!(report.exit_code(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod hazards;
pub mod rules;

pub use diag::{ByteSpan, CheckReport, Diagnostic, Related, Severity};
pub use engine::{CheckSubject, EpisodeCtx, Finding, Rule, RuleSet, Sink, UnknownRule};
pub use hazards::{HazardConfig, HazardReport};
pub use rules::standard_rules;

use lagalyzer_model::SessionTrace;
use lagalyzer_trace::{decode_bytes_salvage, IndexedTrace, TraceError};

/// Checks an already-decoded trace with no file provenance (no byte
/// spans, no salvage or index context).
pub fn check_trace(trace: &SessionTrace, rules: &mut RuleSet) -> CheckReport {
    rules.run(&CheckSubject::of_trace(trace))
}

/// Checks raw trace bytes of either codec, salvage-decoded by
/// [`decode_bytes_salvage`] (the decode `lint` reports on), which takes
/// over the buffer: the input is opened once and never copied. The rollup
/// section's health is the one that open judged.
///
/// A binary trace's diagnostics get episode byte spans from the extent
/// table, plus salvage-skip, index and checksum context; a text trace's
/// skips carry line numbers in their messages instead of spans.
///
/// # Errors
///
/// Fails only when the input is unrecoverable — neither codec can
/// establish the session at all. Everything less severe is reported as
/// diagnostics, not as an error.
pub fn check_bytes(bytes: Vec<u8>, rules: &mut RuleSet) -> Result<CheckReport, TraceError> {
    let file_len = bytes.len() as u64;
    let (salvaged, indexed) = decode_bytes_salvage(bytes, 1)?;
    let subject = CheckSubject {
        trace: &salvaged.trace,
        extents: indexed.as_ref().map(IndexedTrace::extents),
        health: indexed.as_ref().map(IndexedTrace::health),
        salvage: Some(&salvaged.report),
        file_len: Some(file_len),
        rollup: indexed.as_ref().and_then(IndexedTrace::rollup_health),
    };
    Ok(rules.run(&subject))
}
