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
//! from salvage skip offsets). [`check_bytes`] runs the rules as a fold
//! over a `.lgz` as it decodes, holding one decoded episode at a time.
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
pub use engine::{CheckSubject, EpisodeCtx, Finding, Rule, RuleSet, SessionCtx, Sink, UnknownRule};
pub use hazards::{HazardConfig, HazardReport};
pub use rules::standard_rules;

use lagalyzer_model::SessionTrace;
use lagalyzer_trace::{binary, read_bytes_salvage, EpisodeFilter, IndexedTrace, TraceError};

/// Checks an already-decoded trace with no file provenance (no byte
/// spans, no salvage or index context).
pub fn check_trace(trace: &SessionTrace, rules: &mut RuleSet) -> CheckReport {
    rules.run(&CheckSubject::of_trace(trace))
}

/// Checks raw trace bytes of either codec, salvage-opened as `lint`
/// opens them, which takes over the buffer: the input is opened once and
/// never copied. A binary trace's episodes are folded through the rules
/// one at a time on one worker by [`IndexedTrace::fold_verified`], so the
/// report is the one [`RuleSet::run`] gives over the whole trace
/// salvage-decoded into memory: a trusted open whose episodes do not
/// decode or add up to the declared record count is reopened through the
/// salvage scan and checked again with fresh rules.
/// The rollup section's health is the one the open judged. A text trace
/// has no extent index and is checked in memory.
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
    let file_len = Some(bytes.len() as u64);
    if !bytes.starts_with(binary::MAGIC_PREFIX) {
        let salvaged = read_bytes_salvage(&bytes)?;
        return Ok(rules.run(&CheckSubject {
            trace: &salvaged.trace,
            extents: None,
            health: None,
            salvage: Some(&salvaged.report),
            file_len,
            rollup: None,
        }));
    }
    let opened = IndexedTrace::open_salvage(bytes)?;
    let (report, _) = opened.fold_verified(|indexed, source| {
        let mut gc_events = source.gc_events().to_vec();
        gc_events.sort_by_key(|gc| gc.start);
        let session = SessionCtx {
            meta: source.meta(),
            symbols: source.symbols(),
            gc_events: &gc_events,
            extents: Some(source.extents()),
            health: Some(indexed.health()),
            salvage: indexed.salvage_report(),
            file_len,
            rollup: indexed.rollup_health(),
        };
        let checking = rules.begin(&session);
        let extents = source.extents();
        let all = EpisodeFilter::default();
        let checking = source.fold_serial(&all, checking, |checking, i, episode| {
            checking.episode(episode, Some(&extents[i]));
        })?;
        Ok(checking.finish())
    })?;
    Ok(report)
}
