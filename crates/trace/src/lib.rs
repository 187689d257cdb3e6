//! LiLa-like latency trace format.
//!
//! LagAlyzer is not a profiler: it operates offline on traces produced by a
//! latency profiler such as LiLa (paper §II-A). This crate defines that
//! contract as a concrete serialization format with two interchangeable
//! codecs:
//!
//! * a compact **binary** codec ([`binary`]) with varint-encoded integers
//!   and a trailer checksum whose hash the format version selects
//!   ([`checksum`]), and
//! * a human-readable, line-based **text** codec ([`text`]).
//!
//! Both codecs round-trip a [`lagalyzer_model::SessionTrace`] exactly. A
//! trace is a flat stream of [`record::TraceRecord`]s (the same events
//! LiLa's instrumentation emits: interval enters/exits, stack samples, GC
//! brackets, short-episode counts), reassembled through the model
//! builders, so decoding re-validates every structural invariant. The
//! text writer lowers a trace to that stream ([`records_from_trace`]);
//! the binary writer encodes the same records straight from each
//! episode's interval arena and sample arrays.
//!
//! The [`filter`] module implements the *tracer-side* episode filter: LiLa
//! drops episodes shorter than 3 ms to limit overhead, so LagAlyzer only
//! ever sees how many such episodes occurred (paper §IV-A).
//!
//! The tools open binary traces through [`IndexedTrace`] — strictly, or
//! with [`IndexedTrace::open_salvage`] for damaged input — and `.lgzc`
//! corpora through [`CorpusReader`]; both decode through one
//! [`SessionSource`], which can also stream a session through a fold
//! without keeping its episodes. Every tool that folds a whole `.lgz`
//! does so through [`IndexedTrace::fold_verified`], which decides when a
//! failed fold means a strict open fails and when a salvage open falls
//! back to the salvage scan. [`decode_bytes_salvage`] is the
//! materializing reference the tests hold those folds to, and
//! [`binary::read`] and [`binary::read_salvage`] are the serial reference
//! decoders they hold the indexed decode to. Text traces have no extent
//! index and decode through [`text::read`] and [`text::read_salvage`].
//!
//! # Example
//!
//! ```
//! use lagalyzer_model::prelude::*;
//! use lagalyzer_trace::{binary, text};
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
//!
//! let mut bytes = Vec::new();
//! binary::write(&trace, &mut bytes)?;
//! let back = binary::read(&mut bytes.as_slice())?;
//! assert_eq!(back.meta().application, "Demo");
//!
//! let mut textual = Vec::new();
//! text::write(&trace, &mut textual)?;
//! assert!(String::from_utf8(textual)?.starts_with("lagalyzer-trace v1"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auto;
pub mod binary;
pub mod checksum;
pub mod corpus;
pub mod error;
pub mod faults;
pub mod filter;
pub mod index;
pub mod record;
pub mod rollup;
pub mod salvage;
pub mod source;
pub mod text;
mod varint;

/// The round-trip properties' trace strategies, which the writer's unit
/// tests share.
#[cfg(test)]
#[path = "../tests/support/traces.rs"]
mod test_traces;

pub use auto::read_bytes;
pub use corpus::{is_corpus, CorpusReader, PackOptions, SessionView};
pub use error::TraceError;
pub use filter::TraceFilter;
pub use index::{
    probe_rollup, DurationBand, EpisodeExtent, EpisodeFilter, IndexHealth, IndexedTrace,
};
pub use record::{records_from_trace, trace_from_records, TraceRecord};
pub use rollup::{Rollup, RollupHealth};
pub use salvage::{
    decode_bytes_salvage, read_bytes_salvage, DamageVerdict, SalvageReport, SalvageSkip, Salvaged,
    SkipAt,
};
pub use source::SessionSource;
