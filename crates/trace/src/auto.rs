//! Codec auto-detection: load a trace without knowing which codec wrote
//! it (binary traces start with the `LGLZTRC` magic, text traces with the
//! `lagalyzer-trace` header line).

use lagalyzer_model::SessionTrace;

use crate::error::TraceError;
use crate::{binary, text};

/// Decodes a trace from bytes, auto-detecting the codec.
///
/// # Errors
///
/// Propagates the underlying codec's errors; unrecognizable input is
/// reported as corrupt.
pub fn read_bytes(bytes: &[u8]) -> Result<SessionTrace, TraceError> {
    if bytes.starts_with(b"LGLZTRC") {
        binary::read(bytes)
    } else if bytes.starts_with(b"lagalyzer-trace") {
        text::read(bytes)
    } else {
        Err(TraceError::corrupt(
            "auto-detect",
            "neither binary magic nor text header found",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_model::prelude::*;

    fn fixture() -> SessionTrace {
        let meta = SessionMeta {
            application: "Auto".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(1),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, TimeNs::ZERO).unwrap();
        t.exit(TimeNs::from_millis(10)).unwrap();
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        b.finish()
    }

    #[test]
    fn detects_binary() {
        let trace = fixture();
        let mut buf = Vec::new();
        binary::write(&trace, &mut buf).unwrap();
        let back = read_bytes(&buf).unwrap();
        assert_eq!(back.meta().application, "Auto");
    }

    #[test]
    fn detects_text() {
        let trace = fixture();
        let mut buf = Vec::new();
        text::write(&trace, &mut buf).unwrap();
        let back = read_bytes(&buf).unwrap();
        assert_eq!(back.episodes().len(), 1);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(matches!(
            read_bytes(b"definitely not a trace"),
            Err(TraceError::Corrupt { .. })
        ));
        assert!(matches!(read_bytes(b""), Err(TraceError::Corrupt { .. })));
    }
}
