//! Error type for trace encoding and decoding.

use std::error::Error;
use std::fmt;
use std::io;

use lagalyzer_model::ModelError;

/// Errors raised while reading or writing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input is not a trace in the expected format.
    Corrupt {
        /// What the decoder was reading when it failed.
        context: &'static str,
        /// Free-form detail (offending bytes, line number, ...).
        detail: String,
    },
    /// The trace is well-formed at the byte level but violates a model
    /// invariant (e.g. overlapping intervals).
    Model(ModelError),
    /// The declared format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the input.
        found: u32,
    },
    /// The trailer checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// A corpus member's LZ payload section does not decompress, so none
    /// of the member's episodes can be read: unlike damage inside one
    /// episode, which a lenient decode steps over, it fails every decode
    /// of the member. Displays as the decompression failure it wraps.
    UnreadablePayload(Box<TraceError>),
}

impl TraceError {
    /// Convenience constructor for corruption errors.
    pub fn corrupt(context: &'static str, detail: impl Into<String>) -> Self {
        TraceError::Corrupt {
            context,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::Corrupt { context, detail } => {
                write!(f, "corrupt trace while reading {context}: {detail}")
            }
            TraceError::Model(e) => write!(f, "trace violates model invariant: {e}"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version {found}")
            }
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::UnreadablePayload(e) => e.fmt(f),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<ModelError> for TraceError {
    fn from(e: ModelError) -> Self {
        TraceError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = TraceError::corrupt("header", "bad magic");
        assert_eq!(
            e.to_string(),
            "corrupt trace while reading header: bad magic"
        );
        assert!(TraceError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(TraceError::ChecksumMismatch {
            stored: 1,
            computed: 2
        }
        .to_string()
        .contains("mismatch"));
    }

    #[test]
    fn sources_are_chained() {
        let io_err = TraceError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(io_err.source().is_some());
        let model_err = TraceError::from(ModelError::MissingRoot);
        assert!(model_err.source().is_some());
        assert!(TraceError::corrupt("x", "y").source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<TraceError>();
    }
}
