//! `TracerError` — the workspace-wide error type.
//!
//! Public fallible entry points across the evaluation stack share this one
//! enum, so errors can be matched on instead of being stringified early. It
//! is hand-rolled in the `thiserror` style — explicit `Display` + `Error`
//! impls, no proc-macro dependency — so the workspace stays buildable
//! offline.
//!
//! The `Display` strings are load-bearing: protocol `err` lines and CLI
//! diagnostics are built from them, and clients (plus the serve e2e tests)
//! match on the exact text. Each variant documents the string it preserves.

use tracer_trace::TraceError;

/// Unified error for TRACER's fallible public operations.
#[derive(Debug)]
pub enum TracerError {
    /// No trace exists for the requested device/mode.
    /// Displays as `no trace available: ...`.
    NoTrace(String),
    /// An underlying I/O operation failed (socket, repository, obs sink).
    /// Displays as the `std::io::Error` it wraps, matching the strings the
    /// serve binary used to produce via `e.to_string()`.
    Io(std::io::Error),
    /// Service-level failure (worker pool, job queue, shutdown).
    Config(String),
    /// A trace source failed mid-scan (a corrupt v3 file). Displays as the
    /// [`TraceError`] it wraps (`corrupt trace file: ...`).
    Trace(TraceError),
}

impl std::fmt::Display for TracerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TracerError::NoTrace(s) => write!(f, "no trace available: {s}"),
            TracerError::Io(e) => write!(f, "{e}"),
            TracerError::Config(s) => write!(f, "{s}"),
            TracerError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TracerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TracerError::Io(e) => Some(e),
            TracerError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TracerError {
    fn from(e: std::io::Error) -> Self {
        TracerError::Io(e)
    }
}

impl From<TraceError> for TracerError {
    fn from(e: TraceError) -> Self {
        TracerError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_match_the_protocol() {
        // These strings appear verbatim in protocol err lines; changing them
        // is a wire-format break.
        assert_eq!(
            TracerError::NoTrace("dev/mode".into()).to_string(),
            "no trace available: dev/mode"
        );
        assert_eq!(TracerError::Config("queue full".into()).to_string(), "queue full");
        let io = TracerError::Io(std::io::Error::other("boom"));
        assert_eq!(io.to_string(), "boom");
        let trace = TracerError::Trace(TraceError::Corrupt("truncated varint".into()));
        assert_eq!(trace.to_string(), "corrupt trace file: truncated varint");
    }

    #[test]
    fn conversions_and_source_chain() {
        let io: TracerError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(io, TracerError::Io(_)));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&TracerError::NoTrace("x".into())).is_none());
        let trace: TracerError = TraceError::NotFound("x".into()).into();
        assert!(matches!(trace, TracerError::Trace(_)));
        assert!(std::error::Error::source(&trace).is_some());
    }
}
