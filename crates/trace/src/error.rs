//! Error type shared by the trace I/O layers.

use std::fmt;
use std::io;

/// Errors produced while reading, writing, or converting trace files.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying filesystem / stream error.
    Io(io::Error),
    /// The input does not start with the `.replay` magic bytes.
    BadMagic([u8; 4]),
    /// The on-disk format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// Structural corruption (truncation, impossible counts, …).
    Corrupt(String),
    /// A line of a text trace (`format` is `"srt"` or `"blkparse"`) could
    /// not be parsed.
    Parse { format: &'static str, line: usize, reason: String },
    /// A repository file name does not follow the workload-mode convention.
    BadTraceName(String),
    /// The requested trace does not exist in the repository.
    NotFound(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::BadMagic(m) => write!(f, "bad magic bytes {m:?}, not a .replay file"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported .replay version {v}"),
            TraceError::Corrupt(why) => write!(f, "corrupt trace file: {why}"),
            TraceError::Parse { format, line, reason } => {
                write!(f, "{format} parse error at line {line}: {reason}")
            }
            TraceError::BadTraceName(name) => {
                write!(f, "trace file name {name:?} does not encode a workload mode")
            }
            TraceError::NotFound(name) => write!(f, "trace {name:?} not found in repository"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TraceError::BadMagic(*b"NOPE");
        assert!(e.to_string().contains("magic"));
        let e = TraceError::Parse { format: "srt", line: 7, reason: "too few fields".into() };
        assert!(e.to_string().contains("line 7"));
        let e = TraceError::UnsupportedVersion(9);
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, TraceError::Io(_)));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(TraceError::NotFound("x".into()).source().is_none());
    }
}
