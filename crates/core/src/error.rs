//! Error type for the decomposition API.

use std::fmt;

/// Errors produced by [`crate::decompose::decompose`] and friends.
#[derive(Debug)]
pub enum CoreError {
    /// The requested algorithm cannot run on the requested family
    /// (e.g. LCPS is defined for k-core only).
    UnsupportedAlgorithm {
        /// Algorithm name.
        algorithm: &'static str,
        /// Family it was requested for.
        kind: String,
    },
    /// The requested options contradict the call: an explicit
    /// [`crate::decompose::Backend::Lazy`] passed to
    /// [`crate::session::NucleusBuilder::prepare_from_index`], which
    /// loads a materialized index.
    InvalidOptions {
        /// Human-readable explanation of the conflict.
        reason: String,
    },
    /// A textual token (typically a CLI argument) named no known kind,
    /// algorithm or backend. Produced by the `parse` associated
    /// functions on those types; `expected` enumerates the actual
    /// accepted spellings, so the message never goes stale.
    UnknownName {
        /// What was being parsed: `"kind"`, `"algorithm"`, …
        what: &'static str,
        /// The offending token.
        token: String,
        /// Rendered list of accepted spellings.
        expected: String,
    },
    /// A persisted index file failed structural validation: bad magic,
    /// unsupported version, checksum mismatch, truncated or
    /// out-of-bounds sections, malformed records. The bytes cannot be
    /// trusted; re-run `prepare` to regenerate the file.
    IndexCorrupt {
        /// Where the bytes came from (file path, or a label for
        /// in-memory images).
        path: String,
        /// What the validator tripped over.
        reason: String,
    },
    /// A structurally valid index file does not belong to the inputs it
    /// was offered for: the graph fingerprint differs (the graph changed
    /// after `prepare`), or the requested kind contradicts the stored
    /// (r, s) family.
    IndexMismatch {
        /// Where the index came from.
        path: String,
        /// Which part of the identity disagreed.
        reason: String,
    },
    /// Reading or writing a persisted index failed at the I/O layer
    /// (missing file, permissions, full disk).
    IndexIo {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedAlgorithm { algorithm, kind } => {
                write!(f, "{algorithm} does not support the {kind} decomposition")
            }
            CoreError::InvalidOptions { reason } => {
                write!(f, "invalid decompose options: {reason}")
            }
            CoreError::UnknownName {
                what,
                token,
                expected,
            } => {
                write!(f, "unknown {what} {token:?} (expected one of: {expected})")
            }
            CoreError::IndexCorrupt { path, reason } => {
                write!(f, "index file {path:?} is corrupt: {reason}")
            }
            CoreError::IndexMismatch { path, reason } => {
                write!(f, "index file {path:?} does not match this graph: {reason}")
            }
            CoreError::IndexIo { path, reason } => {
                write!(f, "index file {path:?}: i/o error: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
