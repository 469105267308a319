//! Workspace-level error type for the fallible pipeline entry points.

use m3d_gnn::{LoadModelError, ShapeError};
use std::fmt;

/// Errors from training, persistence, and validation entry points.
///
/// Historically these conditions panicked deep inside the call tree; the
/// [`Pipeline`](crate::Pipeline) API surfaces them as values instead.
/// Model/artifact deserialization failures from the gnn layer
/// ([`LoadModelError`]) fold into this enum too, so every fallible call in
/// the crate shares the single [`Result`] alias.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The training set has no graph-level tier samples — nothing for the
    /// Tier-predictor (and everything downstream of it) to learn from.
    EmptyTrainingSet,
    /// A matrix was constructed from a buffer whose length does not match
    /// the requested shape.
    Shape(ShapeError),
    /// A failure log references observation points, scan positions, or
    /// pattern indices outside the design — `entries` of its entries are
    /// corrupt.
    CorruptFailureLog {
        /// How many entries failed validation.
        entries: usize,
    },
    /// An embedded `m3d-gnn-model v1` block failed to deserialize.
    LoadModel(LoadModelError),
    /// An `m3d-artifact/2` document is malformed (bad header, truncation,
    /// version skew, or a corrupt section).
    Artifact {
        /// 1-based line of the first malformed artifact line (0 for
        /// document-level problems such as truncation).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The artifact's design fingerprint does not match the test bench it
    /// was opened against — the deterministic design-generation flow has
    /// drifted (or the wrong bench was supplied) and the models would be
    /// diagnosing a different circuit.
    DesignMismatch {
        /// Fingerprint recorded in the artifact.
        expected: u64,
        /// Fingerprint of the supplied bench.
        found: u64,
    },
    /// An artifact file could not be read or written.
    Io {
        /// The failing path.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// A [`TestBenchConfig`](crate::TestBenchConfig) resolves to an
    /// ungeneratable design (e.g. a profile/scale combination with zero
    /// inputs or zero combinational gates). Long-lived callers get a value
    /// instead of the generator's historical panic.
    InvalidDesign {
        /// The generator's rejection reason.
        message: String,
    },
}

/// The crate-wide result alias: every fallible entry point — training,
/// artifact save/load, session opening, validation — returns it.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyTrainingSet => {
                write!(f, "training set has no tier samples")
            }
            Error::Shape(e) => write!(f, "{e}"),
            Error::CorruptFailureLog { entries } => {
                write!(
                    f,
                    "failure log has {entries} corrupt entries referencing \
                     points outside the design"
                )
            }
            Error::LoadModel(e) => write!(f, "model block: {e}"),
            Error::Artifact { line, message } => {
                write!(f, "artifact line {line}: {message}")
            }
            Error::DesignMismatch { expected, found } => {
                write!(
                    f,
                    "design fingerprint mismatch: artifact was trained on \
                     {expected:016x}, supplied bench hashes to {found:016x}"
                )
            }
            Error::Io { path, message } => {
                write!(f, "{path}: {message}")
            }
            Error::InvalidDesign { message } => {
                write!(f, "invalid design configuration: {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Shape(e) => Some(e),
            Error::LoadModel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for Error {
    fn from(e: ShapeError) -> Self {
        Error::Shape(e)
    }
}

impl From<LoadModelError> for Error {
    fn from(e: LoadModelError) -> Self {
        Error::LoadModel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(Error::EmptyTrainingSet.to_string().contains("tier samples"));
        let shape: Error = ShapeError {
            rows: 2,
            cols: 2,
            len: 3,
        }
        .into();
        assert!(shape.to_string().contains("buffer length mismatch"));
        assert!(std::error::Error::source(&shape).is_some());
        assert!(std::error::Error::source(&Error::EmptyTrainingSet).is_none());
        let corrupt = Error::CorruptFailureLog { entries: 3 };
        assert!(corrupt.to_string().contains("3 corrupt entries"));
        assert!(std::error::Error::source(&corrupt).is_none());
    }

    #[test]
    fn persistence_variants_display_and_fold() {
        let load: Error = LoadModelError::custom("wrong task").into();
        assert!(load.to_string().contains("wrong task"));
        assert!(std::error::Error::source(&load).is_some());
        let art = Error::Artifact {
            line: 7,
            message: "bad policy line".into(),
        };
        assert!(art.to_string().contains("line 7"));
        let mm = Error::DesignMismatch {
            expected: 0xab,
            found: 0xcd,
        };
        assert!(mm.to_string().contains("00000000000000ab"));
        let io = Error::Io {
            path: "/nope/x.m3da".into(),
            message: "not found".into(),
        };
        assert!(io.to_string().contains("/nope/x.m3da"));
        let bad = Error::InvalidDesign {
            message: "need at least one primary input".into(),
        };
        assert!(bad.to_string().contains("invalid design configuration"));
    }
}
