//! The framework-wide error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the Mess framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MessError {
    /// A read/write ratio outside `[0, 1]` (or not finite) was supplied.
    InvalidRatio(f64),
    /// A curve was constructed with fewer than two points, or with non-finite coordinates.
    InvalidCurve(String),
    /// A curve family was constructed without any curves.
    EmptyCurveFamily,
    /// A configuration value was out of its valid range.
    InvalidConfig(String),
    /// A serialized artifact (curve file, trace) could not be parsed.
    Parse(String),
    /// An experiment required a component that is not present in the platform configuration.
    MissingComponent(String),
    /// The run was cancelled (operator request or service shutdown) before it executed.
    Cancelled,
    /// The run panicked: a bug in a model or the engine, not a mistake in its input. Carries
    /// the panic message.
    Panicked(String),
}

impl fmt::Display for MessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessError::InvalidRatio(v) => {
                write!(
                    f,
                    "read/write ratio must be a finite value in [0, 1], got {v}"
                )
            }
            MessError::InvalidCurve(msg) => write!(f, "invalid bandwidth-latency curve: {msg}"),
            MessError::EmptyCurveFamily => write!(f, "curve family contains no curves"),
            MessError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MessError::Parse(msg) => write!(f, "parse error: {msg}"),
            MessError::MissingComponent(msg) => write!(f, "missing component: {msg}"),
            MessError::Cancelled => write!(f, "run cancelled before execution"),
            MessError::Panicked(msg) => write!(f, "run panicked: {msg}"),
        }
    }
}

impl Error for MessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(MessError, &str)> = vec![
            (MessError::InvalidRatio(1.5), "read/write ratio"),
            (
                MessError::InvalidCurve("x".into()),
                "invalid bandwidth-latency curve",
            ),
            (MessError::EmptyCurveFamily, "curve family"),
            (
                MessError::InvalidConfig("bad".into()),
                "invalid configuration",
            ),
            (MessError::Parse("bad".into()), "parse error"),
            (
                MessError::MissingComponent("cxl".into()),
                "missing component",
            ),
            (MessError::Cancelled, "cancelled"),
            (MessError::Panicked("boom".into()), "run panicked: boom"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should contain {needle}");
            assert!(
                !msg.ends_with('.'),
                "error messages should not end with punctuation"
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<MessError>();
    }
}
