//! CLI errors.

use std::fmt;

/// Errors surfaced to the command-line user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the message explains what and how.
    Usage(String),
    /// Filesystem problems reading/writing artifacts.
    Io(std::io::Error),
    /// Malformed JSON artifact.
    Json(serde_json::Error),
    /// A domain operation failed (simulation, scheduling, ...).
    Domain(String),
    /// The daemon could not be reached, or the connection broke before a
    /// well-formed reply arrived.
    Transport(String),
    /// The daemon answered with an error reply.
    Server {
        /// Machine-readable error class from the wire protocol.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon shed the request under load; retry after the hint.
    Shed {
        /// Human-readable detail.
        message: String,
        /// Server back-off hint, milliseconds (`0` = none).
        retry_after_ms: u64,
    },
}

impl CliError {
    /// A usage error with context.
    pub fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// A domain error with context.
    pub fn domain(msg: impl Into<String>) -> Self {
        CliError::Domain(msg.into())
    }

    /// The process exit code for this error, so scripts can distinguish
    /// failure classes: `2` usage, `3` transport (daemon unreachable or
    /// connection broken), `4` server-reported error, `5` overload-shed
    /// (retryable), `1` everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Transport(_) => 3,
            CliError::Server { .. } => 4,
            CliError::Shed { .. } => 5,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n(run `cbes help` for usage)"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Json(e) => write!(f, "malformed artifact: {e}"),
            CliError::Domain(m) => write!(f, "{m}"),
            CliError::Transport(m) => write!(f, "transport error: {m}"),
            CliError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
            CliError::Shed {
                message,
                retry_after_ms,
            } => write!(
                f,
                "request shed: {message} (retry after {retry_after_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_usage_hint() {
        assert!(CliError::usage("bad").to_string().contains("cbes help"));
        assert!(CliError::domain("x").to_string().contains('x'));
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(CliError::usage("u").exit_code(), 2);
        assert_eq!(CliError::Transport("refused".into()).exit_code(), 3);
        assert_eq!(
            CliError::Server {
                kind: "service".into(),
                message: "unknown app".into()
            }
            .exit_code(),
            4
        );
        assert_eq!(
            CliError::Shed {
                message: "queue full".into(),
                retry_after_ms: 25
            }
            .exit_code(),
            5
        );
        assert_eq!(CliError::domain("d").exit_code(), 1);
    }
}
