//! Error type of the serving layer.

use lobster::LobsterError;
use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Compiling or executing the program failed. When a batched execution
    /// fails, every request in the batch receives the same error.
    Lobster(LobsterError),
    /// The scheduler was shut down before the request was served.
    ShutDown,
    /// The worker holding the request died without responding while the
    /// scheduler was *not* shutting down — a crash, not a clean drain. The
    /// scheduler itself keeps serving; only this request is lost.
    Disconnected,
    /// A [`Ticket::wait_timeout`](crate::Ticket::wait_timeout) deadline
    /// elapsed before the batch ran. The request itself is still in the
    /// scheduler and still runs; only the wait was abandoned.
    TimedOut,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Lobster(e) => write!(f, "{e}"),
            ServeError::ShutDown => write!(f, "scheduler shut down before the request was served"),
            ServeError::Disconnected => {
                write!(f, "shard worker disconnected without serving the request")
            }
            ServeError::TimedOut => write!(f, "timed out waiting for the request's batch"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<LobsterError> for ServeError {
    fn from(e: LobsterError) -> Self {
        ServeError::Lobster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e: ServeError = LobsterError::Config {
            message: "no provenance".into(),
        }
        .into();
        assert!(e.to_string().contains("no provenance"));
        assert!(ServeError::ShutDown.to_string().contains("shut down"));
    }
}
