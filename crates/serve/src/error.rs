//! Serving errors: the clean failure surface of the engine's session
//! boundary.
//!
//! Before the wire front, the engine's failure modes were asserts —
//! acceptable for an in-process library whose one caller controls the
//! lifecycle, fatal for a server whose clients race `finish()`. Every
//! boundary operation ([`ServeEngine::open`](crate::ServeEngine::open),
//! [`try_open`](crate::ServeEngine::try_open),
//! [`close`](crate::ServeEngine::close)) now returns a [`ServeError`]
//! instead of panicking, and the admission layer maps each variant to a
//! wire `ERROR` frame.

use crate::session::{SessionId, SessionSpec};

/// Why the engine refused a session operation.
pub enum ServeError {
    /// The engine is shutting down (a concurrent `finish()` closed the
    /// shard queues). Blocked producers are woken with this instead of
    /// panicking and poisoning the queue mutex.
    ShutDown,
    /// The session id was already used during this engine's lifetime.
    DuplicateId(SessionId),
    /// `try_open` only: the target shard's queue is at capacity. The
    /// spec is handed back (boxed — it owns a whole scene) so the
    /// caller can retry or shed.
    QueueFull(Box<SessionSpec>),
}

impl ServeError {
    /// Stable machine-readable tag (used by wire `ERROR` frames and
    /// logs).
    pub fn tag(&self) -> &'static str {
        match self {
            ServeError::ShutDown => "shut_down",
            ServeError::DuplicateId(_) => "duplicate_id",
            ServeError::QueueFull(_) => "queue_full",
        }
    }

    /// Recovers the spec a [`ServeError::QueueFull`] handed back.
    pub fn into_spec(self) -> Option<Box<SessionSpec>> {
        match self {
            ServeError::QueueFull(spec) => Some(spec),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShutDown => write!(f, "engine shut down"),
            ServeError::DuplicateId(id) => write!(
                f,
                "duplicate session id {id}: ids must be unique for the engine's lifetime"
            ),
            ServeError::QueueFull(spec) => {
                write!(f, "shard queue full for session {}", spec.id)
            }
        }
    }
}

// Manual: `SessionSpec` is not `Debug`; showing the variant and id is
// what a failure report needs.
impl std::fmt::Debug for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShutDown => write!(f, "ShutDown"),
            ServeError::DuplicateId(id) => write!(f, "DuplicateId({id})"),
            ServeError::QueueFull(spec) => write!(f, "QueueFull(session {})", spec.id),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_display_are_stable() {
        assert_eq!(ServeError::ShutDown.tag(), "shut_down");
        assert_eq!(ServeError::DuplicateId(7).tag(), "duplicate_id");
        assert_eq!(
            format!("{}", ServeError::DuplicateId(7)),
            format!("{}", ServeError::DuplicateId(7))
        );
        assert_eq!(format!("{:?}", ServeError::ShutDown), "ShutDown");
        assert!(ServeError::ShutDown.into_spec().is_none());
    }
}
