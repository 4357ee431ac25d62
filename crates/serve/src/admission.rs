//! Admission control: the gate between the wire and the shard queues.
//!
//! Every wire `OPEN` walks one fixed pipeline before it is allowed to
//! touch an engine queue:
//!
//! ```text
//! OPEN ──▶ auth ──▶ quota ──▶ placement ──▶ try_open ──▶ OPEN_OK
//!           │         │                        │
//!           ▼         ▼                        ▼
//!       ERROR(auth) ERROR(quota)       ERROR(overloaded)  ← shed
//! ```
//!
//! * **auth** — the connection's HELLO token must name a registered
//!   [`TokenSpec`] (or the server runs [`AdmissionConfig::open_access`]).
//! * **quota** — each token carries a live-session budget; a tenant
//!   cannot monopolize the engine by opening sessions faster than it
//!   drains them.
//! * **placement** — [`shard_of`](crate::shard_of): the same stable
//!   hash the in-process path uses, so a session lands on the same
//!   shard whether it arrives by wire or by function call.
//! * **shed** — admission uses [`ServeEngine::try_open`], never the
//!   blocking `open`: when the placed shard's queue is at capacity the
//!   session is *refused*, not queued on the reactor thread. An
//!   overloaded server answers `ERROR(overloaded)` in microseconds
//!   instead of stalling every other connection behind a full shard —
//!   load-shedding at the boundary is what keeps one hot tenant from
//!   freezing the listener.
//!
//! Every decision increments a counter in the engine's own metrics
//! registry (`serve.admission.*`), so the `/metrics` endpoint exposes
//! admitted/shed/rejected rates next to the shard telemetry they
//! explain.

use std::collections::HashMap;

use wivi_obs::{Counter, Gauge, Registry};

use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::session::{SessionId, SessionSpec};

/// One tenant: an auth token and its live-session budget.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenSpec {
    pub token: String,
    /// Maximum sessions this token may have live (admitted, not yet
    /// completed) at once.
    pub max_live: usize,
}

impl TokenSpec {
    pub fn new(token: impl Into<String>, max_live: usize) -> Self {
        Self {
            token: token.into(),
            max_live,
        }
    }
}

/// Admission policy for a [`WireServer`](crate::net::WireServer).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdmissionConfig {
    /// Registered tenants. With `open_access`, these still apply to the
    /// tokens they name; unknown tokens get an unlimited budget.
    pub tokens: Vec<TokenSpec>,
    /// Accept any token (lab / loopback deployments). Without it, a
    /// HELLO with an unregistered token is refused.
    pub open_access: bool,
}

impl AdmissionConfig {
    /// Accept everything: any token, unlimited quota. The loopback and
    /// bench default.
    pub fn open_access() -> Self {
        Self {
            tokens: Vec::new(),
            open_access: true,
        }
    }

    /// Only the given tenants, each with its own quota.
    pub fn with_tokens(tokens: Vec<TokenSpec>) -> Self {
        Self {
            tokens,
            open_access: false,
        }
    }
}

/// Why admission refused an operation. `code()` is the stable tag the
/// wire `ERROR` frame carries.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmitError {
    /// Unknown auth token.
    Auth,
    /// The token is at its live-session budget.
    Quota { live: usize, max: usize },
    /// The placed shard's queue is full: shed.
    Overloaded { shard: usize },
    /// Session id already used on this engine.
    Duplicate(SessionId),
    /// The engine is shutting down.
    ShuttingDown,
}

impl AdmitError {
    /// Stable machine tag for wire `ERROR` frames and logs.
    pub fn code(&self) -> &'static str {
        match self {
            AdmitError::Auth => "auth",
            AdmitError::Quota { .. } => "quota",
            AdmitError::Overloaded { .. } => "overloaded",
            AdmitError::Duplicate(_) => "duplicate_id",
            AdmitError::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Auth => write!(f, "unknown auth token"),
            AdmitError::Quota { live, max } => {
                write!(f, "token at live-session quota ({live}/{max})")
            }
            AdmitError::Overloaded { shard } => {
                write!(f, "shard {shard} queue full: session shed")
            }
            AdmitError::Duplicate(id) => write!(f, "duplicate session id {id}"),
            AdmitError::ShuttingDown => write!(f, "engine shutting down"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The admission gate. Owns per-token live-session accounting; all
/// engine interaction goes through [`Admission::admit`] /
/// [`Admission::session_done`].
pub struct Admission {
    cfg: AdmissionConfig,
    /// live-session count per token, and which token owns which live id
    /// (so completions can be credited back without the caller keeping
    /// book).
    live_by_token: HashMap<String, usize>,
    owner_of: HashMap<SessionId, String>,
    admitted: Counter,
    rejected_auth: Counter,
    rejected_quota: Counter,
    shed: Counter,
    live: Gauge,
}

impl Admission {
    /// Builds the gate and registers its `serve.admission.*` metrics in
    /// `registry` (normally the engine's own, so one `/metrics` scrape
    /// sees both).
    pub fn new(cfg: AdmissionConfig, registry: &Registry) -> Self {
        Self {
            cfg,
            live_by_token: HashMap::new(),
            owner_of: HashMap::new(),
            admitted: registry.counter("serve.admission.admitted"),
            rejected_auth: registry.counter("serve.admission.rejected_auth"),
            rejected_quota: registry.counter("serve.admission.rejected_quota"),
            shed: registry.counter("serve.admission.shed"),
            live: registry.gauge("serve.admission.live"),
        }
    }

    fn spec_for(&self, token: &str) -> Option<&TokenSpec> {
        self.cfg.tokens.iter().find(|t| t.token == token)
    }

    /// HELLO-time check: is this token allowed to talk at all?
    /// (Quota is enforced per-OPEN, not here — a tenant at budget can
    /// still connect to close or drain sessions.)
    pub fn authenticate(&self, token: &str) -> Result<(), AdmitError> {
        if self.cfg.open_access || self.spec_for(token).is_some() {
            Ok(())
        } else {
            self.rejected_auth.inc();
            Err(AdmitError::Auth)
        }
    }

    /// Runs the full pipeline for one OPEN: auth → quota → placement →
    /// `try_open`. On success the session is queued and counted against
    /// `token`; returns the shard it was placed on.
    pub fn admit(
        &mut self,
        token: &str,
        engine: &mut ServeEngine,
        spec: SessionSpec,
    ) -> Result<usize, AdmitError> {
        self.authenticate(token)?;
        let live = *self.live_by_token.get(token).unwrap_or(&0);
        let max = match self.spec_for(token) {
            Some(t) => t.max_live,
            None => usize::MAX, // open-access tenant: unlimited
        };
        if live >= max {
            self.rejected_quota.inc();
            return Err(AdmitError::Quota { live, max });
        }
        let id = spec.id;
        let shard = engine.shard_of(id);
        match engine.try_open(spec) {
            Ok(()) => {
                self.live_by_token.insert(token.to_owned(), live + 1);
                self.owner_of.insert(id, token.to_owned());
                self.admitted.inc();
                self.live.set(self.owner_of.len() as f64);
                Ok(shard)
            }
            Err(ServeError::QueueFull(_)) => {
                // The spec is dropped here by design: shedding hands
                // nothing back to retry on the reactor thread.
                self.shed.inc();
                Err(AdmitError::Overloaded { shard })
            }
            Err(ServeError::DuplicateId(id)) => Err(AdmitError::Duplicate(id)),
            Err(ServeError::ShutDown) => Err(AdmitError::ShuttingDown),
        }
    }

    /// Credits a completed session back to its token's budget.
    pub fn session_done(&mut self, id: SessionId) {
        if let Some(token) = self.owner_of.remove(&id) {
            if let Some(n) = self.live_by_token.get_mut(&token) {
                *n = n.saturating_sub(1);
            }
            self.live.set(self.owner_of.len() as f64);
        }
    }

    /// Live (admitted, not yet completed) sessions across all tokens.
    pub fn live_sessions(&self) -> usize {
        self.owner_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::Mode;
    use wivi_core::WiViConfig;
    use wivi_rf::{Material, Scene};

    fn spec(id: SessionId) -> SessionSpec {
        SessionSpec::new(
            id,
            Scene::new(Material::HollowWall6In),
            WiViConfig::fast_test(),
            1,
            0.0,
            Mode::Count,
        )
    }

    #[test]
    fn unknown_tokens_are_refused_unless_open_access() {
        let reg = Registry::new();
        let gate = Admission::new(
            AdmissionConfig::with_tokens(vec![TokenSpec::new("alice", 4)]),
            &reg,
        );
        assert_eq!(gate.authenticate("alice"), Ok(()));
        assert_eq!(gate.authenticate("mallory"), Err(AdmitError::Auth));
        assert_eq!(
            reg.snapshot(false).counter("serve.admission.rejected_auth"),
            Some(1)
        );

        let open = Admission::new(AdmissionConfig::open_access(), &reg);
        assert_eq!(open.authenticate("anyone"), Ok(()));
    }

    #[test]
    fn quota_blocks_the_token_and_frees_on_completion() {
        let reg = Registry::new();
        let mut gate = Admission::new(
            AdmissionConfig::with_tokens(vec![TokenSpec::new("alice", 2)]),
            &reg,
        );
        let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
        assert!(gate.admit("alice", &mut engine, spec(1)).is_ok());
        assert!(gate.admit("alice", &mut engine, spec(2)).is_ok());
        assert_eq!(
            gate.admit("alice", &mut engine, spec(3)),
            Err(AdmitError::Quota { live: 2, max: 2 })
        );
        gate.session_done(1);
        assert!(gate.admit("alice", &mut engine, spec(3)).is_ok());
        assert_eq!(gate.live_sessions(), 2);
        let snap = reg.snapshot(false);
        assert_eq!(snap.counter("serve.admission.admitted"), Some(3));
        assert_eq!(snap.counter("serve.admission.rejected_quota"), Some(1));
        engine.finish();
    }

    #[test]
    fn queue_full_sheds_with_a_counter_instead_of_blocking() {
        let reg = Registry::new();
        let mut gate = Admission::new(AdmissionConfig::open_access(), &reg);
        // One shard, queue bound 1, and sessions long enough that the
        // queue cannot drain between admits.
        let mut cfg = ServeConfig::with_shards(1);
        cfg.queue_capacity = 1;
        let mut engine = ServeEngine::start(cfg);
        let mut shed = 0usize;
        for id in 0..16 {
            match gate.admit("t", &mut engine, spec(id)) {
                Ok(_) => {}
                Err(AdmitError::Overloaded { shard }) => {
                    assert_eq!(shard, 0);
                    shed += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(shed > 0, "a 1-deep queue must shed under a 16-open burst");
        assert_eq!(
            reg.snapshot(false).counter("serve.admission.shed"),
            Some(shed as u64)
        );
        engine.finish();
    }

    #[test]
    fn duplicates_and_shutdown_surface_with_stable_codes() {
        let reg = Registry::new();
        let mut gate = Admission::new(AdmissionConfig::open_access(), &reg);
        let mut engine = ServeEngine::start(ServeConfig::with_shards(1));
        gate.admit("t", &mut engine, spec(7)).unwrap();
        let err = gate.admit("t", &mut engine, spec(7)).unwrap_err();
        assert_eq!(err, AdmitError::Duplicate(7));
        assert_eq!(err.code(), "duplicate_id");
        engine.finish();
    }
}
