//! Request-scoped trace identity: seeded 64-bit trace ids.
//!
//! Semantics (DESIGN.md §15):
//!
//! * A trace id is a nonzero `u64`; `0` means *untraced* and is what
//!   every span records when no id is in scope. Ids come from
//!   [`TraceIdGen`], a splitmix64 stream seeded by the caller — no
//!   wall-clock, no global state, so a session opened with the same
//!   seed gets the same trace id on every run and traced payloads stay
//!   reproducible.
//! * The id is a plain `u64` everywhere: it crosses the wire as an
//!   optional field in OPEN frames (wire v2) and rides `SessionSpec`
//!   through admission and shard placement, and
//!   [`span_traced`](crate::span_traced) records it, so the client-side
//!   open RTT span and the server-side open/step/drain spans all carry
//!   the same id.
//!
//! The generator is the same splitmix64 the test fixtures use for
//! deterministic sample data: full-period over `u64`, two rounds of
//! xor-shift-multiply, and statistically independent outputs from
//! consecutive states. Zero outputs are skipped so `0` stays reserved.

/// The reserved "no trace" id recorded by spans opened without a
/// context.
pub const UNTRACED: u64 = 0;

/// One splitmix64 step: maps any `u64` state to a well-mixed output.
#[inline]
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic stream of nonzero 64-bit trace ids.
///
/// Two generators with the same seed emit the same sequence; distinct
/// seeds emit statistically unrelated sequences. No wall-clock is
/// involved, so traced payloads are bit-reproducible run to run.
#[derive(Clone, Debug)]
pub struct TraceIdGen {
    state: u64,
}

impl TraceIdGen {
    /// A generator seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next trace id — never [`UNTRACED`].
    pub fn next_id(&mut self) -> u64 {
        loop {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let id = splitmix64(self.state);
            if id != UNTRACED {
                return id;
            }
        }
    }
}

/// Renders a trace id the way `/tracez` and log lines print it:
/// 16 lowercase hex digits, `-` for untraced.
pub fn fmt_trace(id: u64) -> String {
    if id == UNTRACED {
        "-".to_string()
    } else {
        format!("{id:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_nonzero_and_distinct() {
        let mut a = TraceIdGen::new(42);
        let mut b = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..1000).map(|_| a.next_id()).collect();
        let again: Vec<u64> = (0..1000).map(|_| b.next_id()).collect();
        assert_eq!(ids, again, "same seed must replay the same stream");
        assert!(ids.iter().all(|&i| i != UNTRACED));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids must not collide in-stream");

        let mut c = TraceIdGen::new(43);
        assert_ne!(c.next_id(), ids[0], "different seeds diverge");
    }

    #[test]
    fn fmt_trace_prints_hex_or_a_dash() {
        assert_eq!(fmt_trace(UNTRACED), "-");
        assert_eq!(fmt_trace(0xdead_beef), "00000000deadbeef");
        assert_eq!(fmt_trace(u64::MAX).len(), 16);
    }
}
