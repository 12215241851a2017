//! The workspace's one production clock.
//!
//! This module is the **only** place in the workspace's production crates
//! allowed to touch the wall clock (`fedrec-lint` carves out a path
//! exemption for it). Every observational timing reads the clock through
//! [`Stamp`] — the matrix's volatile `eval_ms` record field and `repro`'s
//! progress lines on stderr — so no other production file needs a
//! wall-clock suppression. The measurements are strictly observational —
//! nothing downstream of a timestamp feeds back into scoring, ranking, or
//! any identity-gated experiment byte, so the determinism contract is
//! untouched. Serving latency is measured from outside the service, by
//! the repository benchmark (`perfbench/`).

use std::time::Instant;

/// A monotonic timestamp: when an observational timing started.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Instant);

impl Stamp {
    /// Timestamp "now".
    pub fn now() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since this stamp (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
