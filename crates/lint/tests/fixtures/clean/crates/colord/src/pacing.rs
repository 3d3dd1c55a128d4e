//! Green fixture for the R1/R6 scope split: service code under
//! `crates/colord` may read the wall clock. Were this file under
//! `crates/sim` or `crates/transport`, both `Instant` uses below would
//! be R1 violations —
//! the clean corpus passing proves the narrower R6 applies instead,
//! without any waiver.

use std::time::Instant;

/// Paces a reconnect loop — a legitimately wall-clock-driven concern
/// that a real-network service owns and a simulator must not.
pub struct Backoff {
    started: Instant,
    attempts: u32,
}

impl Backoff {
    /// Starts the clock.
    pub fn new() -> Self {
        Backoff {
            started: Instant::now(),
            attempts: 0,
        }
    }

    /// Milliseconds to sleep before the next attempt.
    pub fn next_delay_ms(&mut self) -> u64 {
        self.attempts += 1;
        let _elapsed = self.started.elapsed();
        (1u64 << self.attempts.min(10)).min(5_000)
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}
