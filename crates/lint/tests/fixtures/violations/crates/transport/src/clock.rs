//! Red fixture for R1 in transport scope: the protocol contract and
//! frame codec read no clock, so `Instant` here is flagged exactly as
//! it would be under `crates/sim` (use + call site).

use std::time::Instant;

/// Times a frame write with wall-clock time (nondeterministic!).
pub fn timed_write(buf: &mut Vec<u8>, payload: &[u8]) -> u128 {
    let start = Instant::now();
    buf.extend_from_slice(payload);
    start.elapsed().as_nanos()
}
