//! Replay pin: one fixed call script against the service, with its
//! final snapshot and a digest of every heartbeat answer pinned to
//! recorded constants. Storage and scheduling changes inside the shards
//! must leave the coloring bit-identical, so any change to these
//! constants is a behavior change, not a refactor.
//!
//! The script covers the paths a layout change could perturb: a
//! 256-session lattice at 0.75 spacing, the online κ̂₂ estimator
//! (re-admissions), a stall bound low enough to trip the watchdog, and
//! leave + rejoin churn that recycles node ids, for one and two shards.

use colord::{Service, ServiceConfig};

/// Lattice side: 16 × 16 = 256 sessions.
const SIDE: usize = 16;
/// Lattice spacing, in connection radii.
const SPACING: f64 = 0.75;
/// Slots per `step` call.
const BATCH: u64 = 256;
/// A run that has not settled by this slot fails.
const MAX_SLOTS: u64 = 4_000_000;
/// Watchdog bound: low enough that some sessions are reset, high
/// enough that the lattice still settles.
const STALL_SLOTS: u64 = 12_000;

/// `(final snapshot JSON, heartbeat digest)` recorded per shard count.
const PINNED_K1: (&str, u64) = (
    r#"{"slot":51712,"live":256,"decided":256,"conflicts":0,"frame_len":91,"leaders":102,"kappa2_est":9,"joins":346,"leaves":90,"heartbeats":3488,"slots":51712,"transmissions":516677,"deliveries":1561446,"collisions":166809,"resets":164,"reprovisions":256,"shard_undecided":[0],"valid":true}"#,
    0xb239_db44_a06f_5903,
);
const PINNED_K2: (&str, u64) = (
    r#"{"slot":51712,"live":256,"decided":256,"conflicts":0,"frame_len":91,"leaders":102,"kappa2_est":9,"joins":346,"leaves":90,"heartbeats":3488,"slots":51712,"transmissions":516677,"deliveries":1561446,"collisions":166809,"resets":164,"reprovisions":256,"shard_undecided":[0,0],"valid":true}"#,
    0xb239_db44_a06f_5903,
);

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Heartbeats one session and folds the answer into the digest.
fn beat(svc: &Service, digest: &mut Fnv, token: u64) {
    let hb = svc.heartbeat(token).expect("live token");
    digest.bytes(&token.to_le_bytes());
    digest.bytes(&hb.slot.to_le_bytes());
    digest.bytes(&hb.color.unwrap_or(u32::MAX).to_le_bytes());
    digest.bytes(&[u8::from(hb.leader)]);
}

/// Runs the script and returns the final snapshot JSON, the heartbeat
/// digest and the final (resets, reprovisions) counters.
fn replay(shards: usize) -> (String, u64, u64, u64) {
    let svc = Service::new(ServiceConfig {
        radius: 1.0,
        kappa2: None,
        delta_cap: 16,
        n_cap: 1 << 12,
        seed: 0x5EED_0017,
        max_live: 1 << 12,
        stall_slots: STALL_SLOTS,
        shards,
    });
    let pos = |i: usize| ((i % SIDE) as f64 * SPACING, (i / SIDE) as f64 * SPACING);
    let mut tokens: Vec<u64> = (0..SIDE * SIDE)
        .map(|i| {
            let (x, y) = pos(i);
            svc.join(x, y).expect("join")
        })
        .collect();
    let mut digest = Fnv::new();
    let mut batch = 0usize;
    loop {
        svc.step(BATCH);
        batch += 1;
        // Round-robin heartbeats: 16 sessions per batch.
        for j in 0..16 {
            let at = (batch * 16 + j) % tokens.len();
            beat(&svc, &mut digest, tokens[at]);
        }
        // Churn: every 8th batch through batch 120, a stride of the
        // lattice leaves and rejoins at the same position. The leaves
        // free ids that the rejoins take back in reverse order.
        if batch.is_multiple_of(8) && batch <= 120 {
            let picks: Vec<usize> = (0..6)
                .map(|j| (batch * 37 + j * 41) % tokens.len())
                .collect();
            for &i in &picks {
                svc.leave(tokens[i]).expect("leave");
            }
            for &i in picks.iter().rev() {
                let (x, y) = pos(i);
                tokens[i] = svc.join(x, y).expect("rejoin");
            }
        }
        let snap = svc.snapshot();
        if batch > 120 && snap.valid() {
            break;
        }
        assert!(
            svc.slot() < MAX_SLOTS,
            "k={shards}: no valid coloring by slot {}",
            svc.slot()
        );
    }
    for &t in &tokens {
        beat(&svc, &mut digest, t);
    }
    let snap = svc.snapshot();
    (
        snap.to_json(),
        digest.0,
        snap.stats.resets,
        snap.stats.reprovisions,
    )
}

fn check(shards: usize, pinned: (&str, u64)) {
    let (json, digest, resets, reprovisions) = replay(shards);
    println!("k={shards}: {json}");
    println!("k={shards}: digest {digest:#018x}");
    assert!(resets > 0, "k={shards}: the watchdog never fired");
    assert!(
        reprovisions > 0,
        "k={shards}: the estimator never re-admitted"
    );
    assert_eq!(json, pinned.0, "k={shards}: final snapshot moved");
    assert_eq!(digest, pinned.1, "k={shards}: heartbeat digest moved");
}

#[test]
fn one_shard_replays_the_pinned_coloring() {
    check(1, PINNED_K1);
}

#[test]
fn two_shards_replay_the_pinned_coloring() {
    check(2, PINNED_K2);
}
