//! The four message types of the coloring algorithm (paper Sect. 4).
//!
//! Each variant carries `O(log n)` bits as the model requires: node IDs
//! (log n³ = 3 log n bits in the random-ID scheme), a color class
//! (≤ κ₂Δ), and a counter (bounded by `O(κ₂ γ Δ log n)` in magnitude by
//! Lemma 6).

use radio_transport::{FrameError, FramePayload, FrameReader, WireMessage};

/// Protocol-level node identifier (unique; only compared for equality,
/// never ordered or computed on — paper Sect. 2).
pub type ProtoId = u64;

/// A message on the air.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColoringMsg {
    /// `M_A^i(v, c_v)` — sent by a competing node `v ∈ A_i`, reporting
    /// its counter.
    Compete {
        /// The color class `i` being verified.
        class: u32,
        /// Sender's ID.
        sender: ProtoId,
        /// Sender's counter value at the sending slot.
        counter: i64,
    },
    /// `M_C^i(v)` — sent by a decided node `v ∈ C_i`. With `class == 0`
    /// this is the leader beacon of Algorithm 3 line 14.
    Decided {
        /// The decided color class.
        class: u32,
        /// Sender's ID.
        sender: ProtoId,
    },
    /// `M_C^0(v, w, tc)` — sent by leader `v`, assigning intra-cluster
    /// color `tc` to node `w` (Algorithm 3 line 19). Doubles as evidence
    /// that `v ∈ C_0` for third-party listeners in `A_0`.
    Assign {
        /// The assigning leader's ID.
        leader: ProtoId,
        /// The requester being served.
        to: ProtoId,
        /// The intra-cluster color (≥ 1).
        tc: u32,
    },
    /// `M_R(v, L(v))` — sent by node `v ∈ R`, requesting an
    /// intra-cluster color from its leader (Algorithm 2 line 2).
    Request {
        /// The requesting node's ID.
        sender: ProtoId,
        /// The leader being addressed.
        leader: ProtoId,
    },
}

impl ColoringMsg {
    /// If this message certifies that some node has joined `C_i`,
    /// returns `(i, that node's ID)`. `Assign` certifies its leader.
    pub fn decided_evidence(&self) -> Option<(u32, ProtoId)> {
        match *self {
            ColoringMsg::Decided { class, sender } => Some((class, sender)),
            ColoringMsg::Assign { leader, .. } => Some((0, leader)),
            _ => None,
        }
    }
}

// Wire tags for the byte encoding below. One byte each — the encoded
// sizes (9–21 bytes) keep the O(log n) message-size claim honest.
const TAG_COMPETE: u8 = 1;
const TAG_DECIDED: u8 = 2;
const TAG_ASSIGN: u8 = 3;
const TAG_REQUEST: u8 = 4;

/// The byte encoding of a [`ColoringMsg`] for a byte stream: a
/// one-byte variant tag followed by the variant's fields in
/// declaration order, fixed-width little-endian. The simulated engines
/// never serialize (messages move as values), so this codec cannot
/// perturb simulation results; the tests below pin
/// `decode(encode(m)) == m`.
impl WireMessage for ColoringMsg {
    fn encode(&self, out: &mut FramePayload) {
        match *self {
            ColoringMsg::Compete {
                class,
                sender,
                counter,
            } => {
                out.put_u8(TAG_COMPETE);
                out.put_u32(class);
                out.put_u64(sender);
                out.put_i64(counter);
            }
            ColoringMsg::Decided { class, sender } => {
                out.put_u8(TAG_DECIDED);
                out.put_u32(class);
                out.put_u64(sender);
            }
            ColoringMsg::Assign { leader, to, tc } => {
                out.put_u8(TAG_ASSIGN);
                out.put_u64(leader);
                out.put_u64(to);
                out.put_u32(tc);
            }
            ColoringMsg::Request { sender, leader } => {
                out.put_u8(TAG_REQUEST);
                out.put_u64(sender);
                out.put_u64(leader);
            }
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, FrameError> {
        let tag = r.take_u8()?;
        let msg = match tag {
            TAG_COMPETE => ColoringMsg::Compete {
                class: r.take_u32()?,
                sender: r.take_u64()?,
                counter: r.take_i64()?,
            },
            TAG_DECIDED => ColoringMsg::Decided {
                class: r.take_u32()?,
                sender: r.take_u64()?,
            },
            TAG_ASSIGN => ColoringMsg::Assign {
                leader: r.take_u64()?,
                to: r.take_u64()?,
                tc: r.take_u32()?,
            },
            TAG_REQUEST => ColoringMsg::Request {
                sender: r.take_u64()?,
                leader: r.take_u64()?,
            },
            other => return Err(FrameError::BadTag(other)),
        };
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decided_evidence_extraction() {
        assert_eq!(
            ColoringMsg::Decided {
                class: 3,
                sender: 9
            }
            .decided_evidence(),
            Some((3, 9))
        );
        assert_eq!(
            ColoringMsg::Assign {
                leader: 7,
                to: 1,
                tc: 2
            }
            .decided_evidence(),
            Some((0, 7))
        );
        assert_eq!(
            ColoringMsg::Compete {
                class: 1,
                sender: 4,
                counter: -3
            }
            .decided_evidence(),
            None
        );
        assert_eq!(
            ColoringMsg::Request {
                sender: 1,
                leader: 2
            }
            .decided_evidence(),
            None
        );
    }

    #[test]
    fn wire_codec_round_trips_every_variant() {
        let msgs = [
            ColoringMsg::Compete {
                class: 3,
                sender: u64::MAX,
                counter: -40,
            },
            ColoringMsg::Decided {
                class: 0,
                sender: 1,
            },
            ColoringMsg::Assign {
                leader: 7,
                to: 9,
                tc: 4,
            },
            ColoringMsg::Request {
                sender: 2,
                leader: 7,
            },
        ];
        for m in msgs {
            let bytes = m.to_payload();
            assert!(bytes.len() <= 21, "{m:?}: O(log n) bits on the wire");
            assert_eq!(ColoringMsg::from_payload(&bytes).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn wire_codec_rejects_junk() {
        assert!(matches!(
            ColoringMsg::from_payload(&[0xEE]),
            Err(FrameError::BadTag(0xEE))
        ));
        // Truncated Compete body.
        assert!(ColoringMsg::from_payload(&[TAG_COMPETE, 1, 2]).is_err());
        // Trailing bytes after a complete Request.
        let mut bytes = ColoringMsg::Request {
            sender: 1,
            leader: 2,
        }
        .to_payload();
        bytes.push(0);
        assert!(matches!(
            ColoringMsg::from_payload(&bytes),
            Err(FrameError::Trailing)
        ));
    }

    #[test]
    fn message_is_small() {
        // Messages must stay O(log n) bits; concretely the enum should
        // stay within a couple of machine words.
        assert!(std::mem::size_of::<ColoringMsg>() <= 32);
    }
}
