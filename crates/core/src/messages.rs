//! The four message types of the coloring algorithm (paper Sect. 4).
//!
//! Each variant carries `O(log n)` bits as the model requires: node IDs
//! (log n³ = 3 log n bits in the random-ID scheme), a color class
//! (≤ κ₂Δ), and a counter (bounded by `O(κ₂ γ Δ log n)` in magnitude by
//! Lemma 6).

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
    fn message_is_small() {
        // Messages must stay O(log n) bits; concretely the enum should
        // stay within a couple of machine words.
        assert!(std::mem::size_of::<ColoringMsg>() <= 32);
    }
}
