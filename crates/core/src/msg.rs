//! Protocol messages exchanged between caches and home directories.

use dirext_network::TrafficClass;
use dirext_trace::{BlockAddr, NodeId, WORD_BYTES};

/// Fixed per-message overhead in bytes: message type, block address, and
/// source/requester identifiers.
pub const HEADER_BYTES: u32 = 8;
/// A full cache-block payload in bytes.
pub const DATA_BYTES: u32 = 32;

/// The kind (and payload summary) of a protocol message.
///
/// Message kinds map one-to-one onto the transactions of the paper's
/// protocol description (Sections 2 and 3). Data payloads are not carried
/// explicitly — the simulator tracks a per-block version instead — but
/// [`MsgKind::bytes`] accounts for them in network traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    // ------------------------------------------------- cache -> home
    /// Read-miss request (also used for non-binding prefetches).
    ReadReq {
        /// True when issued by the prefetch unit rather than a demand miss.
        prefetch: bool,
    },
    /// Ownership request for a write to a shared or invalid block.
    OwnReq {
        /// True when the requester holds no valid copy and needs the data.
        need_data: bool,
    },
    /// Competitive-update write: the dirty words of one write-cache block.
    UpdateReq {
        /// Per-word dirty mask (bit i = word i modified).
        dirty_words: u8,
    },
    /// Replacement of an exclusive copy, carrying data if it was written.
    WritebackReq {
        /// Whether the block was modified while held (false for the
        /// replacement of an unwritten migratory copy).
        written: bool,
    },
    /// Replacement hint for a shared copy (keeps the full-map directory
    /// exact; carries no data).
    SharedReplHint,

    // ------------------------------------------------- home -> cache
    /// Reply to a `ReadReq`, carrying the block.
    ReadReply {
        /// Grant an exclusive copy (migratory optimization) instead of a
        /// shared one.
        exclusive: bool,
    },
    /// Ownership acknowledgment after all invalidations completed.
    OwnAck {
        /// Whether the block data accompanies the acknowledgment.
        with_data: bool,
    },
    /// Completion of an `UpdateReq` fan-out.
    UpdateDone {
        /// No other cache holds a copy and the writer does: the home has
        /// granted the writer exclusive ownership, so its further writes
        /// stay local (the update protocol degenerates to invalidate for
        /// effectively private data).
        exclusive: bool,
    },
    /// Acknowledgment of a writeback.
    WritebackAck,
    /// Negative acknowledgment: the home cannot service the request in its
    /// current state (the requester is still the registered owner because
    /// its writeback is in flight). The requester retries after an
    /// exponential backoff.
    Nack,

    // ------------------------------------------------- home -> third party
    /// Invalidate your copy.
    Inval,
    /// Send the block to home and downgrade to shared (read of a dirty
    /// block).
    Fetch,
    /// Send the block to home and invalidate (ownership transfer or
    /// migratory read).
    FetchInval,
    /// Competitive update: apply these modified words to your copy.
    Update {
        /// Per-word dirty mask.
        dirty_words: u8,
    },
    /// CW+M migratory detection: report whether you are actively reading
    /// this block, give up your copy otherwise.
    Interrogate,

    // ------------------------------------------------- third party -> home
    /// Acknowledgment of an `Inval`.
    InvalAck,
    /// Reply to `Fetch`, carrying the block.
    FetchReply {
        /// Whether the owner had modified the block.
        written: bool,
    },
    /// Reply to `FetchInval`, carrying the block if written.
    FetchInvalReply {
        /// Whether the owner had modified the block (false reverts the
        /// migratory classification).
        written: bool,
    },
    /// Acknowledgment of an `Update`.
    UpdateAck {
        /// Whether the competitive counter reached zero and the copy
        /// self-invalidated (home clears the presence bit).
        invalidated: bool,
    },
    /// Reply to an `Interrogate`.
    InterrogateReply {
        /// True: the cache keeps its copy and vetoes the migratory
        /// classification. False: the cache gave up its copy.
        keep: bool,
    },

    // ------------------------------------------------- synchronization
    /// Request a queue-based lock at its home memory.
    AcqReq,
    /// Lock granted to the requester.
    AcqGrant,
    /// Release a lock (home passes it to the next waiter).
    RelReq,
    /// Release acknowledgment (used under SC, where the processor stalls
    /// until the release is globally performed).
    RelAck,
    /// Barrier arrival.
    BarArrive {
        /// Barrier episode.
        id: u32,
    },
    /// Barrier release broadcast.
    BarRelease {
        /// Barrier episode.
        id: u32,
    },
}

impl MsgKind {
    /// Whether this message carries a full block of data.
    pub fn carries_block(self) -> bool {
        matches!(
            self,
            MsgKind::ReadReply { .. }
                | MsgKind::OwnAck { with_data: true }
                | MsgKind::FetchReply { .. }
                | MsgKind::FetchInvalReply { written: true }
                | MsgKind::WritebackReq { written: true }
        )
    }

    /// Message size on the network in bytes (header plus payload).
    pub fn bytes(self) -> u32 {
        match self {
            k if k.carries_block() => HEADER_BYTES + DATA_BYTES,
            MsgKind::UpdateReq { dirty_words } | MsgKind::Update { dirty_words } => {
                HEADER_BYTES + dirty_words.count_ones() * WORD_BYTES as u32
            }
            _ => HEADER_BYTES,
        }
    }

    /// Traffic class for network accounting.
    pub fn class(self) -> TrafficClass {
        match self {
            MsgKind::UpdateReq { .. }
            | MsgKind::Update { .. }
            | MsgKind::UpdateDone { .. }
            | MsgKind::UpdateAck { .. } => TrafficClass::Update,
            MsgKind::AcqReq
            | MsgKind::AcqGrant
            | MsgKind::RelReq
            | MsgKind::RelAck
            | MsgKind::BarArrive { .. }
            | MsgKind::BarRelease { .. } => TrafficClass::Sync,
            k if k.carries_block() => TrafficClass::Data,
            _ => TrafficClass::Control,
        }
    }

    /// Whether this is a *request* that must queue when the directory entry
    /// is in a transient state (replies and hints never queue).
    pub fn queues_at_home(self) -> bool {
        matches!(
            self,
            MsgKind::ReadReq { .. }
                | MsgKind::OwnReq { .. }
                | MsgKind::UpdateReq { .. }
                | MsgKind::WritebackReq { .. }
        )
    }
}

/// A complete protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// The block (or the lock/barrier variable's block) this message is
    /// about.
    pub block: BlockAddr,
    /// Message kind and payload summary.
    pub kind: MsgKind,
    /// Debug version stamp for data-carrying messages (the simulator's
    /// coherence-value check); zero for control messages.
    pub version: u64,
    /// Incarnation stamp for crash/recovery fencing: the epoch of the one
    /// endpoint the delivery fence checks — the sender of a home-bound
    /// message, the receiver of a cache-bound one. The machine layer
    /// stamps it at send time; a delivery whose stamp no longer matches
    /// that endpoint's current epoch is from (or to) a dead incarnation
    /// and is dropped. Zero everywhere when node faults are off.
    pub epoch: u16,
}

impl Msg {
    /// Network envelope (size, class, endpoints) for this message.
    pub fn envelope(&self) -> dirext_network::Envelope {
        dirext_network::Envelope::new(self.src, self.dst, self.kind.bytes(), self.kind.class())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(MsgKind::ReadReq { prefetch: false }.bytes(), 8);
        assert_eq!(MsgKind::ReadReply { exclusive: false }.bytes(), 40);
        assert_eq!(MsgKind::OwnAck { with_data: false }.bytes(), 8);
        assert_eq!(MsgKind::OwnAck { with_data: true }.bytes(), 40);
        // Update of 3 dirty words: 8 + 12.
        assert_eq!(
            MsgKind::Update {
                dirty_words: 0b0000_0111
            }
            .bytes(),
            20
        );
        assert_eq!(MsgKind::UpdateReq { dirty_words: 0xFF }.bytes(), 40);
        // An unwritten migratory writeback carries no data.
        assert_eq!(MsgKind::WritebackReq { written: false }.bytes(), 8);
        assert_eq!(MsgKind::WritebackReq { written: true }.bytes(), 40);
        assert_eq!(MsgKind::FetchInvalReply { written: false }.bytes(), 8);
    }

    #[test]
    fn classes() {
        assert_eq!(MsgKind::Inval.class(), TrafficClass::Control);
        assert_eq!(
            MsgKind::ReadReply { exclusive: true }.class(),
            TrafficClass::Data
        );
        assert_eq!(
            MsgKind::Update { dirty_words: 1 }.class(),
            TrafficClass::Update
        );
        assert_eq!(MsgKind::AcqReq.class(), TrafficClass::Sync);
        assert_eq!(MsgKind::BarRelease { id: 3 }.class(), TrafficClass::Sync);
    }

    #[test]
    fn nack_is_a_small_control_message() {
        assert_eq!(MsgKind::Nack.bytes(), HEADER_BYTES);
        assert_eq!(MsgKind::Nack.class(), TrafficClass::Control);
        assert!(!MsgKind::Nack.carries_block());
        assert!(!MsgKind::Nack.queues_at_home());
    }

    #[test]
    fn queueing_discipline() {
        assert!(MsgKind::ReadReq { prefetch: true }.queues_at_home());
        assert!(MsgKind::OwnReq { need_data: false }.queues_at_home());
        assert!(!MsgKind::InvalAck.queues_at_home());
        assert!(!MsgKind::SharedReplHint.queues_at_home());
        assert!(!MsgKind::FetchInvalReply { written: true }.queues_at_home());
    }

    #[test]
    fn envelope_reflects_kind() {
        let m = Msg {
            src: NodeId(1),
            dst: NodeId(2),
            block: BlockAddr::from_index(7),
            kind: MsgKind::ReadReply { exclusive: false },
            version: 3,
            epoch: 0,
        };
        let env = m.envelope();
        assert_eq!(env.bytes, 40);
        assert_eq!(env.class, TrafficClass::Data);
        assert!(!env.is_local());
    }
}
