//! What the simulator schedules: the [`EventKind`]s its per-shard timer
//! wheels ([`crate::wheel::TimerWheel`]) hold.

use crate::id::ProcessId;
use crate::node::TimerId;

/// What happens at a scheduled instant.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// Delivery of a message on the channel `from → to`.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payload.
        msg: M,
    },
    /// Delivery of a batched envelope on the channel `from → to`: every
    /// message some step flushed toward `to`, coalesced under one delay
    /// draw. Messages are dispatched in send order (FIFO within the
    /// envelope), each as its own atomic step of the receiver.
    Envelope {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payloads, in send order.
        msgs: Vec<M>,
    },
    /// A local timer of `pid` fires.
    Timer {
        /// Owner of the timer.
        pid: ProcessId,
        /// Which timer.
        id: TimerId,
    },
    /// `pid` crashes (ceases execution permanently).
    Crash {
        /// The process that crashes.
        pid: ProcessId,
    },
}

/// The event-queue backend: a no-op with one value. The simulator always
/// runs per-shard timer wheels.
///
/// This type, [`crate::WorldConfig::queue_backend`] and
/// `dinefd_core::Scenario::queue` exist only so the frozen `perfbench`
/// package keeps building; the next change to the benchmark should delete
/// all three.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timer wheel ([`crate::wheel`]).
    #[default]
    Wheel,
}
