//! The black-box interface over which the necessity reduction quantifies.
//!
//! The paper's reduction works with *any* solution to WF-◇WX; this module
//! pins down the corresponding Rust interface. A [`DiningParticipant`] is one
//! diner's endpoint of one dining instance. The host (a workload driver, or
//! the witness/subject machinery of `dinefd-core`) invokes it with a
//! [`DiningIo`] capability and routes the messages it emits to the peer
//! participants of the same instance.
//!
//! ## Host contract
//!
//! * `hungry` may only be called when [`DiningParticipant::phase`] is
//!   `Thinking`; afterwards the phase is `Hungry` (or already `Eating` if the
//!   protocol granted immediately).
//! * `exit_eating` may only be called when the phase is `Eating`; afterwards
//!   the phase is `Exiting` or already `Thinking`.
//! * Every message emitted must be delivered to the addressed peer of the
//!   *same instance* (the host wraps messages with an instance tag).
//! * `on_tick` must be invoked infinitely often for live processes (it is
//!   where suspicion-driven protocols re-evaluate their failure detector).
//!
//! Phase changes are the protocol's own doing; hosts detect them by
//! comparing `phase()` before and after each call.

use std::fmt;

use dinefd_fd::FdQuery;
use dinefd_sim::{ProcessId, Time};

use crate::abstract_dining::AbMsg;
use crate::delayed::DcMsg;
use crate::fair::FairMsg;
use crate::ftme::FtMsg;
use crate::hygienic::HyMsg;
use crate::state::DinerPhase;
use crate::unfair::UfMsg;
use crate::wfdx::WxMsg;

/// Union of the message types of every dining implementation in this crate.
///
/// Using one concrete message enum (rather than an associated type) keeps
/// participants object-safe, so hosts and the experiment harness can treat a
/// `Box<dyn DiningParticipant>` as the literal black box of the paper.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DiningMsg {
    /// Chandy–Misra hygienic algorithm traffic.
    Hygienic(HyMsg),
    /// ◇P-based wait-free ◇WX algorithm traffic.
    WfDx(WxMsg),
    /// Delayed-convergence (§3 pathological) service traffic.
    Delayed(DcMsg),
    /// Abstract spec-constrained service traffic.
    Abstract(AbMsg),
    /// T-based perpetual-WX (FTME) traffic.
    Ftme(FtMsg),
    /// Eventually-2-fair algorithm traffic.
    Fair(FairMsg),
    /// Escalating-unfairness service traffic.
    Unfair(UfMsg),
}

/// Effects collected from one participant invocation.
#[derive(Debug, Default)]
pub struct DiningEffects {
    /// Messages to deliver to peer participants of the same instance.
    pub sends: Vec<(ProcessId, DiningMsg)>,
}

/// The capability a participant has during one invocation: send messages to
/// instance peers and query the local failure-detector module.
pub struct DiningIo<'a> {
    me: ProcessId,
    now: Time,
    fd: &'a dyn FdQuery,
    sends: Vec<(ProcessId, DiningMsg)>,
}

impl<'a> DiningIo<'a> {
    /// Builds the capability for one invocation.
    pub fn new(me: ProcessId, now: Time, fd: &'a dyn FdQuery) -> Self {
        DiningIo { me, now, fd, sends: Vec::new() }
    }

    /// Builds the capability reusing a caller-owned send buffer (cleared
    /// here), so hosts invoking participants in a hot loop allocate nothing
    /// per invocation: drain [`DiningEffects::sends`] after
    /// [`DiningIo::finish`] and hand the vector back next time.
    pub fn with_scratch(
        me: ProcessId,
        now: Time,
        fd: &'a dyn FdQuery,
        mut scratch: Vec<(ProcessId, DiningMsg)>,
    ) -> Self {
        scratch.clear();
        DiningIo { me, now, fd, sends: scratch }
    }

    /// The hosting process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current global time.
    ///
    /// For *model artifacts only*: the coordinator-based services compare it
    /// against their scripted convergence parameter (which stands for "the
    /// instant this box's internal ◇P happens to converge in this run").
    /// Genuine protocol logic never branches on it.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Queries the local failure-detector module about `q`.
    pub fn suspected(&self, q: ProcessId) -> bool {
        self.fd.suspected(self.me, q, self.now)
    }

    /// Sends `msg` to the participant of the same instance at `to`.
    pub fn send(&mut self, to: ProcessId, msg: DiningMsg) {
        self.sends.push((to, msg));
    }

    /// Finishes the invocation, yielding the buffered effects.
    pub fn finish(self) -> DiningEffects {
        DiningEffects { sends: self.sends }
    }
}

impl fmt::Debug for DiningIo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiningIo")
            .field("me", &self.me)
            .field("pending_sends", &self.sends.len())
            .finish()
    }
}

/// One diner's endpoint of one dining instance — the paper's black box.
///
/// `Send` is a supertrait so that reduction hosts holding boxed
/// participants can ride the parallel shard workers of
/// `dinefd_sim::World`; participants are self-contained state
/// machines, so the bound costs implementations nothing.
pub trait DiningParticipant: fmt::Debug + Send {
    /// The local client became hungry.
    fn hungry(&mut self, io: &mut DiningIo<'_>);

    /// The local client finished its critical section.
    fn exit_eating(&mut self, io: &mut DiningIo<'_>);

    /// A message from the peer participant `from` of the same instance.
    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg);

    /// Periodic re-evaluation hook (failure-detector polling).
    fn on_tick(&mut self, _io: &mut DiningIo<'_>) {}

    /// Current phase of this diner in this instance.
    fn phase(&self) -> DinerPhase;
}

/// A failure detector that never suspects anyone — for protocols that do not
/// consult an oracle (the crash-oblivious baseline) and for tests.
#[derive(Clone, Copy, Debug)]
pub struct NoOracle(
    /// System size.
    pub usize,
);

impl FdQuery for NoOracle {
    fn suspected(&self, _watcher: ProcessId, _subject: ProcessId, _now: Time) -> bool {
        false
    }

    fn len(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_buffers_sends_and_queries_fd() {
        let fd = NoOracle(3);
        let mut io = DiningIo::new(ProcessId(0), Time(5), &fd);
        assert_eq!(io.me(), ProcessId(0));
        assert!(!io.suspected(ProcessId(1)));
        io.send(ProcessId(1), DiningMsg::Hygienic(HyMsg::ForkRequest));
        io.send(ProcessId(2), DiningMsg::Hygienic(HyMsg::Fork));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 2);
        assert_eq!(fx.sends[0].0, ProcessId(1));
    }

    #[test]
    fn no_oracle_reports_size() {
        let fd = NoOracle(7);
        assert_eq!(fd.len(), 7);
        assert!(!fd.is_empty());
    }
}
