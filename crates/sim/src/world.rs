//! What a run is configured with, and what may observe it: the
//! [`WorldConfig`], the streaming [`ObsSink`] hook, and the simulated
//! backend of the runtime contract. The engine itself, [`World`], lives in
//! [`crate::shard`].

use crate::event::QueueBackend;
use crate::fault::CrashPlan;
use crate::id::ProcessId;
use crate::net::DelayModel;
use crate::node::Node;
pub use crate::shard::World;
use crate::time::Time;

/// A streaming consumer of observations.
///
/// Attached via [`World::new_with_sink`], the sink sees every observation
/// *as its emitting step's effects are routed* — in exactly the order the
/// trace would record them — so consumers can fold run output online
/// instead of materializing the full event log and replaying it through
/// [`World::into_trace`]. Combined with
/// [`WorldConfig::observation_events_off`], a run's resident footprint
/// becomes whatever the sink keeps, independent of run length.
///
/// Sinks are observers only: they cannot influence the run, and attaching
/// one never changes the schedule (no RNG draws, no event reordering).
pub trait ObsSink<O> {
    /// Called once per observation, in dispatch order.
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O);
}

/// Shared-handle convenience: a `Rc<RefCell<S>>` sink lets the caller keep
/// a handle while the world owns the boxed clone (the usual pattern for
/// recovering the folded state after the run).
impl<O, S: ObsSink<O>> ObsSink<O> for std::rc::Rc<std::cell::RefCell<S>> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.borrow_mut().on_obs(at, pid, obs);
    }
}

/// `Send`-able shared-handle convenience, for sinks that cross a thread
/// boundary (the per-shard sinks of [`World::try_new_with_shard_sinks`]).
/// Each such sink is owned by exactly one shard worker, so the mutex is
/// uncontended; it exists only to let the caller keep a recovery handle.
impl<O, S: ObsSink<O>> ObsSink<O> for std::sync::Arc<std::sync::Mutex<S>> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.lock().expect("sink poisoned").on_obs(at, pid, obs);
    }
}

/// Configuration of one run.
#[derive(Debug)]
pub struct WorldConfig {
    /// Root seed; all stochastic choices derive from it.
    pub seed: u64,
    /// Channel delay policy.
    pub delays: DelayModel,
    /// Crash schedule.
    pub crashes: CrashPlan,
    /// Record `Send`/`Deliver` events in the trace. Off by default: long
    /// sweeps only need observations.
    pub record_messages: bool,
    /// Record `Obs` events in the trace. On by default; streaming consumers
    /// turn it off and attach an [`ObsSink`] instead, so the trace no longer
    /// grows with the observation count.
    pub record_observations: bool,
    /// Coalesce all messages one atomic step sends to the same destination
    /// into a single wire envelope with a single delay draw (FIFO within
    /// the envelope). Off by default — the paper's model puts every message
    /// on the wire alone; batching is a throughput knob whose occupancy is
    /// measured by [`crate::metrics::SimMetrics::envelope_occupancy`].
    pub batch_envelopes: bool,
    /// Worker threads for [`World::run_until`]: with `threads ≥ 2` *and*
    /// at least two shards, instants execute on a persistent shard-worker
    /// pool behind a deterministic barrier merge — byte-identical to the
    /// sequential run, so this knob only buys wall-clock. A one-shard world
    /// ignores it. `1` (the default) means fully sequential.
    pub threads: usize,
}

impl WorldConfig {
    /// A failure-free, moderately asynchronous configuration.
    pub fn new(seed: u64) -> Self {
        WorldConfig {
            seed,
            delays: DelayModel::default_async(),
            crashes: CrashPlan::none(),
            record_messages: false,
            record_observations: true,
            batch_envelopes: false,
            threads: 1,
        }
    }

    /// Sets the delay model (builder style).
    pub fn delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }

    /// Sets the crash plan (builder style).
    pub fn crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Enables message recording (builder style).
    pub fn record_messages(mut self) -> Self {
        self.record_messages = true;
        self
    }

    /// Disables observation recording in the trace (builder style) — for
    /// streaming runs where an [`ObsSink`] consumes observations online.
    pub fn observation_events_off(mut self) -> Self {
        self.record_observations = false;
        self
    }

    /// Enables envelope batching (builder style).
    pub fn batch_envelopes(mut self) -> Self {
        self.batch_envelopes = true;
        self
    }

    /// A no-op: the event queue is always the timer wheel (see
    /// [`QueueBackend`], which says why this method still exists).
    pub fn queue_backend(self, _queue: QueueBackend) -> Self {
        self
    }

    /// Sets the worker-thread count (builder style). Clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl<N: Node> dinefd_runtime::Runtime<N> for World<N> {
    /// The simulated backend of the runtime contract: `on_start` steps were
    /// already dispatched at construction, so this drains the event queues to
    /// `horizon` (virtual ticks) and projects the observation events out of
    /// the recorded trace. Requires observation recording to be on (the
    /// [`WorldConfig`] default).
    fn run_to_horizon(&mut self, horizon: Time) -> Vec<dinefd_runtime::ObsRecord<N::Obs>> {
        self.run_until(horizon);
        self.trace()
            .observations()
            .map(|(at, who, obs)| dinefd_runtime::ObsRecord { at, who, obs: obs.clone() })
            .collect()
    }
}
