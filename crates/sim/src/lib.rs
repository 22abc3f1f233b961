//! # `dinefd-sim` — asynchronous message-passing system simulator
//!
//! This crate is the *system substrate* for the `dinefd` reproduction of
//! "The Weakest Failure Detector for Wait-Free Dining under Eventual Weak
//! Exclusion" (Sastry, Pike, Welch; SPAA'09, corrigendum SPAA'10).
//!
//! The paper's technical framework (its Section 4) posits:
//!
//! * a finite set of processes `Π` executing **atomic steps** — in each step a
//!   process receives messages, makes a state transition, and sends messages;
//! * **reliable, non-FIFO channels**: every message sent to a correct process
//!   is eventually received; messages are neither lost, duplicated, nor
//!   corrupted; delivery delay is unbounded;
//! * **crash faults**: a faulty process ceases execution without warning and
//!   never recovers; correct processes take infinitely many steps;
//! * a **discrete global clock** `T` (ticks ∈ ℕ) that is a conceptual device
//!   inaccessible to the processes themselves.
//!
//! The simulator implements exactly these axioms as a deterministic
//! discrete-event machine:
//!
//! * [`World`] owns a set of [`node::Node`]s and per-shard timer wheels
//!   ([`wheel::TimerWheel`]) of events keyed by virtual [`time::Time`] (the
//!   paper's clock `T`). It is the one simulator engine: one shard by
//!   default, `k` shards on request ([`shard`] explains why the schedule is
//!   the same for every `k`, and how shards run on worker threads);
//! * sends are assigned delivery delays by a pluggable [`net::DelayModel`]
//!   (uniform, heavy-tailed, partially synchronous with a global
//!   stabilization time, or a scripted adversary), one copy per sender —
//!   varying delays make the channels non-FIFO while queued delivery keeps
//!   them reliable;
//! * [`fault::CrashPlan`] injects crash faults at chosen instants; events of
//!   a crashed process are discarded, so it "ceases execution without
//!   warning";
//! * every run records a [`trace::Trace`] of sends, deliveries, crashes and
//!   application-level observations, over which the temporal property
//!   checkers in [`props`] (and in the `dinefd-fd` / `dinefd-dining` crates)
//!   evaluate the paper's specifications.
//!
//! Determinism: all randomness flows from a single [`rng::SplitMix64`] seed,
//! so every run is exactly reproducible — a necessity for the experiment
//! tables in `EXPERIMENTS.md`.
//!
//! Observability: every world carries a [`metrics::SimMetrics`] set
//! (counters, queue-depth gauge, per-delay histogram) updated inline on the
//! event loop; [`metrics::Profiler`] splits experiment wall-clock into
//! phases. Both feed the machine-readable `BENCH_*.json` perf reports.
//!
//! Streaming: a [`world::ObsSink`] attached via [`World::new_with_sink`]
//! (or one per shard, via [`World::try_new_with_shard_sinks`]) receives
//! every observation as it is routed, so consumers can fold run output
//! online instead of materializing the full trace; combined with
//! [`world::WorldConfig::observation_events_off`] the run's resident
//! footprint no longer grows with its length. Optional *envelope batching*
//! ([`world::WorldConfig::batch_envelopes`], off by default) coalesces all
//! messages one step sends to the same destination into a single wire
//! envelope with a single delay draw, FIFO-preserved within the envelope;
//! occupancy lands in [`metrics::SimMetrics::envelope_occupancy`].
//!
//! Scenarios: [`scenario_dsl::Scenario`] is a serializable description of
//! one adversarial setup — delay model, crash schedule, seeded mutation,
//! fuzz budgets — shared verbatim by the simulator, the bounded explorer,
//! and the `dinefd-fuzz` schedule fuzzer.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod props;
pub mod scenario_dsl;
pub mod shard;
pub mod stats;
pub mod trace;
pub mod wheel;
pub mod world;

// The runtime-neutral layer (process abstraction, virtual time, RNG, clock)
// lives in `dinefd-runtime`; re-export its modules under the historical
// paths so `dinefd_sim::id::ProcessId` etc. keep working.
pub use dinefd_runtime::{clock, id, node, rng, time};

pub use dinefd_runtime::{
    Clock, ManualClock, MonotonicClock, ObsRecord, Runtime, Wire, WireError, WireReader, WireWriter,
};
pub use event::QueueBackend;
pub use fault::CrashPlan;
pub use id::ProcessId;
pub use metrics::{
    Counter, Gauge, Histogram, MetricMap, Profiler, RunProfile, SimMetrics, WorkerStats,
};
pub use net::{Adversary, DelayModel};
pub use node::{Context, Node, TimerId};
pub use props::{stabilization_time, BoolTimeline};
pub use rng::SplitMix64;
pub use scenario_dsl::{Scenario as ScenarioDoc, ScenarioError};
pub use shard::{ShardBuildError, ShardedWorld, World};
pub use stats::Summary;
pub use time::Time;
pub use trace::{Trace, TraceEvent};
pub use world::{ObsSink, WorldConfig};
