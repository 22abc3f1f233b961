//! The simulator engine: one deterministic event loop over `k` shards,
//! runnable sequentially or on a pool of shard-worker threads.
//!
//! A [`World`] partitions its processes into `k ≥ 1` shards, each owning
//! the processes with `pid.index() % k == shard` and a private
//! [`TimerWheel`] of their pending events. [`World::new`] builds one shard;
//! [`World::try_new`] and its siblings take the shard count. Shards exchange
//! only cross-shard messages; everything else (timers, same-shard sends)
//! stays local. The extraction host partitions pairs by the
//! `witness_by_subject` index key — the witness pid — so `pid % k` is
//! exactly a pair partition there.
//!
//! ## The canonical merge key
//!
//! Same-instant events are ordered by a **canonical key**
//! `(time, class, source pid, source seq)` rather than by any queue's
//! scheduling counter:
//!
//! * `class 0` — crash-plan events; `source seq` is the plan index;
//! * `class 1` — node effects (sends, envelopes, timers); `source seq` is a
//!   per-source-pid monotone effect counter.
//!
//! Keys are unique (per-source counters never repeat), so ordering by key
//! is a total order — and because it never mentions shards, the schedule is
//! **independent of the shard count**: the same seed produces a
//! byte-identical trace and metric set for any `k`. The per-instant barrier
//! is sound because every delay and timer is at least one tick
//! ([`crate::net::DelayModel::sample`] and
//! [`crate::node::Context::set_timer`] both clamp), so executing an instant
//! can only create strictly-later events.
//!
//! Shard-count independence also requires the *randomness* to be
//! per-process rather than global: each process gets its own clone of the
//! configured delay model (scripted adversaries included, see
//! [`crate::net::Adversary`]) and its own forked delay-RNG, so the draws a
//! sender makes never depend on how senders are interleaved across shards.
//!
//! ## Emission logs
//!
//! Every event's *state effects* are confined to the shard that executes it
//! (a delivery steps the destination, a timer or crash its owner, and all
//! of a step's metrics, RNG draws, and effect counters belong to that same
//! pid), so a shard can execute its slice of an instant **locally, in local
//! key order**, without observing any other shard. The only globally
//! ordered artifacts — trace events and streamed observations — are not
//! emitted inline but appended to a per-shard **emission log** tagged with
//! the executing event's canonical key. After every instant the coordinator
//! concatenates the shard logs (in shard order), stably sorts by key, and
//! replays: because keys are unique per event and one event's emissions are
//! contiguous in a single shard's log, the replay reproduces exactly the
//! order a single global key-sorted execution would have produced.
//!
//! Both the sequential [`World::step_instant`] and the parallel runner
//! drive this *same* loop, so parallel determinism is structural rather
//! than a discipline over duplicated code.
//!
//! ## The instant-barrier protocol
//!
//! With [`crate::world::WorldConfig::threads`] ≥ 2 (and ≥ 2 shards),
//! [`World::run_until`] moves the shard states onto a pool of
//! scoped worker threads ([`crate::pool`]); worker `w` owns shards
//! `s % workers == w`. Per simulated instant the coordinator:
//!
//! 1. computes the global minimum pending time over every shard's reported
//!    wheel minimum *and* the not-yet-delivered cross-shard inbox entries;
//! 2. sends each worker a step message carrying that instant plus all
//!    pending inbox entries for its shards (whatever their delivery time —
//!    the worker folds them into its wheels);
//! 3. workers execute due shards concurrently — cross-shard effects go to
//!    per-destination outboxes, emissions to the per-shard log — and reply
//!    with logs, outboxes, and new queue minima;
//! 4. the coordinator routes outboxes into inboxes, merges and replays the
//!    logs exactly as in the sequential path, and updates the depth gauges.
//!
//! Dropping the step channels shuts the workers down; each returns its
//! shard states (reinstalled in the world) and a [`WorkerStats`] of
//! busy/barrier-wait wall-clock. Those stats are *deliberately not* part of
//! [`World::metrics_map`], which stays byte-identical across thread
//! counts; read them via [`World::worker_stats`].
//!
//! ## Queue-depth accounting
//!
//! Per-shard `queue_depth` gauges meter each shard's own backlog, but the
//! *sum of their high-water marks* is not shard-count invariant (the peaks
//! need not coincide in time). The coordinator therefore also tracks a
//! global gauge of the instantaneous total backlog across shards, updated
//! every instant; its high water is what [`World::metrics_map`]
//! exports as `queue_depth_high_water`, and it is byte-identical across
//! shard counts. It never exceeds the summed per-shard marks — a pinned
//! test invariant. In parallel runs the coordinator maintains shadow
//! gauges (a shard's depth is its wheel length plus its undelivered inbox
//! entries — exactly its sequential wheel length) and writes them back on
//! shutdown.
//!
//! ## Crash semantics at time zero
//!
//! A process whose crash is scheduled at `Time::ZERO` is *dead from
//! birth*: it takes no steps at all — in particular its `on_start` step is
//! suppressed, so it can neither send messages nor arm timers. (Start steps
//! execute at construction, before the first instant, so the crash plan's
//! t=0 entries are applied before start dispatch rather than queued.) This
//! matches the paper's model, where a faulty process "ceases execution
//! without warning" — a process that crashes at the initial instant never
//! executed at all.

use std::sync::mpsc;
use std::sync::Arc;

use crate::clock::{Clock, MonotonicClock};
use crate::event::EventKind;
use crate::id::ProcessId;
use crate::metrics::{Gauge, MetricMap, SimMetrics, WorkerStats};
use crate::net::DelayModel;
use crate::node::{Context, Node, TimerId};
use crate::pool;
use crate::rng::SplitMix64;
use crate::time::Time;
use crate::trace::{Trace, TraceEvent};
use crate::wheel::TimerWheel;
use crate::world::{ObsSink, WorldConfig};

/// Crash-plan events sort before node effects at the same instant.
const CLASS_CRASH: u8 = 0;
/// Node effects (sends, envelopes, timers).
const CLASS_EFFECT: u8 = 1;

/// The canonical merge key minus the time (which the wheels key).
type MergeKey = (u8, u32, u64);

/// One pending event with its canonical merge key (minus the time).
type Pending<M> = (u8, u32, u64, EventKind<M>);

/// A globally ordered emission produced while executing one event: a trace
/// record, or an observation bound for the coordinator-side sink.
#[derive(Debug)]
enum Emit<M, O> {
    Trace(TraceEvent<M, O>),
    Obs(ProcessId, O),
}

/// One emission-log entry: the executing event's key plus the emission.
type LogEntry<M, O> = (MergeKey, Emit<M, O>);

/// A cross-shard effect: destination shard, delivery instant, event.
type OutboxEntry<M> = (usize, Time, Pending<M>);

/// Cross-shard effects the coordinator holds for one destination shard.
type Inbox<M> = Vec<(Time, Pending<M>)>;

/// Why a sharded [`World`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBuildError {
    /// `shards == 0` was requested.
    NoShards,
}

impl std::fmt::Display for ShardBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardBuildError::NoShards => f.write_str("a world needs at least one shard"),
        }
    }
}

impl std::error::Error for ShardBuildError {}

/// One shard's complete execution state: its slice of the processes (local
/// index `pid.index() / k`), their RNGs, delay models, and effect
/// counters, the shard's event wheel, metrics, optional streaming sink,
/// and scratch buffers. This is the unit a worker thread owns.
struct ShardState<N: Node> {
    idx: usize,
    k: usize,
    n_total: usize,
    now: Time,
    nodes: Vec<N>,
    crashed: Vec<bool>,
    node_rngs: Vec<SplitMix64>,
    send_rngs: Vec<SplitMix64>,
    send_delays: Vec<DelayModel>,
    /// Per-process monotone effect counters (the canonical-key `seq`).
    effect_seq: Vec<u64>,
    queue: TimerWheel<Pending<N::Msg>>,
    metrics: SimMetrics,
    /// Per-shard streaming sink; sees this shard's observations in local
    /// execution order (the sequential stream's projection onto the shard).
    sink: Option<Box<dyn ObsSink<N::Obs> + Send>>,
    record_messages: bool,
    /// Whether observations must be logged for coordinator replay (trace
    /// recording or a global sink is active).
    log_obs: bool,
    batch_envelopes: bool,
    /// Canonical key of the event currently executing; tags log entries.
    cur_key: MergeKey,
    // Reusable effect buffers (avoid per-step allocation); envelope
    // payload vectors cycle shard → event → shard through the pool.
    sends_buf: Vec<(ProcessId, N::Msg)>,
    timers_buf: Vec<(u64, TimerId)>,
    obs_buf: Vec<N::Obs>,
    envelope_pool: Vec<Vec<N::Msg>>,
    groups_buf: Vec<(ProcessId, Vec<N::Msg>)>,
    batch_buf: Vec<Pending<N::Msg>>,
}

impl<N: Node> ShardState<N> {
    /// Local index of an owned pid.
    #[inline]
    fn local(&self, pid: ProcessId) -> usize {
        debug_assert_eq!(
            pid.index() % self.k,
            self.idx,
            "{pid} does not live on shard {}",
            self.idx
        );
        pid.index() / self.k
    }

    /// Executes every owned event due at instant `t`, in canonical-key
    /// order, appending emissions to `log` and cross-shard effects to
    /// `outbox`. The caller guarantees `t` is this shard's wheel minimum.
    fn run_instant(
        &mut self,
        t: Time,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        self.now = t;
        let mut batch = std::mem::take(&mut self.batch_buf);
        debug_assert!(batch.is_empty());
        while self.queue.peek_time() == Some(t) {
            batch.push(self.queue.pop().expect("peeked event exists").1);
        }
        // Local slice of the deterministic merge: keys are unique, so
        // shard-by-shard key order composes to the global key order.
        batch.sort_by_key(|a| (a.0, a.1, a.2));
        for (class, source, seq, kind) in batch.drain(..) {
            self.cur_key = (class, source, seq);
            self.execute(kind, log, outbox);
        }
        self.batch_buf = batch;
    }

    fn execute(
        &mut self,
        kind: EventKind<N::Msg>,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        match kind {
            EventKind::Crash { pid } => {
                let l = self.local(pid);
                if !self.crashed[l] {
                    self.crashed[l] = true;
                    self.metrics.crash_events.inc();
                    log.push((self.cur_key, Emit::Trace(TraceEvent::Crash { at: self.now, pid })));
                }
            }
            EventKind::Timer { pid, id } => {
                if !self.crashed[self.local(pid)] {
                    self.metrics.timer_fires.inc();
                    self.dispatch_timer(pid, id, log, outbox);
                }
            }
            EventKind::Deliver { from, to, msg } => {
                if !self.crashed[self.local(to)] {
                    self.metrics.messages_delivered.inc();
                    if self.record_messages {
                        let at = self.now;
                        log.push((
                            self.cur_key,
                            Emit::Trace(TraceEvent::Deliver { at, from, to, msg: msg.clone() }),
                        ));
                    }
                    self.dispatch_message(to, from, msg, log, outbox);
                } else {
                    self.metrics.messages_dropped.inc();
                }
            }
            EventKind::Envelope { from, to, mut msgs } => {
                if !self.crashed[self.local(to)] {
                    for msg in msgs.drain(..) {
                        self.metrics.messages_delivered.inc();
                        if self.record_messages {
                            let at = self.now;
                            log.push((
                                self.cur_key,
                                Emit::Trace(TraceEvent::Deliver { at, from, to, msg: msg.clone() }),
                            ));
                        }
                        self.dispatch_message(to, from, msg, log, outbox);
                    }
                } else {
                    self.metrics.messages_dropped.add(msgs.len() as u64);
                    msgs.clear();
                }
                self.envelope_pool.push(msgs);
            }
        }
    }

    fn dispatch_start(
        &mut self,
        pid: ProcessId,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        let l = self.local(pid);
        let (sends, timers, obs) = {
            let mut ctx = Context::new(
                pid,
                self.now,
                &mut self.sends_buf,
                &mut self.timers_buf,
                &mut self.obs_buf,
                &mut self.node_rngs[l],
            );
            self.nodes[l].on_start(&mut ctx);
            (
                std::mem::take(&mut self.sends_buf),
                std::mem::take(&mut self.timers_buf),
                std::mem::take(&mut self.obs_buf),
            )
        };
        self.route_effects(pid, sends, timers, obs, log, outbox);
    }

    fn dispatch_message(
        &mut self,
        pid: ProcessId,
        from: ProcessId,
        msg: N::Msg,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        let l = self.local(pid);
        let (sends, timers, obs) = {
            let mut ctx = Context::new(
                pid,
                self.now,
                &mut self.sends_buf,
                &mut self.timers_buf,
                &mut self.obs_buf,
                &mut self.node_rngs[l],
            );
            self.nodes[l].on_message(&mut ctx, from, msg);
            (
                std::mem::take(&mut self.sends_buf),
                std::mem::take(&mut self.timers_buf),
                std::mem::take(&mut self.obs_buf),
            )
        };
        self.route_effects(pid, sends, timers, obs, log, outbox);
    }

    fn dispatch_timer(
        &mut self,
        pid: ProcessId,
        id: TimerId,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        let l = self.local(pid);
        let (sends, timers, obs) = {
            let mut ctx = Context::new(
                pid,
                self.now,
                &mut self.sends_buf,
                &mut self.timers_buf,
                &mut self.obs_buf,
                &mut self.node_rngs[l],
            );
            self.nodes[l].on_timer(&mut ctx, id);
            (
                std::mem::take(&mut self.sends_buf),
                std::mem::take(&mut self.timers_buf),
                std::mem::take(&mut self.obs_buf),
            )
        };
        self.route_effects(pid, sends, timers, obs, log, outbox);
    }

    /// Next canonical-key sequence number for effects of local process `l`.
    #[inline]
    fn next_effect_seq(&mut self, l: usize) -> u64 {
        let seq = self.effect_seq[l];
        self.effect_seq[l] = seq + 1;
        seq
    }

    /// Resolves the absolute instant of an effect scheduled `delay` ticks
    /// from `now`, treating clock-horizon overflow as a hard error: a
    /// saturated instant would park the event at [`Time::INFINITY`] forever
    /// and livelock `run_until(Time::INFINITY)` (see [`Time::checked_add`]).
    #[inline]
    fn schedule_at(now: Time, delay: u64, what: &str) -> Time {
        match now.checked_add(delay) {
            Some(at) => at,
            None => panic!("{what} scheduled past the clock horizon (t{now} + {delay} ticks)"),
        }
    }

    /// Routes a stamped effect to its destination: the own wheel when the
    /// destination pid lives here, the outbox otherwise.
    #[inline]
    fn push_effect(
        &mut self,
        to: ProcessId,
        at: Time,
        pending: Pending<N::Msg>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        let dest = to.index() % self.k;
        if dest == self.idx {
            self.queue.push(at, pending);
        } else {
            outbox.push((dest, at, pending));
        }
    }

    fn route_effects(
        &mut self,
        pid: ProcessId,
        mut sends: Vec<(ProcessId, N::Msg)>,
        mut timers: Vec<(u64, TimerId)>,
        mut obs: Vec<N::Obs>,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        let l = self.local(pid);
        self.metrics.steps.inc();
        for o in obs.drain(..) {
            self.metrics.observations.inc();
            if let Some(sink) = self.sink.as_mut() {
                sink.on_obs(self.now, pid, &o);
            }
            if self.log_obs {
                log.push((self.cur_key, Emit::Obs(pid, o)));
            }
        }
        if self.batch_envelopes {
            self.route_sends_batched(pid, &mut sends, log, outbox);
        } else {
            for (to, msg) in sends.drain(..) {
                assert!(to.index() < self.n_total, "send to unknown process {to}");
                if self.record_messages {
                    let at = self.now;
                    log.push((
                        self.cur_key,
                        Emit::Trace(TraceEvent::Send { at, from: pid, to, msg: msg.clone() }),
                    ));
                }
                let d = self.send_delays[l].sample(pid, to, self.now, &mut self.send_rngs[l]);
                self.metrics.messages_sent.inc();
                self.metrics.envelopes_sent.inc();
                self.metrics.delay_ticks.record(d);
                let at = Self::schedule_at(self.now, d, "delivery");
                let seq = self.next_effect_seq(l);
                self.push_effect(
                    to,
                    at,
                    (CLASS_EFFECT, pid.0, seq, EventKind::Deliver { from: pid, to, msg }),
                    outbox,
                );
            }
        }
        for (delay, id) in timers.drain(..) {
            self.metrics.timers_set.inc();
            let at = Self::schedule_at(self.now, delay, "timer");
            let seq = self.next_effect_seq(l);
            // Timers always land on the owner shard.
            self.queue.push(at, (CLASS_EFFECT, pid.0, seq, EventKind::Timer { pid, id }));
        }
        self.sends_buf = sends;
        self.timers_buf = timers;
        self.obs_buf = obs;
    }

    /// Envelope batching: coalesce this step's sends by destination —
    /// first-occurrence destination order, send order within a destination
    /// (FIFO inside the envelope) — and give each envelope one delay draw
    /// and one canonical key. The destination count per step is small, so
    /// the grouping is a linear scan, not a map.
    fn route_sends_batched(
        &mut self,
        pid: ProcessId,
        sends: &mut Vec<(ProcessId, N::Msg)>,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        let l = self.local(pid);
        let mut groups = std::mem::take(&mut self.groups_buf);
        for (to, msg) in sends.drain(..) {
            assert!(to.index() < self.n_total, "send to unknown process {to}");
            self.metrics.messages_sent.inc();
            if self.record_messages {
                let at = self.now;
                log.push((
                    self.cur_key,
                    Emit::Trace(TraceEvent::Send { at, from: pid, to, msg: msg.clone() }),
                ));
            }
            match groups.iter_mut().find(|(t, _)| *t == to) {
                Some((_, msgs)) => msgs.push(msg),
                None => {
                    let mut msgs = self.envelope_pool.pop().unwrap_or_default();
                    msgs.push(msg);
                    groups.push((to, msgs));
                }
            }
        }
        for (to, msgs) in groups.drain(..) {
            let d = self.send_delays[l].sample(pid, to, self.now, &mut self.send_rngs[l]);
            self.metrics.envelopes_sent.inc();
            self.metrics.envelope_occupancy.record(msgs.len() as u64);
            self.metrics.delay_ticks.record(d);
            let at = Self::schedule_at(self.now, d, "envelope");
            let seq = self.next_effect_seq(l);
            self.push_effect(
                to,
                at,
                (CLASS_EFFECT, pid.0, seq, EventKind::Envelope { from: pid, to, msgs }),
                outbox,
            );
        }
        self.groups_buf = groups;
    }
}

/// Replays one merged emission on the coordinator: trace events verbatim,
/// observations through the global sink first and then (if recorded) into
/// the trace — the exact order the sequential inline path used.
fn replay_entry<M, O>(
    trace: &mut Trace<M, O>,
    obs_sink: &mut Option<Box<dyn ObsSink<O>>>,
    record_observations: bool,
    at: Time,
    e: Emit<M, O>,
) {
    match e {
        Emit::Trace(ev) => trace.push(ev),
        Emit::Obs(pid, obs) => {
            if let Some(sink) = obs_sink.as_mut() {
                sink.on_obs(at, pid, &obs);
            }
            if record_observations {
                trace.push(TraceEvent::Obs { at, pid, obs });
            }
        }
    }
}

/// One instant's marching orders for a worker: the instant to execute and
/// every pending cross-shard delivery for its shards (any delivery time).
struct StepMsg<M> {
    t: Time,
    inboxes: Vec<(usize, Inbox<M>)>,
}

/// One shard's report back to the coordinator after an instant.
struct ShardReport<M, O> {
    shard: usize,
    qlen: usize,
    qmin: Option<Time>,
    log: Vec<LogEntry<M, O>>,
    outbox: Vec<OutboxEntry<M>>,
}

/// What a worker hands back on shutdown: the shard states it owned
/// (slot-tagged) and its wall-clock accounting.
type WorkerReturn<N> = (Vec<(usize, ShardState<N>)>, WorkerStats);

/// The worker side of the instant barrier: fold handed-over inbox entries
/// into the owned wheels, execute due shards, report. Exits when the step
/// channel closes (coordinator shutdown) and returns its shard states.
fn worker_loop<N: Node>(
    mut owned: Vec<(usize, ShardState<N>)>,
    step_rx: mpsc::Receiver<StepMsg<N::Msg>>,
    done_tx: mpsc::Sender<Vec<ShardReport<N::Msg, N::Obs>>>,
    clock: Arc<dyn Clock>,
) -> WorkerReturn<N> {
    let mut stats = WorkerStats::new();
    loop {
        let waiting = clock.elapsed_micros();
        let Ok(StepMsg { t, inboxes }) = step_rx.recv() else { break };
        stats.barrier_wait_micros.record(clock.elapsed_micros().saturating_sub(waiting));
        let busy = clock.elapsed_micros();
        for (s, entries) in inboxes {
            let st =
                &mut owned.iter_mut().find(|(i, _)| *i == s).expect("inbox for an owned shard").1;
            for (at, p) in entries {
                st.queue.push(at, p);
            }
        }
        let mut reports = Vec::with_capacity(owned.len());
        for (s, st) in owned.iter_mut() {
            let mut log = Vec::new();
            let mut outbox = Vec::new();
            if st.queue.peek_time() == Some(t) {
                st.run_instant(t, &mut log, &mut outbox);
            }
            reports.push(ShardReport {
                shard: *s,
                qlen: st.queue.len(),
                qmin: st.queue.peek_time(),
                log,
                outbox,
            });
        }
        stats.instants.inc();
        stats.busy_micros.record(clock.elapsed_micros().saturating_sub(busy));
        if done_tx.send(reports).is_err() {
            break;
        }
    }
    (owned, stats)
}

/// The simulated system executing one run: processes, channels, faults and
/// the global clock, partitioned into shards (see the module docs).
///
/// The world advances instant by instant. Each event due at an instant
/// triggers one atomic step of one node; effects (sends, timers,
/// observations) are buffered during the step and routed after it returns.
pub struct World<N: Node> {
    shards: Vec<ShardState<N>>,
    n: usize,
    now: Time,
    /// Worker threads `run_until` may use (from [`WorldConfig::threads`]).
    threads: usize,
    /// The parallel runner, installed by the `try_new*` constructors, whose
    /// `Send` bounds it needs. [`World::new`] builds one shard, which never
    /// runs in parallel, so its nodes need not be `Send`.
    parallel: Option<fn(&mut World<N>, Time)>,
    /// Variant label of the configured delay model, for metric export.
    delay_kind: &'static str,
    trace: Trace<N::Msg, N::Obs>,
    record_observations: bool,
    obs_sink: Option<Box<dyn ObsSink<N::Obs>>>,
    /// Instantaneous total backlog across all shards (the shard-count
    /// invariant depth gauge; see the module docs).
    global_depth: Gauge,
    /// Per-worker wall-clock stats from parallel runs (empty otherwise).
    worker_stats: Vec<WorkerStats>,
    /// Wall-clock source for worker accounting; injectable for tests so the
    /// simulator itself contains no ad-hoc `Instant::now()` reads.
    clock: Arc<dyn Clock>,
    // Reusable merge buffers for the sequential path.
    log_buf: Vec<LogEntry<N::Msg, N::Obs>>,
    outbox_buf: Vec<OutboxEntry<N::Msg>>,
}

/// The engine's former name, kept only because the frozen `perfbench`
/// package names it; the next change to the benchmark should delete it.
pub type ShardedWorld<N> = World<N>;

impl<N: Node> std::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.n)
            .field("shards", &self.shards.len())
            .field("threads", &self.threads)
            .field("now", &self.now)
            .field("pending", &self.pending_events())
            .finish_non_exhaustive()
    }
}

impl<N: Node> World<N> {
    /// Builds a one-shard world over `nodes` and delivers every node's
    /// `on_start` step at time zero.
    pub fn new(nodes: Vec<N>, cfg: WorldConfig) -> Self {
        Self::build(nodes, cfg, 1, None, None).expect("one shard is always buildable")
    }

    /// Builds a one-shard world with a streaming [`ObsSink`] attached. The
    /// sink must be present from construction because the `on_start` steps
    /// run inside it — attaching a sink after `new` would miss their
    /// observations.
    pub fn new_with_sink(nodes: Vec<N>, cfg: WorldConfig, sink: Box<dyn ObsSink<N::Obs>>) -> Self {
        Self::build(nodes, cfg, 1, Some(sink), None).expect("one shard is always buildable")
    }

    /// Builds a `shards`-shard world (rejecting `shards == 0`). Its runs
    /// are byte-identical to [`World::new`]'s for every shard count; with
    /// [`WorldConfig::threads`] ≥ 2 they execute on the worker pool.
    pub fn try_new(nodes: Vec<N>, cfg: WorldConfig, shards: usize) -> Result<Self, ShardBuildError>
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        Self::build(nodes, cfg, shards, None, None).map(Self::with_parallel_runner)
    }

    /// [`World::try_new`] with a streaming [`ObsSink`] attached on the
    /// coordinator: it sees the whole observation stream, in trace order.
    pub fn try_new_with_sink(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        sink: Box<dyn ObsSink<N::Obs>>,
    ) -> Result<Self, ShardBuildError>
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        Self::build(nodes, cfg, shards, Some(sink), None).map(Self::with_parallel_runner)
    }

    /// [`World::try_new`] with one `Send` streaming sink *per shard*:
    /// `sinks[s]` travels with shard `s` onto its worker thread and
    /// receives exactly the observations of processes `pid % shards == s`,
    /// in that shard's execution order — which is the sequential stream's
    /// projection onto those processes. This is the extraction hook:
    /// per-shard folds merged deterministically afterwards.
    pub fn try_new_with_shard_sinks(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        sinks: Vec<Box<dyn ObsSink<N::Obs> + Send>>,
    ) -> Result<Self, ShardBuildError>
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        assert_eq!(sinks.len(), shards, "one shard sink per shard");
        Self::build(nodes, cfg, shards, None, Some(sinks)).map(Self::with_parallel_runner)
    }

    fn with_parallel_runner(mut self) -> Self
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        self.parallel = Some(Self::run_parallel);
        self
    }

    fn build(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        obs_sink: Option<Box<dyn ObsSink<N::Obs>>>,
        shard_sinks: Option<Vec<Box<dyn ObsSink<N::Obs> + Send>>>,
    ) -> Result<Self, ShardBuildError> {
        if shards == 0 {
            return Err(ShardBuildError::NoShards);
        }
        let n = nodes.len();
        let k = shards;
        let mut rng = SplitMix64::new(cfg.seed);
        // Fork order is load-bearing: node RNGs first, then one delay RNG
        // per process, all in pid order — then distributed round-robin so
        // the streams are shard-count invariant.
        let node_rngs: Vec<SplitMix64> = (0..n).map(|_| rng.fork()).collect();
        let send_rngs: Vec<SplitMix64> = (0..n).map(|_| rng.fork()).collect();
        let log_obs = cfg.record_observations || obs_sink.is_some();
        let mut states: Vec<ShardState<N>> = (0..k)
            .map(|idx| ShardState {
                idx,
                k,
                n_total: n,
                now: Time::ZERO,
                nodes: Vec::new(),
                crashed: Vec::new(),
                node_rngs: Vec::new(),
                send_rngs: Vec::new(),
                send_delays: Vec::new(),
                effect_seq: Vec::new(),
                queue: TimerWheel::new(),
                metrics: SimMetrics::new(),
                sink: None,
                record_messages: cfg.record_messages,
                log_obs,
                batch_envelopes: cfg.batch_envelopes,
                cur_key: (CLASS_EFFECT, 0, 0),
                sends_buf: Vec::new(),
                timers_buf: Vec::new(),
                obs_buf: Vec::new(),
                envelope_pool: Vec::new(),
                groups_buf: Vec::new(),
                batch_buf: Vec::new(),
            })
            .collect();
        if let Some(sinks) = shard_sinks {
            for (st, sink) in states.iter_mut().zip(sinks) {
                st.sink = Some(sink);
            }
        }
        for (i, (node, (nr, sr))) in
            nodes.into_iter().zip(node_rngs.into_iter().zip(send_rngs)).enumerate()
        {
            let st = &mut states[i % k];
            st.nodes.push(node);
            st.crashed.push(false);
            st.node_rngs.push(nr);
            st.send_rngs.push(sr);
            st.send_delays.push(cfg.delays.clone());
            st.effect_seq.push(0);
        }
        let mut world = World {
            shards: states,
            n,
            now: Time::ZERO,
            threads: cfg.threads.max(1),
            parallel: None,
            delay_kind: cfg.delays.kind(),
            trace: Trace::new(cfg.record_messages),
            record_observations: cfg.record_observations,
            obs_sink,
            global_depth: Gauge::new(),
            worker_stats: Vec::new(),
            clock: Arc::new(MonotonicClock::new()),
            log_buf: Vec::new(),
            outbox_buf: Vec::new(),
        };
        for (plan_idx, &(pid, at)) in cfg.crashes.crashes().iter().enumerate() {
            assert!(pid.index() < n, "crash plan names unknown process {pid}");
            let s = pid.index() % k;
            if at == Time::ZERO {
                // Dead from birth (see the module docs): effective before
                // start dispatch.
                let l = pid.index() / k;
                let st = &mut world.shards[s];
                if !st.crashed[l] {
                    st.crashed[l] = true;
                    st.metrics.crash_events.inc();
                    world.trace.push(TraceEvent::Crash { at: Time::ZERO, pid });
                }
            } else {
                world.shards[s]
                    .queue
                    .push(at, (CLASS_CRASH, pid.0, plan_idx as u64, EventKind::Crash { pid }));
            }
        }
        world.update_depth_gauges();
        // Start steps in pid order with immediate replay and outbox
        // routing, reproducing exactly the sequential inline emissions.
        let mut log = Vec::new();
        let mut outbox = Vec::new();
        for i in 0..n {
            let (s, l) = (i % k, i / k);
            if world.shards[s].crashed[l] {
                continue;
            }
            let pid = ProcessId::from_index(i);
            world.shards[s].cur_key = (CLASS_EFFECT, pid.0, 0);
            world.shards[s].dispatch_start(pid, &mut log, &mut outbox);
            for (dest, at, p) in outbox.drain(..) {
                world.shards[dest].queue.push(at, p);
            }
            for (_, e) in log.drain(..) {
                replay_entry(
                    &mut world.trace,
                    &mut world.obs_sink,
                    world.record_observations,
                    Time::ZERO,
                    e,
                );
            }
        }
        world.log_buf = log;
        world.outbox_buf = outbox;
        Ok(world)
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker-thread budget for [`World::run_until`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current global time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total atomic steps dispatched, across all shards.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.metrics.steps.get()).sum()
    }

    /// Total messages sent, across all shards (counted even when the trace
    /// does not record message events).
    pub fn messages_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.metrics.messages_sent.get()).sum()
    }

    /// Total messages delivered to live processes, across all shards.
    pub fn messages_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.metrics.messages_delivered.get()).sum()
    }

    /// Read access to a node's state.
    pub fn node(&self, pid: ProcessId) -> &N {
        let k = self.shards.len();
        &self.shards[pid.index() % k].nodes[pid.index() / k]
    }

    /// Whether `pid` has crashed already.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        let k = self.shards.len();
        self.shards[pid.index() % k].crashed[pid.index() / k]
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace<N::Msg, N::Obs> {
        &self.trace
    }

    /// Consumes the world, returning the trace. Any attached [`ObsSink`] is
    /// dropped here; keep a shared handle (see the `Rc<RefCell<_>>` blanket
    /// impl) or call [`World::take_obs_sink`] first to recover its state.
    pub fn into_trace(self) -> Trace<N::Msg, N::Obs> {
        self.trace
    }

    /// Detaches and returns the coordinator's streaming sink, if one was
    /// attached. Later observations are no longer streamed to it.
    pub fn take_obs_sink(&mut self) -> Option<Box<dyn ObsSink<N::Obs>>> {
        self.obs_sink.take()
    }

    /// Events still pending, summed across shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// One shard's metric set (per-shard backlog, sender- and
    /// executor-side counters).
    pub fn shard_metrics(&self, shard: usize) -> &SimMetrics {
        &self.shards[shard].metrics
    }

    /// The shard-count-invariant global backlog gauge (see module docs).
    pub fn global_queue_depth(&self) -> &Gauge {
        &self.global_depth
    }

    /// Per-worker busy/barrier-wait wall-clock from parallel runs; empty
    /// when every run so far was sequential. Wall-clock is inherently
    /// nondeterministic, which is why these never enter
    /// [`World::metrics_map`].
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.worker_stats
    }

    /// Replaces the wall-clock source used for worker accounting.
    ///
    /// Tests inject a [`crate::ManualClock`] here to make the recorded
    /// [`WorkerStats`] durations exact; production code keeps the default
    /// [`MonotonicClock`].
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// The run's metric set, merged over shards. Counters and histograms
    /// are exact sums; `queue_depth` is the global gauge, so the set is
    /// byte-identical across shard counts — and thread counts — for a
    /// fixed seed. All values are logical quantities.
    pub fn metrics(&self) -> SimMetrics {
        let mut merged = SimMetrics::new();
        for s in &self.shards {
            merged.absorb(&s.metrics);
        }
        merged.queue_depth = self.global_depth;
        merged
    }

    /// Flattened, key-sorted export of [`World::metrics`]; the delay
    /// histogram is labeled with this world's delay-model variant.
    pub fn metrics_map(&self) -> MetricMap {
        self.metrics().export(self.delay_kind)
    }

    fn update_depth_gauges(&mut self) {
        let mut total = 0u64;
        for s in &mut self.shards {
            let depth = s.queue.len() as u64;
            s.metrics.queue_depth.set(depth);
            total += depth;
        }
        self.global_depth.set(total);
    }

    /// Executes every event due at the earliest pending instant, in
    /// canonical-key order. Returns `false` when all queues are empty.
    pub fn step_instant(&mut self) -> bool {
        let Some(t) = self.peek_time() else {
            return false;
        };
        debug_assert!(t >= self.now, "time must not run backwards");
        self.now = t;
        let mut log = std::mem::take(&mut self.log_buf);
        let mut outbox = std::mem::take(&mut self.outbox_buf);
        debug_assert!(log.is_empty() && outbox.is_empty());
        for s in &mut self.shards {
            if s.queue.peek_time() == Some(t) {
                s.run_instant(t, &mut log, &mut outbox);
            }
        }
        for (dest, at, p) in outbox.drain(..) {
            self.shards[dest].queue.push(at, p);
        }
        // The deterministic merge: stable-sorting the shard-ordered log
        // concatenation by the unique canonical keys reproduces the order
        // a single global key-sorted execution would emit.
        log.sort_by_key(|e| e.0);
        for (_, e) in log.drain(..) {
            replay_entry(&mut self.trace, &mut self.obs_sink, self.record_observations, t, e);
        }
        self.log_buf = log;
        self.outbox_buf = outbox;
        self.update_depth_gauges();
        true
    }

    /// Earliest pending instant across all shards.
    pub fn peek_time(&self) -> Option<Time> {
        self.shards.iter().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Runs until all queues are empty or global time exceeds `deadline`.
    ///
    /// With [`WorldConfig::threads`] ≥ 2 and at least two shards the
    /// instants execute on the shard-worker pool (byte-identical results;
    /// see the module docs).
    pub fn run_until(&mut self, deadline: Time) {
        match self.parallel {
            Some(run_parallel) if self.threads >= 2 && self.shards.len() >= 2 => {
                run_parallel(self, deadline);
            }
            _ => {
                while let Some(t) = self.peek_time() {
                    if t > deadline {
                        break;
                    }
                    self.step_instant();
                }
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` more ticks of virtual time (see [`World::run_until`]).
    pub fn run_for(&mut self, d: u64) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// The parallel driver: moves the shard states onto pool workers and
    /// runs the instant-barrier protocol from the module docs until the
    /// deadline passes or the system drains, then reinstalls the states.
    fn run_parallel(&mut self, deadline: Time)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        match self.peek_time() {
            Some(t) if t <= deadline => {}
            _ => return,
        }
        let k = self.shards.len();
        let workers = self.threads.min(k);
        let mut qmin: Vec<Option<Time>> = Vec::with_capacity(k);
        let mut qlen: Vec<usize> = Vec::with_capacity(k);
        let mut depth_shadow: Vec<Gauge> = Vec::with_capacity(k);
        let mut states: Vec<Option<ShardState<N>>> = Vec::with_capacity(k);
        for s in self.shards.drain(..) {
            qmin.push(s.queue.peek_time());
            qlen.push(s.queue.len());
            depth_shadow.push(s.metrics.queue_depth);
            states.push(Some(s));
        }
        let mut step_txs = Vec::with_capacity(workers);
        let mut done_rxs = Vec::with_capacity(workers);
        let mut tasks: Vec<pool::WorkerFn<'_, WorkerReturn<N>>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let (step_tx, step_rx) = mpsc::channel::<StepMsg<N::Msg>>();
            let (done_tx, done_rx) = mpsc::channel::<Vec<ShardReport<N::Msg, N::Obs>>>();
            step_txs.push(step_tx);
            done_rxs.push(done_rx);
            let owned: Vec<(usize, ShardState<N>)> = (w..k)
                .step_by(workers)
                .map(|s| (s, states[s].take().expect("each shard assigned to one worker")))
                .collect();
            let clock = Arc::clone(&self.clock);
            tasks.push(Box::new(move || worker_loop(owned, step_rx, done_tx, clock)));
        }
        let mut inbox: Vec<Inbox<N::Msg>> = (0..k).map(|_| Vec::new()).collect();
        let mut global_shadow = self.global_depth;
        let now = &mut self.now;
        let trace = &mut self.trace;
        let obs_sink = &mut self.obs_sink;
        let record_observations = self.record_observations;
        let (results, (inbox, depth_shadow, global_shadow)) =
            pool::run_with_coordinator(tasks, move || {
                let mut logs_by_shard: Vec<Vec<LogEntry<N::Msg, N::Obs>>> =
                    (0..k).map(|_| Vec::new()).collect();
                let mut merged: Vec<LogEntry<N::Msg, N::Obs>> = Vec::new();
                'run: loop {
                    // The effective shard minimum counts undelivered inbox
                    // entries — they are wheel entries the worker just has
                    // not folded in yet.
                    let t = (0..k)
                        .filter_map(|s| {
                            let inbox_min = inbox[s].iter().map(|&(at, _)| at).min();
                            match (qmin[s], inbox_min) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                (a, b) => a.or(b),
                            }
                        })
                        .min();
                    let Some(t) = t else { break };
                    if t > deadline {
                        break;
                    }
                    *now = t;
                    for (w, tx) in step_txs.iter().enumerate() {
                        let mut inboxes = Vec::new();
                        for s in (w..k).step_by(workers) {
                            if !inbox[s].is_empty() {
                                inboxes.push((s, std::mem::take(&mut inbox[s])));
                            }
                        }
                        if tx.send(StepMsg { t, inboxes }).is_err() {
                            break 'run;
                        }
                    }
                    for rx in &done_rxs {
                        let Ok(reports) = rx.recv() else { break 'run };
                        for rep in reports {
                            qmin[rep.shard] = rep.qmin;
                            qlen[rep.shard] = rep.qlen;
                            logs_by_shard[rep.shard] = rep.log;
                            for (dest, at, p) in rep.outbox {
                                inbox[dest].push((at, p));
                            }
                        }
                    }
                    for shard_log in &mut logs_by_shard {
                        merged.append(shard_log);
                    }
                    merged.sort_by_key(|e| e.0);
                    for (_, e) in merged.drain(..) {
                        replay_entry(trace, obs_sink, record_observations, t, e);
                    }
                    // Depth accounting identical to the sequential path: a
                    // shard's undelivered inbox entries are part of its
                    // backlog.
                    let mut total = 0u64;
                    for s in 0..k {
                        let depth = (qlen[s] + inbox[s].len()) as u64;
                        depth_shadow[s].set(depth);
                        total += depth;
                    }
                    global_shadow.set(total);
                }
                drop(step_txs);
                (inbox, depth_shadow, global_shadow)
            });
        let mut slots: Vec<Option<ShardState<N>>> = (0..k).map(|_| None).collect();
        for (w, (owned, stats)) in results.into_iter().enumerate() {
            if self.worker_stats.len() <= w {
                self.worker_stats.resize_with(w + 1, WorkerStats::new);
            }
            self.worker_stats[w].absorb(&stats);
            for (s, st) in owned {
                slots[s] = Some(st);
            }
        }
        self.shards = slots.into_iter().map(|s| s.expect("workers returned every shard")).collect();
        for (s, entries) in inbox.into_iter().enumerate() {
            for (at, p) in entries {
                self.shards[s].queue.push(at, p);
            }
        }
        for (s, g) in depth_shadow.into_iter().enumerate() {
            self.shards[s].metrics.queue_depth = g;
        }
        self.global_depth = global_shadow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashPlan;
    use crate::net::ChannelStaller;

    /// A node that floods a token around a ring until its hop budget is
    /// spent.
    #[derive(Debug)]
    struct RingNode {
        n: usize,
        hops_left: u32,
        received: u32,
    }

    impl Node for RingNode {
        type Msg = u32;
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            if ctx.me() == ProcessId(0) {
                let next = ProcessId::from_index((ctx.me().index() + 1) % self.n);
                ctx.send(next, self.hops_left);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: ProcessId, msg: u32) {
            self.received += 1;
            ctx.observe(msg);
            if msg > 0 {
                let next = ProcessId::from_index((ctx.me().index() + 1) % self.n);
                ctx.send(next, msg - 1);
            }
        }
    }

    fn ring(n: usize, hops: u32) -> Vec<RingNode> {
        (0..n).map(|_| RingNode { n, hops_left: hops, received: 0 }).collect()
    }

    fn cfg(seed: u64, n: usize, batch: bool) -> WorldConfig {
        let cfg = WorldConfig::new(seed)
            .delays(DelayModel::harsh())
            .crashes(CrashPlan::one(ProcessId((n - 1) as u32), Time(150)))
            .record_messages();
        if batch {
            cfg.batch_envelopes()
        } else {
            cfg
        }
    }

    /// A scripted adversary stalling two ring channels for a while.
    fn staller() -> DelayModel {
        DelayModel::Scripted(Box::new(ChannelStaller {
            stalled: vec![(ProcessId(0), ProcessId(1)), (ProcessId(3), ProcessId(4))],
            release_at: Time(200),
            benign_hi: 12,
        }))
    }

    fn fingerprint<N: Node<Obs = u32>>(w: &World<N>) -> (Time, String, MetricMap) {
        (w.now(), format!("{:?}", w.trace().events()), w.metrics_map())
    }

    /// The determinism matrix: same seed ⇒ byte-identical trace and
    /// metrics for the one-shard [`World::new`] and shards ∈ {1, 2, 4, 8},
    /// including the exported `queue_depth_high_water`, under a stochastic
    /// and a scripted delay model.
    #[test]
    fn shard_count_never_changes_the_run() {
        let n = 6;
        for batch in [false, true] {
            for delays in [DelayModel::harsh, staller] {
                let mut w = World::new(ring(n, 300), cfg(90, n, batch).delays(delays()));
                while w.step_instant() {}
                let reference = fingerprint(&w);
                for shards in [1, 2, 4, 8] {
                    let cfg = cfg(90, n, batch).delays(delays());
                    let mut w = World::try_new(ring(n, 300), cfg, shards).expect("buildable");
                    while w.step_instant() {}
                    assert_eq!(fingerprint(&w), reference, "shards={shards} batch={batch}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let mut w = World::new(ring(5, 40), WorldConfig::new(seed).record_messages());
            while w.step_instant() {}
            (w.now(), w.trace().len())
        };
        assert_eq!(run(77), run(77));
        // Different seeds virtually always give different schedules.
        assert_ne!(run(77).0, run(78).0);
    }

    #[test]
    fn token_circulates_until_exhausted() {
        let mut w = World::new(ring(4, 11), WorldConfig::new(3).record_messages());
        while w.step_instant() {}
        // 12 deliveries total (hops 11..=0).
        assert_eq!(w.trace().delivered_count(), 12);
        let total: u32 = (0..4).map(|i| w.node(ProcessId(i)).received).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn crashed_process_stops_participating() {
        let cfg = WorldConfig::new(5)
            .crashes(CrashPlan::one(ProcessId(1), Time(1)))
            .delays(DelayModel::Fixed(10))
            .record_messages();
        let mut w = World::new(ring(3, 30), cfg);
        while w.step_instant() {}
        // p1 crashes at t=1 before the token (sent at t=0, arriving t=10)
        // reaches it, so the token dies at p1: only p0's initial send exists.
        assert_eq!(w.trace().sent_count(), 1);
        assert_eq!(w.trace().delivered_count(), 0);
        assert!(w.is_crashed(ProcessId(1)));
        assert!(!w.is_crashed(ProcessId(0)));
    }

    /// Regression: a crash scheduled at `Time::ZERO` used to be enqueued as
    /// an ordinary event, which fires only after the start steps — so a
    /// dead-from-birth process still ran `on_start` and could send
    /// messages. It must take no steps at all, on any shard count.
    #[test]
    fn crash_at_time_zero_suppresses_start_step() {
        for shards in [1, 2] {
            // p0 is the ring initiator; crashing it at t=0 must kill the run
            // before any message exists.
            let cfg = WorldConfig::new(3)
                .crashes(CrashPlan::one(ProcessId(0), Time::ZERO))
                .record_messages();
            let mut w = World::try_new(ring(3, 10), cfg, shards).expect("buildable");
            assert!(w.is_crashed(ProcessId(0)), "t=0 crash must be effective before starts");
            while w.step_instant() {}
            assert_eq!(w.trace().sent_count(), 0, "a dead-from-birth process must not send");
            assert_eq!(w.steps(), 2, "only the two live processes take their start steps");
            // The crash itself is still visible to the spec checkers.
            assert!(w
                .trace()
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Crash { at: Time::ZERO, pid: ProcessId(0) })));
        }
    }

    #[test]
    fn crash_at_time_zero_also_silences_timers() {
        let cfg = WorldConfig::new(2).crashes(CrashPlan::one(ProcessId(0), Time::ZERO));
        let mut w = World::new(vec![TimerNode { fired: 0, limit: 5 }], cfg);
        while w.step_instant() {}
        assert_eq!(w.node(ProcessId(0)).fired, 0);
        assert_eq!(w.pending_events(), 0);
    }

    #[test]
    fn metrics_mirror_legacy_accessors() {
        let mut w = World::new(ring(4, 25), WorldConfig::new(3).record_messages());
        while w.step_instant() {}
        let m = w.metrics();
        assert_eq!(m.steps.get(), w.steps());
        assert_eq!(m.messages_sent.get(), w.messages_sent());
        assert_eq!(m.messages_delivered.get(), w.messages_delivered());
        assert_eq!(m.delay_ticks.count(), w.messages_sent(), "every send samples one delay");
        assert!(m.queue_depth.high_water() >= 1);
        assert_eq!(m.queue_depth.get(), 0, "drained world has an empty queue");
        let map = w.metrics_map();
        assert_eq!(map["steps"], w.steps());
        assert!(map.contains_key("delay_ticks.uniform.count"), "histogram labeled by model");
    }

    #[test]
    fn observations_are_chronological() {
        let mut w = World::new(ring(3, 100), WorldConfig::new(11));
        while w.step_instant() {}
        let times: Vec<Time> = w.trace().observations().map(|(t, _, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Drives the run through `run_until` with a thread budget; the
    /// deadline drains the ring workload completely, so the artifacts are
    /// comparable across shard *and* thread counts.
    fn run_threaded(
        seed: u64,
        shards: usize,
        threads: usize,
        batch: bool,
    ) -> (Time, String, MetricMap) {
        let n = 6;
        let cfg = cfg(seed, n, batch).threads(threads);
        let mut w = World::try_new(ring(n, 300), cfg, shards).expect("buildable");
        w.run_until(Time(1_000_000));
        fingerprint(&w)
    }

    /// The parallel instant-barrier run is byte-identical to the
    /// sequential one — trace, metrics, and the exported depth gauges —
    /// for every thread × shard combination, including a mid-run crash
    /// (t=150) and envelope batching.
    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        for batch in [false, true] {
            let reference = run_threaded(90, 4, 1, batch);
            for threads in [2, 4, 8] {
                for shards in [2, 4, 8] {
                    let got = run_threaded(90, shards, threads, batch);
                    assert_eq!(got, reference, "threads={threads} shards={shards} batch={batch}");
                }
            }
        }
    }

    /// Deadline-bounded parallel runs resume exactly like sequential ones:
    /// pending cross-shard inbox entries are flushed back into the wheels
    /// at shutdown, so a later `run_for` continues the same schedule.
    #[test]
    fn parallel_resume_matches_sequential() {
        let drive = |threads: usize| {
            let cfg = cfg(11, 6, false).threads(threads);
            let mut w = World::try_new(ring(6, 300), cfg, 4).expect("buildable");
            w.run_until(Time(120));
            w.run_for(600);
            fingerprint(&w)
        };
        assert_eq!(drive(4), drive(1));
    }

    #[test]
    fn parallel_runs_record_worker_stats() {
        let mut w = World::try_new(ring(6, 300), cfg(90, 6, false).threads(4), 4).unwrap();
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 4);
        let instants: u64 = w.worker_stats().iter().map(|s| s.instants.get()).sum();
        assert!(instants > 0, "workers must have stepped instants");
        // Sequential runs leave no worker stats.
        let mut seq = World::try_new(ring(6, 300), cfg(90, 6, false), 4).unwrap();
        seq.run_until(Time(1_000_000));
        assert!(seq.worker_stats().is_empty());
    }

    /// More threads than shards: `run_until` clamps the worker pool to the
    /// shard count (a shard is never split across workers), the run still
    /// drains, and the artifacts stay byte-identical to sequential.
    #[test]
    fn more_threads_than_shards_clamps_to_shard_count() {
        let mut w = World::try_new(ring(6, 300), cfg(90, 6, false).threads(16), 2).unwrap();
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 2, "worker pool must clamp to shard count");
        assert_eq!(fingerprint(&w), run_threaded(90, 2, 1, false));
    }

    /// The worker wall-clock accounting reads the injected [`Clock`]: with
    /// a frozen [`crate::ManualClock`] every recorded duration is exactly
    /// zero while the sample counts still advance.
    #[test]
    fn worker_stats_read_the_injected_clock() {
        let mut w = World::try_new(ring(6, 300), cfg(90, 6, false).threads(2), 2).unwrap();
        w.set_clock(Arc::new(crate::ManualClock::new()));
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 2);
        for s in w.worker_stats() {
            assert!(s.instants.get() > 0, "workers must have stepped instants");
            assert!(s.busy_micros.count() > 0);
            assert_eq!(s.busy_micros.sum(), 0, "frozen clock ⇒ zero busy time");
            assert_eq!(s.barrier_wait_micros.sum(), 0, "frozen clock ⇒ zero wait time");
        }
    }

    #[test]
    fn global_high_water_is_bounded_by_summed_shard_marks() {
        let n = 6;
        let mut w = World::try_new(ring(n, 300), cfg(5, n, false), 4).unwrap();
        while w.step_instant() {}
        let summed: u64 =
            (0..w.shards()).map(|s| w.shard_metrics(s).queue_depth.high_water()).sum();
        let global = w.global_queue_depth().high_water();
        assert!(global >= 1);
        assert!(
            global <= summed,
            "global high water {global} must not exceed summed shard marks {summed}"
        );
        // And the export carries the global mark, not the sum.
        assert_eq!(w.metrics_map()["queue_depth_high_water"], global);
    }

    #[test]
    fn counters_sum_exactly_across_shards() {
        let n = 6;
        let mut w = World::try_new(ring(n, 200), cfg(7, n, false), 4).unwrap();
        while w.step_instant() {}
        let m = w.metrics_map();
        assert_eq!(m["messages_sent"], w.messages_sent());
        assert_eq!(m["steps"], w.steps());
        assert_eq!(
            m["messages_delivered"] + m["messages_dropped"],
            m["messages_sent"],
            "every sent message is delivered or dropped once the run drains"
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w = World::new(ring(4, 1000), WorldConfig::new(9));
        w.run_until(Time(50));
        assert!(w.now() >= Time(50));
        let before = w.trace().observations().count();
        w.run_for(200);
        assert!(w.trace().observations().count() > before);
    }

    #[test]
    fn try_new_rejects_zero_shards() {
        assert_eq!(
            World::try_new(ring(2, 1), WorldConfig::new(1), 0).err(),
            Some(ShardBuildError::NoShards)
        );
    }

    /// A node that re-arms a timer a fixed number of times.
    #[derive(Debug)]
    struct TimerNode {
        fired: u32,
        limit: u32,
    }

    impl Node for TimerNode {
        type Msg = ();
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, (), u32>) {
            ctx.set_timer(5, TimerId(0));
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, (), u32>, _from: ProcessId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, (), u32>, id: TimerId) {
            assert_eq!(id, TimerId(0));
            self.fired += 1;
            ctx.observe(self.fired);
            if self.fired < self.limit {
                ctx.set_timer(5, TimerId(0));
            }
        }
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut w = World::new(vec![TimerNode { fired: 0, limit: 7 }], WorldConfig::new(1));
        while w.step_instant() {}
        assert_eq!(w.node(ProcessId(0)).fired, 7);
        assert_eq!(w.now(), Time(35));
    }

    #[test]
    fn timers_of_crashed_process_do_not_fire() {
        let cfg = WorldConfig::new(1).crashes(CrashPlan::one(ProcessId(0), Time(12)));
        let mut w = World::new(vec![TimerNode { fired: 0, limit: 100 }], cfg);
        while w.step_instant() {}
        // Fires at t=5 and t=10; crash at t=12 silences the rest.
        assert_eq!(w.node(ProcessId(0)).fired, 2);
    }

    /// A sink recording every observation it sees.
    #[derive(Debug, Default)]
    struct FoldSink {
        seen: Vec<(Time, ProcessId, u32)>,
    }

    impl ObsSink<u32> for FoldSink {
        fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &u32) {
            self.seen.push((at, pid, *obs));
        }
    }

    /// A coordinator-side sink sees exactly the trace's observation stream,
    /// on one shard and on several.
    #[test]
    fn obs_sink_streams_exactly_the_trace_observations() {
        use std::cell::RefCell;
        use std::rc::Rc;
        for shards in [1, 3] {
            let sink = Rc::new(RefCell::new(FoldSink::default()));
            let handle = Box::new(Rc::clone(&sink));
            let mut w =
                World::try_new_with_sink(ring(4, 23), WorldConfig::new(9), shards, handle).unwrap();
            while w.step_instant() {}
            let from_trace: Vec<(Time, ProcessId, u32)> =
                w.trace().observations().map(|(t, p, &o)| (t, p, o)).collect();
            assert!(!from_trace.is_empty());
            assert_eq!(sink.borrow().seen, from_trace, "sink must mirror the trace stream");
            assert_eq!(w.metrics().observations.get(), from_trace.len() as u64);
        }
    }

    #[test]
    fn observation_events_off_keeps_sink_fed_but_trace_lean() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let sink = Rc::new(RefCell::new(FoldSink::default()));
        let cfg = WorldConfig::new(9).observation_events_off();
        let mut w = World::new_with_sink(ring(4, 23), cfg, Box::new(Rc::clone(&sink)));
        while w.step_instant() {}
        assert_eq!(w.trace().observations().count(), 0, "trace must not retain observations");
        assert_eq!(w.trace().len(), 0, "nothing else recorded either (messages off)");
        assert_eq!(sink.borrow().seen.len() as u64, w.metrics().observations.get());
        assert!(w.metrics().observations.get() > 0);
    }

    #[test]
    fn obs_sink_attachment_does_not_change_the_schedule() {
        let bare = {
            let mut w = World::new(ring(5, 40), WorldConfig::new(77));
            while w.step_instant() {}
            (w.now(), w.steps(), w.messages_sent())
        };
        let sunk = {
            let sink = std::rc::Rc::new(std::cell::RefCell::new(FoldSink::default()));
            let mut w = World::new_with_sink(ring(5, 40), WorldConfig::new(77), Box::new(sink));
            while w.step_instant() {}
            (w.now(), w.steps(), w.messages_sent())
        };
        assert_eq!(bare, sunk);
    }

    /// Per-shard sinks riding worker threads each see exactly the
    /// sequential observation stream's projection onto their shard's pids.
    #[test]
    fn shard_sinks_see_their_pids_in_trace_order() {
        use std::sync::{Arc, Mutex};
        let shards = 3;
        let handles: Vec<Arc<Mutex<FoldSink>>> =
            (0..shards).map(|_| Arc::new(Mutex::new(FoldSink::default()))).collect();
        let sinks: Vec<Box<dyn ObsSink<u32> + Send>> = handles
            .iter()
            .map(|h| Box::new(Arc::clone(h)) as Box<dyn ObsSink<u32> + Send>)
            .collect();
        let mut w = World::try_new_with_shard_sinks(
            ring(4, 23),
            WorldConfig::new(9).threads(2),
            shards,
            sinks,
        )
        .expect("buildable");
        w.run_until(Time(1_000_000));
        let mut total = 0;
        for (s, handle) in handles.iter().enumerate() {
            let expect: Vec<(Time, ProcessId, u32)> = w
                .trace()
                .observations()
                .filter(|(_, p, _)| p.index() % shards == s)
                .map(|(t, p, &o)| (t, p, o))
                .collect();
            let seen = &handle.lock().expect("sink").seen;
            assert_eq!(seen, &expect, "shard {s} projection diverged");
            total += seen.len();
        }
        assert!(total > 0, "the workload must observe something");
    }

    /// A node that sends a burst of messages to one peer per timer fire —
    /// the shape envelope batching coalesces.
    #[derive(Debug)]
    struct Burst {
        rounds_left: u32,
        burst: u32,
        received: Vec<u32>,
    }

    impl Node for Burst {
        type Msg = u32;
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            if ctx.me() == ProcessId(0) {
                ctx.set_timer(5, TimerId(0));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: ProcessId, msg: u32) {
            self.received.push(msg);
            ctx.observe(msg);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32, u32>, _id: TimerId) {
            for k in 0..self.burst {
                ctx.send(ProcessId(1), self.rounds_left * 100 + k);
            }
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.set_timer(5, TimerId(0));
            }
        }
    }

    fn burst_nodes(rounds: u32, burst: u32) -> Vec<Burst> {
        (0..2).map(|_| Burst { rounds_left: rounds, burst, received: Vec::new() }).collect()
    }

    #[test]
    fn envelope_batching_coalesces_per_step_sends_with_one_delay_draw() {
        let cfg = WorldConfig::new(3).batch_envelopes();
        let mut w = World::new(burst_nodes(9, 4), cfg);
        while w.step_instant() {}
        let m = w.metrics();
        assert_eq!(m.messages_sent.get(), 40, "10 timer fires x 4 msgs");
        assert_eq!(m.envelopes_sent.get(), 10, "one envelope per bursting step");
        assert_eq!(m.delay_ticks.count(), 10, "one delay draw per envelope");
        assert_eq!(m.envelope_occupancy.count(), 10);
        assert_eq!(m.envelope_occupancy.max(), 4);
        assert_eq!(m.envelope_occupancy.sum(), m.messages_sent.get());
        assert_eq!(m.messages_delivered.get(), 40, "every message still delivered");
    }

    #[test]
    fn envelope_batching_preserves_fifo_within_an_envelope() {
        let cfg = WorldConfig::new(5).batch_envelopes();
        let mut w = World::new(burst_nodes(5, 6), cfg);
        while w.step_instant() {}
        // Messages of one burst share an envelope, so their receive order is
        // their send order: within each round, k ascends 0..6.
        let received = &w.node(ProcessId(1)).received;
        assert_eq!(received.len(), 36);
        for chunk in received.chunks(6) {
            let ks: Vec<u32> = chunk.iter().map(|m| m % 100).collect();
            assert_eq!(ks, vec![0, 1, 2, 3, 4, 5], "within-envelope order broken: {received:?}");
        }
    }

    #[test]
    fn envelope_batching_off_matches_on_under_fixed_delays() {
        // With a deterministic delay model the single envelope draw equals
        // every per-message draw, and one sender's effects keep their
        // canonical-key order either way, so for a single destination the
        // runs must agree exactly.
        let run = |batch: bool| {
            let cfg = WorldConfig::new(8).delays(DelayModel::Fixed(7));
            let cfg = if batch { cfg.batch_envelopes() } else { cfg };
            let mut w = World::new(burst_nodes(7, 3), cfg);
            while w.step_instant() {}
            (w.now(), w.node(ProcessId(1)).received.clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn envelopes_to_crashed_receivers_are_dropped_whole() {
        let cfg = WorldConfig::new(4)
            .batch_envelopes()
            .delays(DelayModel::Fixed(10))
            .crashes(CrashPlan::one(ProcessId(1), Time(1)));
        let mut w = World::new(burst_nodes(2, 5), cfg);
        while w.step_instant() {}
        let m = w.metrics();
        assert_eq!(m.messages_delivered.get(), 0);
        assert_eq!(m.messages_dropped.get(), m.messages_sent.get());
    }

    /// A node that jumps to the clock horizon and keeps re-arming there —
    /// the shape that used to livelock `run_until(Time::INFINITY)`.
    #[derive(Debug)]
    struct HorizonNode;

    impl Node for HorizonNode {
        type Msg = ();
        type Obs = ();

        fn on_start(&mut self, ctx: &mut Context<'_, (), ()>) {
            // t=0 + u64::MAX lands exactly on Time::INFINITY — legal.
            ctx.set_timer(u64::MAX, TimerId(0));
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, (), ()>, _from: ProcessId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, (), ()>, _id: TimerId) {
            // Re-arming at the horizon used to *saturate* back to
            // Time::INFINITY, so this timer fired again and again at the
            // same instant and the run never terminated.
            ctx.set_timer(1, TimerId(0));
        }
    }

    /// Regression: `Time`'s saturating `Add` silently pinned past-horizon
    /// events at `Time::INFINITY`, so a node re-arming a timer there
    /// livelocked `run_until(Time::INFINITY)` — the queue never drained and
    /// time never advanced. Past-horizon scheduling is now a hard error
    /// instead of an infinite loop.
    #[test]
    #[should_panic(expected = "timer scheduled past the clock horizon")]
    fn rearming_at_the_horizon_is_a_hard_error_not_a_livelock() {
        let mut w = World::new(vec![HorizonNode], WorldConfig::new(1));
        w.run_until(Time::INFINITY);
    }

    /// A node that sends one message to a process that does not exist.
    #[derive(Debug)]
    struct StraySender;

    impl Node for StraySender {
        type Msg = ();
        type Obs = ();

        fn on_start(&mut self, ctx: &mut Context<'_, (), ()>) {
            ctx.send(ProcessId(99), ());
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, (), ()>, _from: ProcessId, _msg: ()) {}
    }

    /// Regression: unknown destinations were guarded only by
    /// `debug_assert!`, so a release build silently enqueued the delivery
    /// and corrupted routing state downstream. The guard is an `assert!` in
    /// every build profile and both routing paths — CI runs this test under
    /// `--release` to pin the release-mode behavior.
    #[test]
    #[should_panic(expected = "send to unknown process p99")]
    fn sending_to_an_unknown_process_panics_unbatched() {
        World::new(vec![StraySender], WorldConfig::new(1));
    }

    #[test]
    #[should_panic(expected = "send to unknown process p99")]
    fn sending_to_an_unknown_process_panics_batched() {
        World::new(vec![StraySender], WorldConfig::new(1).batch_envelopes());
    }
}
