//! Timing wrappers for the traced extraction run.
//!
//! Each wrapper sits on a layer boundary and forwards every call unchanged,
//! so a traced run executes exactly the schedule of the untraced one (the
//! traced pass checks this). Calls are counted always and timed on a fixed
//! stride; a layer's busy time is the timed sum scaled by
//! `calls / timed`. Nesting is host handler ⊃ dining participant ⊃ oracle
//! query, and each inner sample is filed under the host handler kind that
//! was running, so self times come out per handler kind:
//! `host.<kind>.self = host busy − dining busy` within that kind, and
//! `dining.self = dining busy − oracle busy`.
//!
//! Reading the clock is not free next to a 20 ns oracle query, so every
//! estimate subtracts a calibrated timing cost: once for the layer's own
//! samples, and once more for each inner sample taken inside them (see
//! [`Calibration`]).
//!
//! Counters live in per-process cells shared by the wrappers of one
//! process. A process is stepped by one thread at a time (its shard's
//! worker; the simulator's instant barrier orders successive steps), so the
//! cells update with plain relaxed load/store pairs rather than
//! read-modify-write atomics, which would cost more than the calls they
//! count.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dinefd_core::{HistorySink, RedMsg, RedObs, ReductionNode};
use dinefd_dining::{DinerPhase, DiningIo, DiningMsg, DiningParticipant};
use dinefd_fd::{FdQuery, InjectedOracle};
use dinefd_sim::{Context, Node, ObsSink, ProcessId, Time, TimerId};

/// Host handler kinds, in reporting order.
pub const KINDS: [&str; 5] = ["start", "tick", "dx", "ping", "ack"];
const START: usize = 0;
const TICK: usize = 1;
const DX: usize = 2;
const PING: usize = 3;
const ACK: usize = 4;

/// Timing strides: one call in `stride` is timed. Start and tick handlers
/// are few and long, so every one is timed; the rest are short and many.
const HOST_STRIDE: [u64; 5] = [1, 1, 8, 8, 8];
const DINING_STRIDE: u64 = 16;
const FD_STRIDE: u64 = 64;
const SINK_STRIDE: u64 = 64;

fn bump(a: &AtomicU64, by: u64) {
    a.store(a.load(Relaxed) + by, Relaxed);
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// `sample_ns` (from `timed` of `calls` calls) scaled to all calls, in s.
fn scaled_s(sample_ns: f64, calls: u64, timed: u64) -> f64 {
    if timed == 0 {
        return 0.0;
    }
    sample_ns * calls as f64 / timed as f64 / 1e9
}

/// What one timed sample costs, measured on this machine at first use.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Clock time a sample adds to its own reading, ns.
    own_ns: f64,
    /// Time a sample adds to an enclosing timed call, ns.
    nested_ns: f64,
}

/// The process-wide timing calibration: medians over 31 batches of
/// 10,000 empty samples.
pub fn calibration() -> Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        const BATCH: u32 = 10_000;
        let meter = Meter::default();
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (mut own, mut nested) = (Vec::new(), Vec::new());
        for _ in 0..31 {
            let before = meter.ns[0].load(Relaxed);
            let t = Instant::now();
            for _ in 0..BATCH {
                meter.measure(1, 0, || black_box(()));
            }
            nested.push(nanos_since(t) as f64 / f64::from(BATCH));
            own.push((meter.ns[0].load(Relaxed) - before) as f64 / f64::from(BATCH));
        }
        Calibration { own_ns: median(own), nested_ns: median(nested) }
    })
}

/// Strided call timer for one nested layer, samples filed by host kind.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    timed: [AtomicU64; 5],
    ns: [AtomicU64; 5],
}

impl Meter {
    fn measure<R>(&self, stride: u64, kind: usize, f: impl FnOnce() -> R) -> R {
        let calls = self.calls.load(Relaxed);
        self.calls.store(calls + 1, Relaxed);
        if !calls.is_multiple_of(stride) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        bump(&self.ns[kind], nanos_since(t));
        bump(&self.timed[kind], 1);
        r
    }

    /// Calls seen.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Samples taken within host handlers of `kind`.
    pub fn timed(&self, kind: usize) -> u64 {
        self.timed[kind].load(Relaxed)
    }

    /// Estimated busy seconds within host handlers of `kind`, less the
    /// cost of `inner_samples` samples taken inside this layer's calls.
    pub fn busy_s(&self, kind: usize, inner_samples: u64) -> f64 {
        let timed: u64 = self.timed.iter().map(|t| t.load(Relaxed)).sum();
        let cal = calibration();
        let own = self.ns[kind].load(Relaxed) as f64 - self.timed(kind) as f64 * cal.own_ns;
        scaled_s(own, self.calls(), timed) - inner_samples as f64 * cal.nested_ns / 1e9
    }
}

/// Counters shared by the wrappers of one process.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ProcCell {
    /// Host handler kind currently running on this process.
    kind: AtomicUsize,
    /// Dining-participant calls.
    pub dining: Meter,
    /// Oracle queries.
    pub fd: Meter,
}

/// Per-kind call counts and sampled handler time of one node.
#[derive(Debug, Default)]
pub struct HostMeter {
    /// Calls by kind.
    pub calls: [u64; 5],
    timed: [u64; 5],
    ns: [u64; 5],
}

impl HostMeter {
    /// Estimated busy seconds of handlers of `kind`, less the cost of
    /// `inner_samples` samples taken inside them.
    pub fn busy_s(&self, kind: usize, inner_samples: u64) -> f64 {
        let cal = calibration();
        let own = self.ns[kind] as f64 - self.timed[kind] as f64 * cal.own_ns;
        scaled_s(own, self.calls[kind], self.timed[kind])
            - inner_samples as f64 * cal.nested_ns / 1e9
    }
}

/// A [`ReductionNode`] whose handlers are counted and timed by kind.
#[derive(Debug)]
pub struct TimedNode {
    inner: ReductionNode,
    cell: Arc<ProcCell>,
    /// This node's handler accounting.
    pub host: HostMeter,
}

impl TimedNode {
    /// Wraps `inner`; `cell` must be the one its dining and oracle wrappers
    /// were built with.
    pub fn new(inner: ReductionNode, cell: Arc<ProcCell>) -> Self {
        TimedNode { inner, cell, host: HostMeter::default() }
    }

    /// The counters shared with this node's dining and oracle wrappers.
    pub fn cell(&self) -> &ProcCell {
        &self.cell
    }

    fn measure(&mut self, kind: usize, f: impl FnOnce(&mut ReductionNode)) {
        self.cell.kind.store(kind, Relaxed);
        let calls = self.host.calls[kind];
        self.host.calls[kind] = calls + 1;
        if !calls.is_multiple_of(HOST_STRIDE[kind]) {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        f(&mut self.inner);
        self.host.ns[kind] += nanos_since(t);
        self.host.timed[kind] += 1;
    }
}

impl Node for TimedNode {
    type Msg = RedMsg;
    type Obs = RedObs;

    fn on_start(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>) {
        self.measure(START, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, from: ProcessId, msg: RedMsg) {
        let kind = match msg {
            RedMsg::Dx { .. } => DX,
            RedMsg::Ping { .. } => PING,
            RedMsg::Ack { .. } => ACK,
        };
        self.measure(kind, |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, timer: TimerId) {
        self.measure(TICK, |n| n.on_timer(ctx, timer));
    }
}

/// A dining participant whose calls are counted and timed.
#[derive(Debug)]
pub struct TimedDining {
    inner: Box<dyn DiningParticipant>,
    cell: Arc<ProcCell>,
}

impl TimedDining {
    /// Wraps `inner`, hosted on the process owning `cell`.
    pub fn new(inner: Box<dyn DiningParticipant>, cell: Arc<ProcCell>) -> Self {
        TimedDining { inner, cell }
    }

    fn measure(&mut self, f: impl FnOnce(&mut dyn DiningParticipant)) {
        let kind = self.cell.kind.load(Relaxed);
        let inner = &mut *self.inner;
        self.cell.dining.measure(DINING_STRIDE, kind, || f(inner));
    }
}

impl DiningParticipant for TimedDining {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        self.measure(|p| p.hungry(io));
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        self.measure(|p| p.exit_eating(io));
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        self.measure(|p| p.on_message(io, from, msg));
    }

    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        self.measure(|p| p.on_tick(io));
    }

    fn phase(&self) -> DinerPhase {
        self.inner.phase()
    }
}

/// One process's view of the shared oracle, counting and timing queries.
#[derive(Debug)]
pub struct TimedFd {
    inner: Arc<InjectedOracle>,
    cell: Arc<ProcCell>,
}

impl TimedFd {
    /// Wraps the shared oracle for the process owning `cell`.
    pub fn new(inner: Arc<InjectedOracle>, cell: Arc<ProcCell>) -> Self {
        TimedFd { inner, cell }
    }
}

impl FdQuery for TimedFd {
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool {
        let kind = self.cell.kind.load(Relaxed);
        self.cell.fd.measure(FD_STRIDE, kind, || self.inner.suspected(watcher, subject, now))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// A streaming [`HistorySink`] whose folds are counted by observation kind
/// and timed.
#[derive(Debug)]
pub struct TimedSink {
    /// The wrapped sink.
    pub sink: HistorySink,
    /// Suspicion-change observations routed here.
    pub suspicion: u64,
    /// Dining-phase observations routed here.
    pub dxphase: u64,
    timed: u64,
    ns: u64,
}

impl TimedSink {
    /// Wraps `sink`.
    pub fn new(sink: HistorySink) -> Self {
        TimedSink { sink, suspicion: 0, dxphase: 0, timed: 0, ns: 0 }
    }

    /// Estimated seconds spent folding.
    pub fn busy_s(&self) -> f64 {
        let own = self.ns as f64 - self.timed as f64 * calibration().own_ns;
        scaled_s(own, self.suspicion + self.dxphase, self.timed)
    }
}

impl ObsSink<RedObs> for TimedSink {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &RedObs) {
        let seen = self.suspicion + self.dxphase;
        match obs {
            RedObs::Suspicion { .. } => self.suspicion += 1,
            RedObs::DxPhase { .. } => self.dxphase += 1,
        }
        if !seen.is_multiple_of(SINK_STRIDE) {
            return self.sink.on_obs(at, pid, obs);
        }
        let t = Instant::now();
        self.sink.on_obs(at, pid, obs);
        self.ns += nanos_since(t);
        self.timed += 1;
    }
}
