//! The `live-soak` workload: repeated `run_live` trials of the heartbeat
//! ◇P over loopback TCP, one crash per trial, at a fixed heartbeat period.

use std::time::Instant;

use dinefd_fd::heartbeat::{Alive, HbObs};
use dinefd_fd::spec::FdViolation;
use dinefd_fd::{HeartbeatConfig, HeartbeatFd, SuspicionHistory};
use dinefd_live::{run_live, DiffScenario, LiveCluster, LiveConfig};
use dinefd_sim::{Context, Node, ProcessId, Runtime, SplitMix64, Time, TimerId};

use crate::probe::{cpu_s, peak_rss_mb};
use crate::Outcome;

const N: usize = 4;
const PERIOD_MS: u64 = 8;
const CRASH_AT_MS: u64 = 100;
const HORIZON_MS: u64 = 300;
/// Trials per invocation, 3 correct watchers each: a traced run pools at
/// least two invocations (`run.py` makes sure of it), so at least 102
/// detection samples, ten of them beyond the 90th percentile.
const TRIALS: u64 = 17;

/// The trials of one invocation: the seed picks the base run seed and
/// where the crash rotation starts.
fn scenarios(seed: u64) -> Vec<DiffScenario> {
    let mut rng = SplitMix64::new(seed);
    let base = rng.next_u64();
    let first = rng.below(N as u64);
    (0..TRIALS)
        .map(|t| DiffScenario {
            period: PERIOD_MS,
            crash: Some((ProcessId::from_index(((first + t) % N as u64) as usize), CRASH_AT_MS)),
            horizon: HORIZON_MS,
            ..DiffScenario::new(N, base.wrapping_add(t))
        })
        .collect()
}

/// Checks one trial's history with the spec checkers: each correct
/// watcher is one operation, and fails if it never permanently suspects
/// the crashed process (T1) or still suspects a correct one at the end
/// (T2). Returns the detection latencies in ms.
fn check_trial(s: &DiffScenario, history: &SuspicionHistory, out: &mut Outcome) -> Vec<f64> {
    let plan = s.crash_plan();
    let mut latencies = Vec::new();
    let mut wrong = Vec::new();
    match history.strong_completeness(&plan) {
        Ok(detections) => latencies.extend(
            detections.iter().map(|d| d.detected_from.0.saturating_sub(d.crashed_at.0) as f64),
        ),
        Err(violations) => wrong.extend(violations),
    }
    wrong.extend(history.eventual_strong_accuracy(&plan).err().unwrap_or_default());
    for w in plan.correct(N) {
        out.check(!wrong.iter().any(|v| {
            matches!(v, FdViolation::NotPermanentlySuspected { watcher, .. }
                | FdViolation::StillSuspected { watcher, .. } if *watcher == w)
        }));
    }
    latencies
}

/// One untraced batch of trials through `run_live`.
pub fn run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let (mut frames, mut wall) = (0u64, 0.0f64);
    let cpu0 = cpu_s();
    for s in scenarios(seed) {
        let t = Instant::now();
        let (outcome, stats) = run_live(&s);
        let call_s = t.elapsed().as_secs_f64();
        // The run clock covers the process, reader and proxy threads from
        // the moment every listener is bound until they are joined; the
        // rest of the call is listener and link bring-up before it, and
        // history and verdict assembly after it.
        out.put("setup_s", call_s - stats.wall.as_secs_f64());
        out.put("run_s", call_s);
        frames += stats.frames_delivered;
        wall += call_s;
        for ms in check_trial(&s, &outcome.history, &mut out) {
            out.put("detect_ms", ms);
        }
    }
    let cpu = cpu_s() - cpu0;
    out.put("ops_per_s", frames as f64 / wall);
    out.put("cpu_ms_per_kop", cpu * 1e6 / frames as f64);
    out.put("peak_rss_mb", peak_rss_mb());
    out
}

/// A heartbeat node whose handlers are timed.
#[derive(Debug)]
struct TimedHb {
    inner: HeartbeatFd,
    ns: u64,
}

impl TimedHb {
    fn measure(&mut self, f: impl FnOnce(&mut HeartbeatFd)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
    }
}

impl Node for TimedHb {
    type Msg = Alive;
    type Obs = HbObs;

    fn on_start(&mut self, ctx: &mut Context<'_, Alive, HbObs>) {
        self.measure(|n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Alive, HbObs>, from: ProcessId, msg: Alive) {
        self.measure(|n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Alive, HbObs>, timer: TimerId) {
        self.measure(|n| n.on_timer(ctx, timer));
    }
}

/// An untraced batch, whose `run_live` trials give the detection
/// latencies, then the same trials rebuilt on `LiveCluster` with timed
/// heartbeat handlers (clean links, as `run_live` uses for a crash-only
/// scenario) for the transport split.
pub fn trace(seed: u64) -> Outcome {
    let untraced = run(seed);
    let mut out =
        Outcome { attempted: untraced.attempted, failed: untraced.failed, ..Outcome::default() };
    let samples = |name: &str| {
        untraced.samples.iter().find(|(k, _)| k == name).map_or(&[][..], |(_, v)| &v[..])
    };
    let untraced_s: f64 = samples("run_s").iter().sum();
    for &ms in samples("detect_ms") {
        out.put("live.detect_ms", ms);
    }

    let (mut delivered, mut forwarded, mut dropped) = (0u64, 0u64, 0u64);
    let (mut handler_ns, mut traced_s) = (0u64, 0.0f64);
    let cpu0 = cpu_s();
    for s in scenarios(seed) {
        let (victim, crash_at) = s.crash.expect("every trial crashes one process");
        let cfg = HeartbeatConfig { n: N, period: s.period, initial_timeout_periods: 4 };
        let nodes = (0..N).map(|_| TimedHb { inner: HeartbeatFd::new(cfg), ns: 0 }).collect();
        let t = Instant::now();
        let mut cluster = LiveCluster::new(nodes, LiveConfig::new(s.seed).crash(victim, crash_at));
        let obs = cluster.run_to_horizon(Time(s.horizon));
        let mut history = SuspicionHistory::new(N, false);
        for rec in &obs {
            history.record(rec.at, rec.who, rec.obs.subject, rec.obs.suspected);
        }
        traced_s += t.elapsed().as_secs_f64();
        check_trial(&s, &history, &mut out);
        let stats = cluster.stats();
        delivered += stats.frames_delivered;
        forwarded += stats.frames_forwarded;
        dropped += stats.frames_dropped;
        handler_ns += ProcessId::all(N).map(|p| cluster.node(p).ns).sum::<u64>();
    }
    let cpu = cpu_s() - cpu0;
    let handler_s = handler_ns as f64 / 1e9;

    out.put("live.frames_delivered", delivered as f64);
    out.put("live.frames_forwarded", forwarded as f64);
    out.put("live.frames_dropped", dropped as f64);
    out.put("live.handler_s", handler_s);
    out.put("live.transport_cpu_s", cpu - handler_s);
    out.put("trace.run_s", traced_s);
    out.put("trace.overhead_s", traced_s - untraced_s);
    out
}
