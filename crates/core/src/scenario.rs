//! Ready-made scenario assembly: pick a black box, an underlying oracle, a
//! fault/delay environment — get back the extracted detector's history.
//!
//! This is the API the examples, integration tests, and the experiment
//! harness (`dinefd-bench`) all drive.

use std::sync::{Arc, Mutex};

use dinefd_dining::abstract_dining::AbstractDining;
use dinefd_dining::delayed::DelayedConvergenceDining;
use dinefd_dining::ftme::FtmeDining;
use dinefd_dining::hygienic::HygienicDining;
use dinefd_dining::unfair::UnfairDining;
use dinefd_dining::wfdx::WfDxDining;
use dinefd_dining::DiningParticipant;
use dinefd_fd::{FdQuery, InjectedOracle, SuspicionHistory};
use dinefd_sim::{
    CrashPlan, DelayModel, MetricMap, ObsSink, ProcessId, Profiler, QueueBackend, SplitMix64, Time,
    Trace, WorkerStats, World, WorldConfig,
};

use crate::detector::{suspicion_history, HistorySink, PairTimelines};
use crate::host::{DxEndpoint, RedMsg, RedObs, ReductionNode};

/// Which WF-◇WX (or WX) black box the reduction runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlackBox {
    /// The ◇P fork algorithm (\[12\]-style) — the canonical WF-◇WX solution.
    WfDx,
    /// Crash-oblivious Chandy–Misra (NOT wait-free; negative baselines).
    Hygienic,
    /// The Section 3 pathological-but-legal service; exclusivity starts only
    /// after `convergence` *and* after all pre-convergence eaters exit.
    Delayed {
        /// Modelled internal-◇P convergence instant.
        convergence: Time,
    },
    /// Spec-constrained adversarial service; exclusive from `convergence`.
    Abstract {
        /// Modelled internal-◇P convergence instant.
        convergence: Time,
    },
    /// Perpetual-WX (FTME) service — for the Section 9 T-extraction.
    Ftme,
    /// Legal service with escalating unfairness toward the watcher (the
    /// §5.1 remark; used by the single-instance ablation, E9).
    Unfair {
        /// Modelled internal-◇P convergence instant.
        convergence: Time,
    },
}

/// Which oracle the *black box* consumes (the reduction itself is
/// oracle-free).
#[derive(Clone, Copy, Debug)]
pub enum OracleSpec {
    /// Perfect detector with the given detection lag.
    Perfect {
        /// Ticks between a crash and its detection.
        lag: u64,
    },
    /// ◇P with random mistakes before `convergence`.
    DiamondP {
        /// Detection lag for real crashes.
        lag: u64,
        /// No wrongful suspicions at or after this instant.
        convergence: Time,
        /// Max wrongful-suspicion intervals per ordered pair.
        max_mistakes: u64,
        /// Max length of each interval.
        max_len: u64,
    },
    /// Trusting oracle: initial distrust ending by `trust_by`, then accurate.
    Trusting {
        /// Detection lag for real crashes.
        lag: u64,
        /// All initial distrust ends by this instant.
        trust_by: Time,
    },
}

impl OracleSpec {
    /// Materializes the oracle for a run.
    pub fn build(self, n: usize, crashes: CrashPlan, rng: &mut SplitMix64) -> InjectedOracle {
        match self {
            OracleSpec::Perfect { lag } => InjectedOracle::perfect(n, crashes, lag),
            OracleSpec::DiamondP { lag, convergence, max_mistakes, max_len } => {
                InjectedOracle::diamond_p(n, crashes, lag, convergence, max_mistakes, max_len, rng)
            }
            OracleSpec::Trusting { lag, trust_by } => {
                InjectedOracle::trusting(n, crashes, lag, trust_by, rng)
            }
        }
    }
}

/// Full description of one extraction run.
#[derive(Debug)]
pub struct Scenario {
    /// System size.
    pub n: usize,
    /// Ordered monitoring pairs; empty = all ordered pairs.
    pub pairs: Vec<(ProcessId, ProcessId)>,
    /// The black box under the reduction.
    pub black_box: BlackBox,
    /// The oracle consumed by the black box.
    pub oracle: OracleSpec,
    /// Root seed.
    pub seed: u64,
    /// Channel delays.
    pub delays: DelayModel,
    /// Crash schedule.
    pub crashes: CrashPlan,
    /// Run length.
    pub horizon: Time,
    /// Use the hardened (sequence-tagged) ping/ack variant.
    pub strict_seq: bool,
    /// Self-tick period of the reduction nodes (scheduling granularity).
    pub tick_every: u64,
    /// Fold the suspicion history online through one
    /// [`crate::detector::HistorySink`] per shard instead of materializing
    /// observation events in the trace: `O(pairs + changes)` resident
    /// memory, but [`ExtractionResult::pair_timelines`] becomes empty.
    pub streaming: bool,
    /// Coalesce each step's per-destination sends into single wire
    /// envelopes (one delay draw per envelope; FIFO within). Off by
    /// default — it changes delay sampling, hence schedules, under
    /// stochastic delay models.
    pub batch_envelopes: bool,
    /// Partition the simulated [`World`] into this many shards. `0` (the
    /// default) and `1` both mean one shard; the schedule, hence every
    /// result, is the same for every shard count.
    pub shards: usize,
    /// No-op: the simulator always runs timer wheels (see
    /// [`QueueBackend`], which says why the field still exists).
    pub queue: QueueBackend,
    /// Worker threads: with `threads ≥ 2` and `shards ≥ 2` the run
    /// executes on the simulator's shard-worker pool behind its
    /// deterministic barrier merge (byte-identical results for any thread
    /// count). Ignored by a one-shard world.
    pub threads: usize,
}

impl Scenario {
    /// A single-pair scenario (`p0` watches `p1`) with sensible defaults.
    pub fn pair(black_box: BlackBox, seed: u64) -> Self {
        Scenario {
            n: 2,
            pairs: vec![(ProcessId(0), ProcessId(1))],
            black_box,
            oracle: OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(2_000),
                max_mistakes: 3,
                max_len: 150,
            },
            seed,
            delays: DelayModel::default_async(),
            crashes: CrashPlan::none(),
            horizon: Time(40_000),
            strict_seq: false,
            tick_every: 4,
            streaming: false,
            batch_envelopes: false,
            shards: 0,
            queue: QueueBackend::default(),
            threads: 1,
        }
    }

    /// An all-ordered-pairs scenario over `n` processes.
    pub fn all_pairs(n: usize, black_box: BlackBox, seed: u64) -> Self {
        let mut sc = Scenario::pair(black_box, seed);
        sc.n = n;
        sc.pairs = all_ordered_pairs(n);
        sc
    }

    /// Builds the extraction run a scenario-DSL document describes: the
    /// `[sim]` section supplies size, seed, horizon, delay model and crash
    /// plan; `[model]` contributes the `strict_seq` hardening knob (the
    /// other `[model]` keys parameterize the explorer/fuzzer engines, which
    /// read the same document through
    /// `dinefd_explore::ExploreConfig::from_scenario`).
    pub fn from_dsl(doc: &dinefd_sim::scenario_dsl::Scenario, black_box: BlackBox) -> Self {
        let mut sc = Scenario::all_pairs(doc.sim.n as usize, black_box, doc.sim.seed);
        sc.delays = doc.sim.delay_model();
        sc.crashes = doc.sim.crash_plan();
        sc.horizon = Time(doc.sim.horizon);
        sc.strict_seq = doc.model.strict_seq;
        sc.threads = doc.sim.threads as usize;
        sc
    }
}

/// All ordered pairs `(w, s)`, `w ≠ s`, over `n` processes.
pub fn all_ordered_pairs(n: usize) -> Vec<(ProcessId, ProcessId)> {
    let mut out = Vec::with_capacity(n * (n - 1));
    for w in ProcessId::all(n) {
        for s in ProcessId::all(n) {
            if w != s {
                out.push((w, s));
            }
        }
    }
    out
}

/// Everything measured in one extraction run.
#[derive(Debug)]
pub struct ExtractionResult {
    /// The extracted detector's suspicion history.
    pub history: SuspicionHistory,
    /// The raw trace. In post-hoc mode observations are always present; in
    /// streaming mode they are folded into `history` as they happen and the
    /// trace carries none (so [`ExtractionResult::pair_timelines`] is empty).
    pub trace: Trace<RedMsg, RedObs>,
    /// Whether the history was folded online (see [`Scenario::streaming`]).
    pub streaming: bool,
    /// Logical resident size of the extracted history in timeline entries
    /// ([`SuspicionHistory::change_count`]); with `n²` initial outputs this
    /// is the whole streaming-mode memory footprint of extraction.
    pub history_changes: u64,
    /// The run's crash plan (for the spec checkers).
    pub crashes: CrashPlan,
    /// System size.
    pub n: usize,
    /// Run length.
    pub horizon: Time,
    /// Total atomic steps executed.
    pub steps: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Estimated resident bytes of the reduction nodes' pair state at
    /// construction (summed [`ReductionNode::resident_bytes`]); divide by
    /// the pair count for the bytes/pair scaling curves. Layout-dependent,
    /// so report it outside any determinism-diffed section.
    pub node_resident_bytes: u64,
    /// Full simulator metric export for the run (counters, queue-depth
    /// high-water, delay histogram), key-sorted and seed-deterministic.
    pub metrics: MetricMap,
    /// Wall-clock profiler with `simulate` and `extract` phases recorded;
    /// callers may time further phases (e.g. spec checking) on it before
    /// calling [`Profiler::report`].
    pub profiler: Profiler,
    /// Per-worker busy/barrier-wait wall-clock from parallel sharded runs;
    /// empty for sequential runs. Wall-clock is inherently
    /// nondeterministic — report it outside any determinism-diffed section.
    pub worker_stats: Vec<WorkerStats>,
}

impl ExtractionResult {
    /// Thread timelines of one pair (Fig. 1 material).
    pub fn pair_timelines(&self, watcher: ProcessId, subject: ProcessId) -> PairTimelines {
        PairTimelines::collect(&self.trace, watcher, subject, self.horizon)
    }
}

/// The dining-participant factory implementing a [`BlackBox`] choice.
pub fn factory_for(black_box: BlackBox) -> impl Fn(DxEndpoint) -> Box<dyn DiningParticipant> {
    move |ep: DxEndpoint| -> Box<dyn DiningParticipant> {
        match black_box {
            BlackBox::WfDx => Box::new(WfDxDining::new(ep.me, &[ep.peer])),
            BlackBox::Hygienic => Box::new(HygienicDining::new(ep.me, &[ep.peer])),
            // Coordinator at the watcher: the pair's output is only consumed
            // while the watcher lives, so a watcher-side coordinator keeps
            // every meaningful instance live.
            BlackBox::Delayed { convergence } => {
                Box::new(DelayedConvergenceDining::new(ep.me, ep.watcher, convergence))
            }
            BlackBox::Abstract { convergence } => {
                Box::new(AbstractDining::new(ep.me, ep.watcher, convergence))
            }
            BlackBox::Ftme => Box::new(FtmeDining::new(ep.me, &[ep.peer])),
            BlackBox::Unfair { convergence } => {
                Box::new(UnfairDining::new(ep.me, ep.watcher, convergence))
            }
        }
    }
}

/// Runs one extraction scenario to its horizon.
///
/// ```
/// use dinefd_core::{run_extraction, BlackBox, Scenario};
/// use dinefd_sim::{CrashPlan, ProcessId, Time};
///
/// let mut sc = Scenario::pair(BlackBox::WfDx, 7);
/// sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
/// let crashes = sc.crashes.clone();
/// let res = run_extraction(sc);
/// // The extracted detector permanently suspects the crashed subject…
/// assert!(res.history.strong_completeness(&crashes).is_ok());
/// // …after finitely many mistakes while it was alive.
/// assert!(res.history.mistake_intervals(ProcessId(0), ProcessId(1)) >= 1);
/// ```
///
/// # Panics
///
/// If a monitoring pair in [`Scenario::pairs`] names a process outside
/// `0..n`; the message names the pair.
pub fn run_extraction(sc: Scenario) -> ExtractionResult {
    let Scenario {
        n,
        pairs,
        black_box,
        oracle,
        seed,
        delays,
        crashes,
        horizon,
        strict_seq,
        tick_every,
        streaming,
        batch_envelopes,
        shards,
        queue,
        threads,
    } = sc;
    let pairs = if pairs.is_empty() { all_ordered_pairs(n) } else { pairs };
    if let Some((w, s)) = pairs.iter().find(|(w, s)| w.index() >= n || s.index() >= n) {
        panic!("monitoring pair ({w}, {s}) names a process outside the {n}-process system");
    }
    let mut rng = SplitMix64::new(seed ^ 0xD1CE_F00D);
    let oracle: Arc<dyn FdQuery + Send + Sync> =
        Arc::new(oracle.build(n, crashes.clone(), &mut rng));
    let factory = factory_for(black_box);
    // Pre-group the pair list once (O(P)) instead of letting every node
    // rescan it (O(n·P) ≈ O(n³) total for all-pairs systems — ruinous at
    // n ≥ 1024).
    let mut watch: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    let mut watched_by: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    for &(w, s) in &pairs {
        if w != s {
            watch[w.index()].push(s);
            watched_by[s.index()].push(w);
        }
    }
    let nodes: Vec<ReductionNode> = ProcessId::all(n)
        .map(|me| {
            let mut node = ReductionNode::from_groups(
                me,
                &watch[me.index()],
                &watched_by[me.index()],
                &factory,
                Arc::clone(&oracle),
                strict_seq,
            );
            node.set_tick_every(tick_every);
            node
        })
        .collect();
    let node_resident_bytes: u64 = nodes.iter().map(|nd| nd.resident_bytes() as u64).sum();
    let shards = shards.max(1);
    let mut cfg = WorldConfig::new(seed)
        .delays(delays)
        .crashes(crashes.clone())
        .queue_backend(queue)
        .threads(threads);
    if batch_envelopes {
        cfg = cfg.batch_envelopes();
    }
    // Streaming folds observations into one `HistorySink` per shard as the
    // simulator routes them, and keeps the trace free of observation
    // events, so the run's resident footprint is O(pairs + suspicion
    // changes), not O(run length). Each sink travels with its shard (onto
    // its worker thread, in parallel runs) and folds that shard's watcher
    // rows.
    let (world, handles) = if streaming {
        let handles: Vec<Arc<Mutex<HistorySink>>> =
            (0..shards).map(|_| Arc::new(Mutex::new(HistorySink::new(n, &pairs)))).collect();
        let sinks = handles
            .iter()
            .map(|h| Box::new(Arc::clone(h)) as Box<dyn ObsSink<RedObs> + Send>)
            .collect();
        let cfg = cfg.observation_events_off();
        (World::try_new_with_shard_sinks(nodes, cfg, shards, sinks), handles)
    } else {
        (World::try_new(nodes, cfg, shards), Vec::new())
    };
    let mut world = world.expect("at least one shard");
    let mut profiler = Profiler::new();
    profiler.time("simulate", || world.run_until(horizon));
    let worker_stats = world.worker_stats().to_vec();
    let (steps, messages_sent, metrics, trace) =
        (world.steps(), world.messages_sent(), world.metrics_map(), world.into_trace());
    let history = profiler.time("extract", || {
        if !streaming {
            return suspicion_history(n, &trace, &pairs);
        }
        // A watcher's observations all surface on its own shard, so
        // adopting each later shard's watcher rows into shard 0's fold
        // reassembles the sequential history row for row (see
        // `SuspicionHistory::adopt_watcher_rows`).
        let mut folds = handles.into_iter().map(|handle| {
            Arc::try_unwrap(handle)
                .expect("world dropped its sink handles")
                .into_inner()
                .expect("sink lock poisoned")
                .finish()
        });
        let mut merged = folds.next().expect("at least one shard");
        for (s, fold) in (1..).zip(folds) {
            merged.adopt_watcher_rows(&fold, (s..n).step_by(shards).map(ProcessId::from_index));
        }
        merged
    });
    let history_changes = history.change_count();
    ExtractionResult {
        history,
        trace,
        streaming,
        history_changes,
        crashes,
        n,
        horizon,
        steps,
        messages_sent,
        node_resident_bytes,
        metrics,
        profiler,
        worker_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_fd::OracleClass;

    #[test]
    fn all_ordered_pairs_counts() {
        assert_eq!(all_ordered_pairs(2).len(), 2);
        assert_eq!(all_ordered_pairs(4).len(), 12);
    }

    #[test]
    fn extraction_over_wfdx_failure_free_converges_to_trust() {
        let sc = Scenario::pair(BlackBox::WfDx, 11);
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let acc = res.history.eventual_strong_accuracy(&crashes);
        assert!(acc.is_ok(), "accuracy: {:?}", acc.err());
        let acc = acc.unwrap();
        let pair = acc.iter().find(|a| a.watcher == ProcessId(0)).unwrap();
        assert!(pair.trusted_from < res.horizon);
    }

    #[test]
    fn extraction_carries_metrics_and_profile() {
        let sc = Scenario::pair(BlackBox::WfDx, 19);
        let mut res = run_extraction(sc);
        assert_eq!(res.metrics["steps"], res.steps);
        assert_eq!(res.metrics["messages_sent"], res.messages_sent);
        assert!(res.metrics.keys().any(|k| k.starts_with("delay_ticks.")));
        // The caller can attribute its own checking phase, and the closed
        // profile's phases sum exactly to its total.
        res.profiler.time("check", || res.history.strong_completeness(&res.crashes).ok());
        let profile = res.profiler.report();
        assert!(profile.phase_nanos("simulate") > 0);
        assert_eq!(profile.phases.iter().map(|(_, ns)| *ns).sum::<u64>(), profile.total_nanos);
    }

    #[test]
    fn extraction_metrics_deterministic_across_reruns() {
        let run = |seed| {
            let mut sc = Scenario::pair(BlackBox::WfDx, seed);
            sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
            run_extraction(sc).metrics
        };
        assert_eq!(run(31), run(31));
    }

    #[test]
    fn extraction_over_wfdx_detects_crash() {
        let mut sc = Scenario::pair(BlackBox::WfDx, 13);
        sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let det = res.history.strong_completeness(&crashes).unwrap();
        assert_eq!(det.len(), 1);
        assert!(det[0].detected_from > det[0].crashed_at);
    }

    #[test]
    fn extraction_is_shard_count_invariant() {
        // The schedule must not depend on the shard count: the one-shard
        // world (`shards = 0`, what `World::new` builds) is the reference,
        // and every k must reproduce its history, step/message counts, and
        // metric export byte-for-byte — under a stochastic and a scripted
        // delay model.
        let staller = || {
            DelayModel::Scripted(Box::new(dinefd_sim::net::ChannelStaller {
                stalled: vec![(ProcessId(1), ProcessId(0)), (ProcessId(2), ProcessId(1))],
                release_at: Time(2_000),
                benign_hi: 8,
            }))
        };
        for delays in [DelayModel::default_async, staller] {
            let run = |shards: usize| {
                let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 23);
                sc.horizon = Time(6_000);
                sc.crashes = CrashPlan::one(ProcessId(2), Time(3_000));
                sc.delays = delays();
                sc.shards = shards;
                let res = run_extraction(sc);
                (res.steps, res.messages_sent, format!("{:?}", res.history), res.metrics)
            };
            let reference = run(0);
            for shards in [1, 2, 4] {
                assert_eq!(run(shards), reference, "shards={shards} delays={}", delays().kind());
            }
        }
    }

    /// Regression: a pair naming a process ≥ n was dropped from the watch
    /// lists but still indexed `w·n + s` in the history, aliasing onto
    /// another pair — (p0, p5) at n = 3 marked (p1, p2) as monitored.
    #[test]
    #[should_panic(expected = "monitoring pair (p0, p5) names a process outside")]
    fn out_of_range_pairs_are_rejected_by_name() {
        let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 7);
        sc.pairs = vec![(ProcessId(0), ProcessId(1)), (ProcessId(0), ProcessId(5))];
        run_extraction(sc);
    }

    #[test]
    fn streaming_matches_post_hoc_on_every_shard_count() {
        // Streaming folds the same observation stream the post-hoc trace
        // carries, so the extracted histories must agree exactly — whether
        // one per-shard sink folds everything or several split the rows.
        for shards in [1, 2] {
            let run = |streaming: bool| {
                let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 29);
                sc.horizon = Time(6_000);
                sc.crashes = CrashPlan::one(ProcessId(1), Time(3_000));
                sc.shards = shards;
                sc.streaming = streaming;
                let res = run_extraction(sc);
                (res.steps, res.messages_sent, format!("{:?}", res.history))
            };
            assert_eq!(run(true), run(false), "shards={shards}");
        }
    }

    #[test]
    fn parallel_extraction_is_byte_identical_to_sequential() {
        // The shard-worker pool's barrier merge must make thread count
        // unobservable end to end: history, counters, and the exported
        // metric map of a parallel extraction reproduce the sequential
        // sharded run byte-for-byte — on both extraction paths, including
        // the per-shard streaming sinks.
        for streaming in [false, true] {
            let run = |shards: usize, threads: usize| {
                let mut sc = Scenario::all_pairs(4, BlackBox::WfDx, 47);
                sc.horizon = Time(6_000);
                sc.crashes = CrashPlan::one(ProcessId(3), Time(3_000));
                sc.shards = shards;
                sc.threads = threads;
                sc.streaming = streaming;
                let res = run_extraction(sc);
                (res.steps, res.messages_sent, format!("{:?}", res.history), res.metrics)
            };
            for shards in [2, 4] {
                let reference = run(shards, 1);
                for threads in [2, 4] {
                    assert_eq!(
                        run(shards, threads),
                        reference,
                        "streaming={streaming} shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_extraction_reports_worker_stats() {
        let run = |threads: usize| {
            let mut sc = Scenario::all_pairs(4, BlackBox::WfDx, 53);
            sc.horizon = Time(4_000);
            sc.shards = 4;
            sc.threads = threads;
            run_extraction(sc).worker_stats
        };
        assert!(run(1).is_empty(), "sequential runs carry no worker stats");
        let stats = run(4);
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|w| w.instants.get() > 0));
    }

    #[test]
    fn extraction_reports_resident_bytes() {
        let small = run_extraction(Scenario::pair(BlackBox::WfDx, 41));
        let mut large_sc = Scenario::all_pairs(4, BlackBox::WfDx, 41);
        large_sc.horizon = Time(4_000);
        let large = run_extraction(large_sc);
        assert!(small.node_resident_bytes > 0);
        assert!(large.node_resident_bytes > small.node_resident_bytes);
    }

    #[test]
    fn extraction_over_abstract_box_is_diamond_p() {
        let mut sc = Scenario::all_pairs(3, BlackBox::Abstract { convergence: Time(3_000) }, 17);
        sc.crashes = CrashPlan::one(ProcessId(2), Time(6_000));
        sc.horizon = Time(60_000);
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let classes = res.history.classify(&crashes);
        assert!(
            classes.contains(&OracleClass::EventuallyPerfect),
            "extracted classes: {classes:?}"
        );
    }
}
