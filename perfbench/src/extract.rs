//! The two extraction workloads: `run_extraction` untraced, and the traced
//! rebuild with its counter-identity self-check.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dinefd_core::scenario::factory_for;
use dinefd_core::{
    all_ordered_pairs, run_extraction, suspicion_history, BlackBox, DxEndpoint, HistorySink,
    OracleSpec, RedMsg, RedObs, ReductionNode, Scenario,
};
use dinefd_dining::DiningParticipant;
use dinefd_fd::{FdQuery, InjectedOracle, SuspicionHistory};
use dinefd_sim::{
    CrashPlan, MetricMap, Node, ObsSink, ProcessId, ShardedWorld, SplitMix64, Time, World,
    WorldConfig,
};

use crate::probe::{cpu_s, peak_rss_mb};
use crate::trace::{ProcCell, TimedDining, TimedFd, TimedNode, TimedSink, KINDS};
use crate::Outcome;

/// The extraction workload `name` for benchmark seed `seed`: the seed
/// picks the run seed and the crashed process, which crashes at
/// mid-horizon. Built afresh for every run: a `Scenario` owns its delay
/// model and is not `Clone`.
pub fn scenario(name: &str, seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let run_seed = rng.next_u64();
    let (n, horizon) = match name {
        "extract-posthoc" => (64, 5_000),
        "extract-wide" => (512, 128),
        other => panic!("not an extraction workload: {other}"),
    };
    // `extract-posthoc` keeps what `dinefd extract --n 64 --crash P@2500`
    // runs: classic engine, post-hoc trace, default oracle.
    let mut sc = Scenario::all_pairs(n, BlackBox::WfDx, run_seed);
    sc.horizon = Time(horizon);
    let victim = ProcessId::from_index(rng.below(n as u64) as usize);
    sc.crashes = CrashPlan::one(victim, Time(horizon / 2));
    if name == "extract-wide" {
        // A ◇P oracle that converges early enough for the extracted
        // detector to settle within the short horizon.
        sc.oracle =
            OracleSpec::DiamondP { lag: 2, convergence: Time(4), max_mistakes: 1, max_len: 2 };
        sc.streaming = true;
        sc.batch_envelopes = true;
        sc.shards = 4;
        sc.threads = 2;
    }
    sc
}

/// Checks an extracted history against the crash plan with the spec
/// checkers: T1 (strong completeness) for crashed subjects, T2 (eventual
/// strong accuracy) for correct ones. Each monitored pair with a correct
/// watcher is one operation, each violation one failure; a crashed
/// watcher owes nothing.
fn check_pairs(history: &SuspicionHistory, crashes: &CrashPlan, out: &mut Outcome) {
    let n = history.len();
    let checked = ProcessId::all(n)
        .filter(|&w| !crashes.is_faulty(w))
        .flat_map(|w| ProcessId::all(n).filter(move |&s| history.is_monitored(w, s)))
        .count();
    let violations = history.strong_completeness(crashes).err().map_or(0, |v| v.len())
        + history.eventual_strong_accuracy(crashes).err().map_or(0, |v| v.len());
    out.checks(checked as u64, violations as u64);
}

/// One untraced extraction through the user entry point.
pub fn run(name: &str, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let sc = scenario(name, seed);
    let crashes = sc.crashes.clone();
    let cpu0 = cpu_s();
    let t = Instant::now();
    let res = run_extraction(sc);
    let run_s = t.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu0;
    // `run_extraction` times its `simulate` and `extract` phases; the rest
    // of the call is oracle, pair grouping, node and world construction
    // before the first event, and dropping the world after the last.
    let phases_s =
        (res.profiler.phase_nanos("simulate") + res.profiler.phase_nanos("extract")) as f64 / 1e9;
    out.put("setup_s", run_s - phases_s);
    out.put("run_s", run_s);
    out.put("ops_per_s", res.steps as f64 / run_s);
    out.put("cpu_ms_per_kop", cpu * 1e6 / res.steps as f64);
    out.put("peak_rss_mb", peak_rss_mb());
    check_pairs(&res.history, &crashes, &mut out);
    out
}

/// The pair lists of one node, pre-grouped as `run_extraction` does.
struct Groups {
    pairs: Vec<(ProcessId, ProcessId)>,
    watch: Vec<Vec<ProcessId>>,
    watched_by: Vec<Vec<ProcessId>>,
}

impl Groups {
    fn new(n: usize) -> Self {
        let pairs = all_ordered_pairs(n);
        let mut watch = vec![Vec::new(); n];
        let mut watched_by = vec![Vec::new(); n];
        for &(w, s) in &pairs {
            watch[w.index()].push(s);
            watched_by[s.index()].push(w);
        }
        Groups { pairs, watch, watched_by }
    }
}

/// The oracle `run_extraction` builds for `sc`, with its seed derivation.
fn build_oracle(sc: &Scenario) -> InjectedOracle {
    let mut rng = SplitMix64::new(sc.seed ^ 0xD1CE_F00D);
    sc.oracle.build(sc.n, sc.crashes.clone(), &mut rng)
}

/// Builds the reduction nodes of `sc`, wrapping each with `wrap`.
fn build_nodes<N>(
    sc: &Scenario,
    groups: &Groups,
    factory: &dyn Fn(DxEndpoint) -> Box<dyn DiningParticipant>,
    fd: impl Fn(ProcessId) -> Arc<dyn FdQuery + Send + Sync>,
    wrap: impl Fn(ProcessId, ReductionNode) -> N,
) -> Vec<N> {
    ProcessId::all(sc.n)
        .map(|me| {
            let mut node = ReductionNode::from_groups(
                me,
                &groups.watch[me.index()],
                &groups.watched_by[me.index()],
                factory,
                fd(me),
                sc.strict_seq,
            );
            node.set_tick_every(sc.tick_every);
            wrap(me, node)
        })
        .collect()
}

/// A built simulation, engine chosen as `run_extraction` chooses it for
/// the two shapes the workloads use: classic post-hoc, or sharded
/// streaming on the worker pool with one sink per shard.
#[allow(clippy::large_enum_variant)] // one per run; never moved in a loop
enum Sim<N: Node<Msg = RedMsg, Obs = RedObs>, S> {
    Classic(World<N>),
    Sharded(ShardedWorld<N>, Vec<Arc<Mutex<S>>>),
}

fn build_sim<N, S>(sc: Scenario, nodes: Vec<N>, sink: impl Fn() -> S) -> Sim<N, S>
where
    N: Node<Msg = RedMsg, Obs = RedObs> + Send,
    S: ObsSink<RedObs> + Send + 'static,
{
    let mut cfg = WorldConfig::new(sc.seed)
        .delays(sc.delays)
        .crashes(sc.crashes)
        .queue_backend(sc.queue)
        .threads(sc.threads);
    if sc.batch_envelopes {
        cfg = cfg.batch_envelopes();
    }
    if sc.shards == 0 {
        assert!(!sc.streaming, "classic workloads extract post-hoc");
        return Sim::Classic(World::new(nodes, cfg));
    }
    assert!(sc.streaming && sc.shards >= 2 && sc.threads >= 2, "sharded workloads run parallel");
    let handles: Vec<Arc<Mutex<S>>> =
        (0..sc.shards).map(|_| Arc::new(Mutex::new(sink()))).collect();
    let sinks = handles
        .iter()
        .map(|h| Box::new(Arc::clone(h)) as Box<dyn ObsSink<RedObs> + Send>)
        .collect();
    let world = ShardedWorld::try_new_with_shard_sinks(
        nodes,
        cfg.observation_events_off(),
        sc.shards,
        sinks,
    )
    .expect("workload delay model is cloneable");
    Sim::Sharded(world, handles)
}

/// Node and world construction of one rebuilt run, timed apart (the
/// untraced call times only their sum): `(nodes_s, world_s)`.
fn setup_split(sc: Scenario) -> (f64, f64) {
    let t0 = Instant::now();
    let groups = Groups::new(sc.n);
    let oracle: Arc<dyn FdQuery + Send + Sync> = Arc::new(build_oracle(&sc));
    let factory = factory_for(sc.black_box);
    let nodes = build_nodes(&sc, &groups, &factory, |_| Arc::clone(&oracle), |_, nd| nd);
    let t1 = Instant::now();
    let n = sc.n;
    let sim = build_sim(sc, nodes, || HistorySink::new(n, &groups.pairs));
    let t2 = Instant::now();
    drop(sim);
    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// What the traced run must reproduce of the untraced one.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    steps: u64,
    messages_sent: u64,
    metrics: MetricMap,
    history_changes: u64,
}

/// What the traced rebuild measured.
struct Traced {
    fingerprint: Fingerprint,
    /// Seconds from oracle construction to the extracted history.
    run_s: f64,
    /// Simulator threads × `run_until` wall seconds.
    worker_s: f64,
    /// Per node: per-kind busy seconds of host, dining and oracle layers.
    busy: Vec<[[f64; 5]; 3]>,
    /// Handler calls by kind, summed over nodes.
    calls: [u64; 5],
    /// Oracle queries and dining calls, summed over nodes.
    fd_queries: u64,
    dining_calls: u64,
    /// Observations routed: suspicion changes, dining phases.
    obs: [u64; 2],
    fold_s: f64,
    extract_s: f64,
}

/// Rebuilds the run of `sc` with every layer wrapped and runs it.
fn run_traced(sc: Scenario) -> Traced {
    let (n, horizon, shards) = (sc.n, sc.horizon, sc.shards);
    crate::trace::calibration();
    let t_run = Instant::now();
    let groups = Groups::new(n);
    let oracle = Arc::new(build_oracle(&sc));
    let cells: Vec<Arc<ProcCell>> = (0..n).map(|_| Arc::new(ProcCell::default())).collect();
    let inner_factory = factory_for(sc.black_box);
    let factory = |ep: DxEndpoint| -> Box<dyn DiningParticipant> {
        Box::new(TimedDining::new(inner_factory(ep), Arc::clone(&cells[ep.me.index()])))
    };
    let nodes = build_nodes(
        &sc,
        &groups,
        &factory,
        |me| Arc::new(TimedFd::new(Arc::clone(&oracle), Arc::clone(&cells[me.index()]))),
        |me, nd| TimedNode::new(nd, Arc::clone(&cells[me.index()])),
    );
    let sim = build_sim(sc, nodes, || TimedSink::new(HistorySink::new(n, &groups.pairs)));

    let mut calls = [0u64; 5];
    let mut tally = |node: &TimedNode| {
        for (total, c) in calls.iter_mut().zip(node.host.calls) {
            *total += c;
        }
        layer_busy(node)
    };
    let t_sim = Instant::now();
    let (worker_s, busy, steps, messages_sent, metrics);
    let (history, obs, fold_s, extract_s);
    match sim {
        Sim::Classic(mut world) => {
            world.run_until(horizon);
            worker_s = t_sim.elapsed().as_secs_f64();
            busy = ProcessId::all(n).map(|p| tally(world.node(p))).collect();
            (steps, messages_sent, metrics) =
                (world.steps(), world.messages_sent(), world.metrics_map());
            let trace = world.into_trace();
            let t = Instant::now();
            history = suspicion_history(n, &trace, &groups.pairs);
            extract_s = t.elapsed().as_secs_f64();
            let mut kinds = [0u64; 2];
            for (_, _, o) in trace.observations() {
                kinds[usize::from(matches!(o, RedObs::DxPhase { .. }))] += 1;
            }
            (obs, fold_s) = (kinds, 0.0);
        }
        Sim::Sharded(mut world, handles) => {
            world.run_until(horizon);
            worker_s = t_sim.elapsed().as_secs_f64() * world.threads() as f64;
            busy = ProcessId::all(n).map(|p| tally(world.node(p))).collect();
            (steps, messages_sent, metrics) =
                (world.steps(), world.messages_sent(), world.metrics_map());
            drop(world);
            // The per-shard merge `run_extraction` performs.
            let t = Instant::now();
            let mut merged = SuspicionHistory::new(n, true);
            merged.restrict_to(&groups.pairs);
            let (mut kinds, mut fold) = ([0u64; 2], 0.0);
            for (s, handle) in handles.into_iter().enumerate() {
                let sink = Arc::try_unwrap(handle)
                    .expect("world dropped its sink handles")
                    .into_inner()
                    .expect("sink lock poisoned");
                kinds[0] += sink.suspicion;
                kinds[1] += sink.dxphase;
                fold += sink.busy_s();
                merged.adopt_watcher_rows(
                    &sink.sink.finish(),
                    (s..n).step_by(shards).map(ProcessId::from_index),
                );
            }
            extract_s = t.elapsed().as_secs_f64();
            (history, obs, fold_s) = (merged, kinds, fold);
        }
    }
    Traced {
        fingerprint: Fingerprint {
            steps,
            messages_sent,
            metrics,
            history_changes: history.change_count(),
        },
        run_s: t_run.elapsed().as_secs_f64(),
        worker_s,
        busy,
        calls,
        fd_queries: cells.iter().map(|c| c.fd.calls()).sum(),
        dining_calls: cells.iter().map(|c| c.dining.calls()).sum(),
        obs,
        fold_s,
        extract_s,
    }
}

/// One node's per-kind busy seconds of its host, dining and oracle
/// layers, each net of the samples nested in it.
fn layer_busy(node: &TimedNode) -> [[f64; 5]; 3] {
    let cell = node.cell();
    let (dining, fd) = (&cell.dining, &cell.fd);
    [
        std::array::from_fn(|k| node.host.busy_s(k, dining.timed(k) + fd.timed(k))),
        std::array::from_fn(|k| dining.busy_s(k, fd.timed(k))),
        std::array::from_fn(|k| fd.busy_s(k, 0)),
    ]
}

/// Untraced run, set-up alone, then the traced rebuild; publishes the
/// per-layer split only if the rebuild reproduces the untraced run.
pub fn trace(name: &str, seed: u64) -> Outcome {
    let mut out = Outcome::default();

    let sc = scenario(name, seed);
    let crashes = sc.crashes.clone();
    let t = Instant::now();
    let res = run_extraction(sc);
    let untraced_s = t.elapsed().as_secs_f64();
    check_pairs(&res.history, &crashes, &mut out);
    let reference = Fingerprint {
        steps: res.steps,
        messages_sent: res.messages_sent,
        metrics: res.metrics.clone(),
        history_changes: res.history_changes,
    };
    let barrier_wait_us: u64 = res.worker_stats.iter().map(|w| w.barrier_wait_micros.sum()).sum();
    out.put("setup.node_bytes", res.node_resident_bytes as f64);
    drop(res);

    let (nodes_s, world_s) = setup_split(scenario(name, seed));
    out.put("setup.nodes_s", nodes_s);
    out.put("setup.world_s", world_s);

    let traced = run_traced(scenario(name, seed));
    out.check(traced.fingerprint == reference);
    if traced.fingerprint != reference {
        eprintln!(
            "traced run diverged from the untraced run:\n  untraced {reference:?}\n  traced {:?}",
            traced.fingerprint
        );
        out.stale_trace = true;
        return out;
    }

    // [layer][kind] busy seconds summed over nodes.
    let mut busy = [[0.0f64; 5]; 3];
    for node in &traced.busy {
        for (total, b) in busy.iter_mut().flatten().zip(node.iter().flatten()) {
            *total += b;
        }
    }
    let [host, dining, fd] = busy;
    for (k, kind) in KINDS.iter().enumerate() {
        let self_s = host[k] - dining[k];
        if kind == &"start" {
            out.put("host.start_s", self_s);
        } else {
            out.put(&format!("host.{kind}.calls"), traced.calls[k] as f64);
            out.put(&format!("host.{kind}.self_s"), self_s);
        }
    }
    let steps = traced.fingerprint.steps as f64;
    let metrics = &traced.fingerprint.metrics;
    let [suspicion, dxphase] = traced.obs.map(|c| c as f64);
    out.put("dining.calls", traced.dining_calls as f64);
    out.put("dining.self_s", (0..5).map(|k| dining[k] - fd[k]).sum());
    out.put("fd.queries", traced.fd_queries as f64);
    out.put("fd.query_s", fd.iter().sum());
    out.put("fd.queries_per_step", traced.fd_queries as f64 / steps);
    out.put("detector.obs_suspicion", suspicion);
    out.put("detector.obs_dxphase", dxphase);
    out.put("detector.useful_ratio", suspicion / (suspicion + dxphase).max(1.0));
    out.put("detector.fold_s", traced.fold_s);
    out.put("detector.extract_s", traced.extract_s);
    out.put("sim.self_s", traced.worker_s - host.iter().sum::<f64>() - traced.fold_s);
    out.put("sim.events_pending_max", metrics["queue_depth_high_water"] as f64);
    out.put("sim.timer_fires", metrics["timer_fires"] as f64);
    out.put("sim.barrier_wait_s", barrier_wait_us as f64 / 1e6);
    out.put(
        "sim.msgs_per_envelope",
        metrics["messages_sent"] as f64 / metrics["envelopes_sent"].max(1) as f64,
    );
    out.put("trace.run_s", traced.run_s);
    out.put("trace.overhead_s", traced.run_s - untraced_s);
    out
}
