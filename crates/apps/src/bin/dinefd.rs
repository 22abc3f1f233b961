//! The `dinefd` command-line tool.
//!
//! ```text
//! dinefd analyze [FLAGS]      static analysis: lints + inductive checking
//! dinefd fuzz [FLAGS]         coverage-guided schedule fuzzing
//! dinefd extract [FLAGS]      one ◇P-extraction run over n processes
//! dinefd live [FLAGS]         live loopback-TCP runtime: differential + soak
//! ```
//!
//! `dinefd analyze` runs the `dinefd-analyze` pipeline on one model
//! configuration: the five IR lint passes, then the invariant checker —
//! the explicit enumerator over the full typed abstract domain and/or the
//! symbolic k-induction engine (SAT over the bit-blasted IR), classifying
//! any counterexamples-to-induction against the concrete explorer. At the
//! default wire cap both engines are byte-for-byte interchangeable;
//! `--engine both` asserts that on every run. `--emit-tla` additionally
//! writes the configuration's transition system as a TLA+ module.
//!
//! Exit status: `0` when every checked obligation holds and every lint is
//! clean, `2` when any lemma fails, any lint is red, or `--engine both`
//! disagrees, `64` for bad usage (unknown flag, out-of-range value). So
//! the faithful configuration doubles as a CI gate, and a mutated
//! configuration's exit 2 is the expected demonstration.
//!
//! Flags (all optional):
//!
//! ```text
//! --wire-cap N              wire-counter saturation cap, 2..=8 (default 2;
//!                           the typed domain grows as (N+1)^4)
//! --engine NAME             auto | explicit | symbolic | both (default
//!                           auto: explicit at cap 2, symbolic above;
//!                           explicit is refused above cap 4)
//! --max-k N                 symbolic induction depth, 1..=8 (default 1)
//! --emit-tla FILE           write the TLA+ module for this configuration
//! --strict                  sequence-checked acks (hardened subject)
//! --no-crash                forbid the subject crash transition
//! --subject-mutation NAME   skip-ping-disable | ignore-trigger-guard |
//!                           skip-trigger-update
//! --model-mutation NAME     drop-ping-send | stale-ack-replay
//! --no-classify             skip concrete CTI classification (faster)
//! --skip-lints              induction only
//! --skip-induction          lints only
//! --help, -h                print usage on stdout and exit 0
//! ```
//!
//! `dinefd fuzz` runs the `dinefd-fuzz` coverage-guided schedule fuzzer
//! against one model configuration — from a scenario-DSL file, from
//! flags, or both (flags override the file). Findings are printed with
//! their ddmin-minimized replayable prefixes, and the `fuzz.*` metric
//! block is emitted for perf tooling. Exit status is `0` for a clean run,
//! `2` when any lemma violation was found, `64` for bad usage (including
//! scenario parse errors, which carry their line number).
//!
//! ```text
//! --scenario FILE           load a scenario-DSL document
//! --seed N                  fuzzer seed             (default 1)
//! --iterations N            mutation iterations     (default 2000)
//! --max-steps N             schedule length cap     (default 40)
//! --corpus-seeds N          initial random corpus   (default 16)
//! --time-budget-secs N      wall-clock cap; truncation only, never
//!                           extension (omit for fully deterministic runs)
//! --strict | --no-crash | --subject-mutation | --model-mutation
//!                           as for `analyze`
//! ```
//!
//! `dinefd extract` runs one simulator-backed ◇P-extraction over the full
//! ordered-pair matrix of `n` processes (the E8 harness's hot path, exposed
//! directly). It prints a one-line run summary followed by the
//! deterministic metric block, and exits `0` on success — the run itself
//! asserts internal invariants (routing, horizon saturation, cross-shard
//! merge order) and aborts loudly if any fail. `--shards K` partitions the
//! simulated world into `K` shards, and `--threads T` runs them on the
//! simulator's worker pool behind its deterministic barrier merge. Below
//! the summary line, *everything printed to stdout is byte-identical for
//! every shard and thread count* (per-worker busy/barrier-wait wall-clock,
//! which is inherently nondeterministic, goes to stderr), so
//! `diff <(dinefd extract --shards 4 --threads 4) <(dinefd extract
//! --shards 4)` is a direct determinism check.
//!
//! ```text
//! --n N                     system size             (default 8, min 2)
//! --seed N                  run seed                (default 42)
//! --horizon N               ticks to simulate       (default 5000)
//! --shards K                simulate on K shards    (default 0 = one shard)
//! --threads T               worker threads for the shards (default 1;
//!                           needs --shards >= 2 to engage)
//! --crash PID@TICK          crash PID at TICK (repeatable)
//! --streaming               extract through the streaming sink
//! --batch                   coalesce same-instant sends into envelopes
//! --strict                  sequence-checked acks (hardened subject)
//! ```
//!
//! `dinefd live` runs the identical heartbeat-◇P logic core on the live
//! loopback-TCP runtime (`dinefd-live`): first the sim-vs-live
//! differential matrix (crash × delay × GST; every cell must reach the
//! same timing-free verdict on both substrates), then the sustained-load
//! soak, which measures msgs/sec and the p99 crash-detection latency and
//! gates on zero false suspicions surviving past GST and zero missed
//! detections. Exit status is `0` when every matrix cell converges and the
//! soak gate holds, `2` otherwise. With `--bench-out FILE` the soak
//! numbers are written as a `dinefd-bench/v1` document whose measured
//! values live in the `nondet`/`wall` sections — wall-clock figures,
//! excluded from determinism diffs by construction.
//!
//! ```text
//! --n N                     system size per trial   (default 4, min 2)
//! --trials N                soak trials             (default 6, min 1)
//! --seed N                  base seed               (default 0x50AB)
//! --period-ms N             heartbeat period in ms  (default 8)
//! --crash-at-ms N           crash instant per trial (default 150)
//! --horizon-ms N            trial length in ms      (default 500)
//! --skip-matrix             soak only, no differential matrix
//! --bench-out FILE          write BENCH_live.json-style report to FILE
//! ```

use dinefd_analyze::induct::{render_summary, run_induction, InductOptions};
use dinefd_analyze::ir::{IrConfig, MAX_WIRE_CAP, MIN_WIRE_CAP};
use dinefd_analyze::kinduct::{
    agrees_with_explicit, render_kinduct_summary, run_kinduction, KinductOptions,
};
use dinefd_analyze::lints::{render_lints, run_lints};
use dinefd_core::machines::SubjectMutation;
use dinefd_explore::ModelMutation;
use dinefd_fuzz::{FuzzConfig, Fuzzer};
use dinefd_sim::scenario_dsl::Scenario;
use std::process::ExitCode;
use std::time::Duration;

/// The full usage text, shared by `--help` (stdout, exit 0) and usage
/// errors (stderr, exit 64) so the two can never drift apart.
const USAGE: &str = "usage: dinefd analyze [--wire-cap N] [--engine auto|explicit|symbolic|both] \
     [--max-k N] [--emit-tla FILE] [--strict] [--no-crash] \
     [--subject-mutation NAME] [--model-mutation NAME] \
     [--no-classify] [--skip-lints] [--skip-induction]\n\
     \x20      dinefd fuzz [--scenario FILE] [--seed N] [--iterations N] \
     [--max-steps N] [--corpus-seeds N] [--time-budget-secs N] \
     [--strict] [--no-crash] [--subject-mutation NAME] [--model-mutation NAME]\n\
     \x20      dinefd extract [--n N] [--seed N] [--horizon N] [--shards K] \
     [--threads T] [--crash PID@TICK] [--streaming] [--batch] [--strict]\n\
     \x20      dinefd live [--n N] [--trials N] [--seed N] [--period-ms N] \
     [--crash-at-ms N] [--horizon-ms N] [--skip-matrix] [--bench-out FILE]";

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("{USAGE}");
    ExitCode::from(64)
}

fn help() -> ExitCode {
    println!("{USAGE}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return help();
    }
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("extract") => extract(&args[1..]),
        Some("live") => live(&args[1..]),
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

fn fuzz(args: &[String]) -> ExitCode {
    let mut doc = Scenario::default();
    let mut time_budget: Option<u64> = None;
    let mut it = args.iter();
    let parse_u64 = |name: &str, v: Option<&String>| -> Result<u64, String> {
        let Some(v) = v else { return Err(format!("{name} needs a value")) };
        v.parse::<u64>().map_err(|_| format!("{name}: `{v}` is not an integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => {
                let Some(path) = it.next() else {
                    return usage("--scenario needs a file path");
                };
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => return usage(&format!("cannot read {path}: {e}")),
                };
                doc = match Scenario::parse(&text) {
                    Ok(d) => d,
                    Err(e) => return usage(&format!("{path}: {e}")),
                };
            }
            "--seed" => match parse_u64("--seed", it.next()) {
                Ok(v) => doc.fuzz.seed = v,
                Err(e) => return usage(&e),
            },
            "--iterations" => match parse_u64("--iterations", it.next()) {
                Ok(0) => return usage("--iterations must be at least 1"),
                Ok(v) => doc.fuzz.iterations = v,
                Err(e) => return usage(&e),
            },
            "--max-steps" => match parse_u64("--max-steps", it.next()) {
                Ok(v @ 1..=100_000) => doc.fuzz.max_steps = v as u32,
                Ok(v) => return usage(&format!("--max-steps {v} out of range [1, 100000]")),
                Err(e) => return usage(&e),
            },
            "--corpus-seeds" => match parse_u64("--corpus-seeds", it.next()) {
                Ok(v @ 0..=1_000_000) => doc.fuzz.corpus_seeds = v as u32,
                Ok(v) => return usage(&format!("--corpus-seeds {v} out of range")),
                Err(e) => return usage(&e),
            },
            "--time-budget-secs" => match parse_u64("--time-budget-secs", it.next()) {
                Ok(v) => time_budget = Some(v),
                Err(e) => return usage(&e),
            },
            "--strict" => doc.model.strict_seq = true,
            "--no-crash" => doc.model.allow_crash = false,
            "--subject-mutation" => {
                let Some(name) = it.next() else {
                    return usage("--subject-mutation needs a value");
                };
                use dinefd_sim::scenario_dsl::SubjectMutationSpec as S;
                doc.model.subject_mutation = match name.as_str() {
                    "skip-ping-disable" => S::SkipPingDisable,
                    "ignore-trigger-guard" => S::IgnoreTriggerGuard,
                    "skip-trigger-update" => S::SkipTriggerUpdate,
                    other => return usage(&format!("unknown subject mutation `{other}`")),
                };
            }
            "--model-mutation" => {
                let Some(name) = it.next() else {
                    return usage("--model-mutation needs a value");
                };
                use dinefd_sim::scenario_dsl::ModelMutationSpec as M;
                doc.model.model_mutation = match name.as_str() {
                    "drop-ping-send" => M::DropPingSend,
                    "stale-ack-replay" => M::StaleAckReplay,
                    other => return usage(&format!("unknown model mutation `{other}`")),
                };
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    let mut fuzzer = Fuzzer::new(FuzzConfig::from_scenario(&doc));
    if let Some(secs) = time_budget {
        fuzzer = fuzzer.with_time_budget(Duration::from_secs(secs));
    }
    let report = fuzzer.run();

    println!(
        "fuzz: {} executions, {} iterations, {} states covered, {} corpus entries{}",
        report.executions,
        report.iterations_run,
        report.coverage_states,
        report.corpus_entries,
        if report.timed_out { " (time budget expired)" } else { "" },
    );
    for f in &report.findings {
        println!("FINDING [{}] at iteration {}: {}", f.lemma, f.iteration, f.message);
        println!(
            "  minimized prefix ({} of {} steps): {}",
            f.minimized.len(),
            f.path.len(),
            dinefd_explore::fmt_path(&f.minimized, None),
        );
    }
    for (k, v) in report.metrics() {
        println!("{k} = {v}");
    }
    if report.findings.is_empty() {
        println!("fuzz: no lemma violations found");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn extract(args: &[String]) -> ExitCode {
    use dinefd_core::{run_extraction, BlackBox};
    use dinefd_sim::{CrashPlan, ProcessId, Time};

    let mut n: usize = 8;
    let mut seed: u64 = 42;
    let mut horizon: u64 = 5_000;
    let mut shards: usize = 0;
    let mut threads: usize = 1;
    let mut crashes = CrashPlan::none();
    let mut streaming = false;
    let mut batch = false;
    let mut strict = false;
    let mut it = args.iter();
    let parse_u64 = |name: &str, v: Option<&String>| -> Result<u64, String> {
        let Some(v) = v else { return Err(format!("{name} needs a value")) };
        v.parse::<u64>().map_err(|_| format!("{name}: `{v}` is not an integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => match parse_u64("--n", it.next()) {
                Ok(v @ 2..=4096) => n = v as usize,
                Ok(v) => return usage(&format!("--n {v} out of range [2, 4096]")),
                Err(e) => return usage(&e),
            },
            "--seed" => match parse_u64("--seed", it.next()) {
                Ok(v) => seed = v,
                Err(e) => return usage(&e),
            },
            "--horizon" => match parse_u64("--horizon", it.next()) {
                Ok(0) => return usage("--horizon must be at least 1"),
                Ok(v) => horizon = v,
                Err(e) => return usage(&e),
            },
            "--shards" => match parse_u64("--shards", it.next()) {
                Ok(v @ 0..=256) => shards = v as usize,
                Ok(v) => return usage(&format!("--shards {v} out of range [0, 256]")),
                Err(e) => return usage(&e),
            },
            "--threads" => match parse_u64("--threads", it.next()) {
                Ok(v @ 1..=64) => threads = v as usize,
                Ok(v) => return usage(&format!("--threads {v} out of range [1, 64]")),
                Err(e) => return usage(&e),
            },
            "--crash" => {
                let Some(spec) = it.next() else {
                    return usage("--crash needs PID@TICK");
                };
                let Some((pid, at)) = spec.split_once('@') else {
                    return usage(&format!("--crash `{spec}`: expected PID@TICK"));
                };
                let (Ok(pid), Ok(at)) = (pid.parse::<u32>(), at.parse::<u64>()) else {
                    return usage(&format!("--crash `{spec}`: expected PID@TICK"));
                };
                crashes.add(ProcessId(pid), Time(at));
            }
            "--streaming" => streaming = true,
            "--batch" => batch = true,
            "--strict" => strict = true,
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    if crashes.crashes().iter().any(|&(p, _)| p.index() >= n) {
        return usage("--crash PID must be below --n");
    }

    let mut sc = dinefd_core::Scenario::all_pairs(n, BlackBox::WfDx, seed);
    sc.horizon = Time(horizon);
    sc.crashes = crashes;
    sc.streaming = streaming;
    sc.batch_envelopes = batch;
    sc.shards = shards;
    sc.strict_seq = strict;
    sc.threads = threads;
    if threads > 1 && shards < 2 {
        return usage("--threads needs --shards >= 2 (one shard runs on one thread)");
    }
    let res = run_extraction(sc);

    println!(
        "extract: n={n} pairs={} horizon={horizon} shards={shards} streaming={streaming}",
        n * (n - 1),
    );
    println!(
        "extract: {} steps, {} messages, {} history changes, {} node-resident bytes",
        res.steps, res.messages_sent, res.history_changes, res.node_resident_bytes,
    );
    for (k, v) in &res.metrics {
        println!("{k} = {v}");
    }
    // Wall-clock per-worker accounting is nondeterministic by nature, so it
    // goes to stderr: stdout stays byte-identical across thread counts.
    for (w, stats) in res.worker_stats.iter().enumerate() {
        eprintln!(
            "worker {w}: {} instants, busy {}us, barrier-wait {}us",
            stats.instants.get(),
            stats.busy_micros.sum(),
            stats.barrier_wait_micros.sum(),
        );
    }
    ExitCode::SUCCESS
}

/// `BENCH_live.json` document: same shape as `dinefd-bench/v1` so tooling
/// can ingest it, but everything measured is wall-clock — the soak numbers
/// live in `nondet`/`wall` and are never baseline-diffed. Only structural
/// facts (sizes, and the gates that must always hold) go in `metrics`.
#[derive(Debug, serde::Serialize)]
struct LiveBenchDoc {
    schema: String,
    profile: String,
    metrics: dinefd_sim::MetricMap,
    wall: std::collections::BTreeMap<String, String>,
    nondet: dinefd_sim::MetricMap,
}

fn live(args: &[String]) -> ExitCode {
    use dinefd_live::{run_differential, run_soak, DiffScenario, SoakConfig};
    use dinefd_sim::ProcessId;

    let mut cfg = SoakConfig::quick();
    let mut matrix = true;
    let mut bench_out: Option<String> = None;
    let mut it = args.iter();
    let parse_u64 = |name: &str, v: Option<&String>| -> Result<u64, String> {
        let Some(v) = v else { return Err(format!("{name} needs a value")) };
        v.parse::<u64>().map_err(|_| format!("{name}: `{v}` is not an integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => match parse_u64("--n", it.next()) {
                Ok(v @ 2..=16) => cfg.n = v as usize,
                Ok(v) => return usage(&format!("--n {v} out of range [2, 16]")),
                Err(e) => return usage(&e),
            },
            "--trials" => match parse_u64("--trials", it.next()) {
                Ok(v @ 1..=100) => cfg.trials = v as usize,
                Ok(v) => return usage(&format!("--trials {v} out of range [1, 100]")),
                Err(e) => return usage(&e),
            },
            "--seed" => match parse_u64("--seed", it.next()) {
                Ok(v) => cfg.seed = v,
                Err(e) => return usage(&e),
            },
            "--period-ms" => match parse_u64("--period-ms", it.next()) {
                Ok(v @ 1..=1_000) => cfg.period_ms = v,
                Ok(v) => return usage(&format!("--period-ms {v} out of range [1, 1000]")),
                Err(e) => return usage(&e),
            },
            "--crash-at-ms" => match parse_u64("--crash-at-ms", it.next()) {
                Ok(v) => cfg.crash_at_ms = v,
                Err(e) => return usage(&e),
            },
            "--horizon-ms" => match parse_u64("--horizon-ms", it.next()) {
                Ok(0) => return usage("--horizon-ms must be at least 1"),
                Ok(v) => cfg.horizon_ms = v,
                Err(e) => return usage(&e),
            },
            "--skip-matrix" => matrix = false,
            "--bench-out" => {
                let Some(path) = it.next() else {
                    return usage("--bench-out needs a file path");
                };
                bench_out = Some(path.clone());
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    if cfg.crash_at_ms >= cfg.horizon_ms {
        return usage("--crash-at-ms must be below --horizon-ms");
    }

    let mut clean = true;
    let mut cells = 0u64;
    if matrix {
        // Crash × delay × GST: the same cells the differential test suite
        // asserts, driven here so a live box failure is reproducible from
        // the command line.
        let delay_cells: [(u64, u64, bool); 3] = [(0, 0, false), (150, 40, false), (150, 40, true)];
        for (i, &(gst, delay, ramping)) in delay_cells.iter().enumerate() {
            for crash in [None, Some((ProcessId::from_index(cfg.n - 1), 250))] {
                let scenario = DiffScenario {
                    crash,
                    gst,
                    delay,
                    ramping,
                    seed: cfg.seed.wrapping_add(i as u64),
                    horizon: 700,
                    ..DiffScenario::new(cfg.n, 0)
                };
                let report = run_differential(&scenario);
                cells += 1;
                let ok = report.converged() && report.sim.verdict.eventually_perfect;
                println!(
                    "live: matrix cell gst={gst} delay={delay} ramping={ramping} crash={} -> {}",
                    crash.map_or("none".to_string(), |(p, at)| format!("{p}@{at}ms")),
                    if ok { "converged" } else { "DIVERGED" },
                );
                if !ok {
                    eprintln!("  sim:  {:?}", report.sim.verdict);
                    eprintln!("  live: {:?}", report.live.verdict);
                    clean = false;
                }
            }
        }
    }

    let report = run_soak(&cfg);
    println!(
        "live: soak {} trials of n={} ({}ms each, crash at {}ms): \
         {:.0} msgs/sec, p99 detection {}ms (max {}ms over {} samples)",
        report.trials,
        cfg.n,
        cfg.horizon_ms,
        cfg.crash_at_ms,
        report.msgs_per_sec,
        report.p99_detection_ms,
        report.max_detection_ms,
        report.detection_samples,
    );
    println!(
        "live: gate {}: {} surviving false suspicions, {} missed detections, \
         {} transient mistakes (allowed)",
        if report.gate_ok() { "OK" } else { "FAILED" },
        report.surviving_false_suspicions,
        report.missed_detections,
        report.transient_mistakes,
    );
    clean &= report.gate_ok();

    if let Some(path) = bench_out {
        let mut doc = LiveBenchDoc {
            schema: "dinefd-bench/v1".to_string(),
            profile: "live".to_string(),
            metrics: dinefd_sim::MetricMap::new(),
            wall: std::collections::BTreeMap::new(),
            nondet: dinefd_sim::MetricMap::new(),
        };
        doc.metrics.insert("soak.n".into(), cfg.n as u64);
        doc.metrics.insert("soak.trials".into(), report.trials as u64);
        doc.metrics.insert("soak.gate_ok".into(), report.gate_ok() as u64);
        doc.metrics.insert(
            "soak.surviving_false_suspicions".into(),
            report.surviving_false_suspicions as u64,
        );
        doc.metrics.insert("soak.missed_detections".into(), report.missed_detections as u64);
        doc.metrics.insert("matrix.cells".into(), cells);
        doc.metrics.insert("matrix.converged".into(), clean as u64);
        doc.nondet.insert("soak.p99_detection_ms".into(), report.p99_detection_ms);
        doc.nondet.insert("soak.max_detection_ms".into(), report.max_detection_ms);
        doc.nondet.insert("soak.detection_samples".into(), report.detection_samples as u64);
        doc.nondet.insert("soak.transient_mistakes".into(), report.transient_mistakes as u64);
        doc.nondet.insert("soak.frames_delivered".into(), report.frames_delivered);
        doc.nondet.insert("soak.wall_ms".into(), report.wall_ms);
        doc.wall.insert("soak.msgs_per_sec".into(), format!("{:.6}", report.msgs_per_sec));
        doc.wall.insert("soak.secs".into(), format!("{:.6}", report.wall_ms as f64 / 1_000.0));
        let mut json = match serde_json::to_string_pretty(&doc) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: cannot serialize bench report: {e}");
                return ExitCode::from(2);
            }
        };
        json.push('\n');
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("live: wrote {path}");
    }

    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Which invariant-checking engine(s) an `analyze` run uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Explicit at the default cap, symbolic above it.
    Auto,
    /// Typed-domain enumeration only.
    Explicit,
    /// SAT-based k-induction only.
    Symbolic,
    /// Run both and assert they agree (cap 2 only — the agreement contract
    /// compares retained CTI sets, which are enumeration-order-defined).
    Both,
}

fn analyze(args: &[String]) -> ExitCode {
    let mut cfg = IrConfig::faithful();
    let mut classify = true;
    let mut do_lints = true;
    let mut do_induction = true;
    let mut engine = Engine::Auto;
    let mut max_k: u32 = 1;
    let mut emit_tla: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--strict" => cfg.strict_seq = true,
            "--no-crash" => cfg.allow_crash = false,
            "--no-classify" => classify = false,
            "--skip-lints" => do_lints = false,
            "--skip-induction" => do_induction = false,
            "--wire-cap" => {
                let Some(v) = it.next() else { return usage("--wire-cap needs a value") };
                cfg.wire_cap = match v.parse::<u8>() {
                    Ok(c) if (MIN_WIRE_CAP..=MAX_WIRE_CAP).contains(&c) => c,
                    _ => {
                        return usage(&format!(
                            "--wire-cap `{v}` out of range [{MIN_WIRE_CAP}, {MAX_WIRE_CAP}]"
                        ))
                    }
                };
            }
            "--engine" => {
                let Some(name) = it.next() else { return usage("--engine needs a value") };
                engine = match name.as_str() {
                    "auto" => Engine::Auto,
                    "explicit" => Engine::Explicit,
                    "symbolic" => Engine::Symbolic,
                    "both" => Engine::Both,
                    other => return usage(&format!("unknown engine `{other}`")),
                };
            }
            "--max-k" => {
                let Some(v) = it.next() else { return usage("--max-k needs a value") };
                max_k = match v.parse::<u32>() {
                    Ok(k @ 1..=8) => k,
                    _ => return usage(&format!("--max-k `{v}` out of range [1, 8]")),
                };
            }
            "--emit-tla" => {
                let Some(path) = it.next() else { return usage("--emit-tla needs a file path") };
                emit_tla = Some(path.clone());
            }
            "--subject-mutation" => {
                let Some(name) = it.next() else {
                    return usage("--subject-mutation needs a value");
                };
                cfg.subject_mutation = match name.as_str() {
                    "skip-ping-disable" => SubjectMutation::SkipPingDisable,
                    "ignore-trigger-guard" => SubjectMutation::IgnoreTriggerGuard,
                    "skip-trigger-update" => SubjectMutation::SkipTriggerUpdate,
                    other => return usage(&format!("unknown subject mutation `{other}`")),
                };
            }
            "--model-mutation" => {
                let Some(name) = it.next() else {
                    return usage("--model-mutation needs a value");
                };
                cfg.model_mutation = match name.as_str() {
                    "drop-ping-send" => ModelMutation::DropPingSend,
                    "stale-ack-replay" => ModelMutation::StaleAckReplay,
                    other => return usage(&format!("unknown model mutation `{other}`")),
                };
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    // Engine/cap compatibility: the explicit sweep is O((cap+1)^4) states
    // and the both-engines agreement contract is defined at the default cap.
    let resolved = match engine {
        Engine::Auto if cfg.wire_cap == MIN_WIRE_CAP => Engine::Explicit,
        Engine::Auto => Engine::Symbolic,
        e => e,
    };
    if matches!(resolved, Engine::Explicit | Engine::Both) && cfg.wire_cap > 4 {
        return usage(&format!(
            "--engine {} is impractical above --wire-cap 4 (the typed domain has \
             41472*(cap+1)^4 states); use --engine symbolic",
            if resolved == Engine::Both { "both" } else { "explicit" },
        ));
    }
    if resolved == Engine::Both && cfg.wire_cap != MIN_WIRE_CAP {
        return usage("--engine both compares retained CTI sets, defined at --wire-cap 2 only");
    }
    if max_k > 1 && matches!(resolved, Engine::Explicit) {
        return usage("--max-k applies to the symbolic engine (use --engine symbolic or both)");
    }

    if let Some(path) = &emit_tla {
        let module = dinefd_analyze::tla::render_tla(&cfg);
        if let Err(e) = std::fs::write(path, module) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("analyze: wrote TLA+ module to {path}");
    }

    let mut clean = true;
    if do_lints {
        let report = run_lints(&cfg);
        print!("{}", render_lints(&report));
        clean &= report.clean();
    }
    if do_induction {
        let opts =
            InductOptions { classify: if classify { 2 } else { 0 }, ..InductOptions::default() };
        let explicit_run = if matches!(resolved, Engine::Explicit | Engine::Both) {
            let run = run_induction(&cfg, &opts);
            print!("{}", render_summary(&run));
            clean &= run.all_inductive();
            Some(run)
        } else {
            None
        };
        if matches!(resolved, Engine::Symbolic | Engine::Both) {
            let kopts = KinductOptions { max_k, classify: opts, ..KinductOptions::default() };
            let run = run_kinduction(&cfg, &kopts);
            print!("{}", render_kinduct_summary(&run));
            clean &= run.all_proved();
            if let Some(exp) = &explicit_run {
                match agrees_with_explicit(&run, exp) {
                    Ok(()) => println!("analyze: engines agree (verdicts, CTIs, classifications)"),
                    Err(diff) => {
                        eprintln!("error: engine disagreement: {diff}");
                        clean = false;
                    }
                }
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
