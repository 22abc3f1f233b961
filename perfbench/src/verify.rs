//! The `verify` workload: what `dinefd analyze` runs over six model
//! configurations, the serial composed explorer, and the schedule fuzzer.
//! No simulator runs here.

use std::time::Instant;

use dinefd_analyze::kinduct::{run_kinduction, KinductOptions};
use dinefd_analyze::{run_lints, Ir, IrConfig};
use dinefd_explore::{explore_composed, ComposedConfig};
use dinefd_fuzz::{FuzzConfig, Fuzzer};
use dinefd_sim::SplitMix64;

use crate::probe::{cpu_s, peak_rss_mb};
use crate::Outcome;

/// Fuzz runs per pass (one after each proof configuration), each from its
/// own seed so that no one seed's corpus sets the cost per execution, and
/// mutation iterations per run: 150,000 iterations a pass in all.
const FUZZ_RUNS: u64 = 6;
const FUZZ_ITERATIONS: u64 = 25_000;

/// The six analysis configurations: wire caps {2, 4, 8} × {faithful,
/// strict}.
fn configs() -> Vec<IrConfig> {
    [2, 4, 8]
        .into_iter()
        .flat_map(|wire_cap| {
            [false, true].map(|strict_seq| IrConfig {
                wire_cap,
                strict_seq,
                ..IrConfig::faithful()
            })
        })
        .collect()
}

/// The serial composed explorer with crash and mistakes on, depth 16.
fn explore_config() -> ComposedConfig {
    ComposedConfig {
        max_depth: 16,
        allow_crash: true,
        allow_mistakes: true,
        threads: 1,
        ..ComposedConfig::default()
    }
}

/// The faithful-model fuzz runs for benchmark seed `seed`.
fn fuzz_configs(seed: u64) -> Vec<FuzzConfig> {
    let mut rng = SplitMix64::new(seed);
    (0..FUZZ_RUNS)
        .map(|_| FuzzConfig {
            seed: rng.next_u64(),
            iterations: FUZZ_ITERATIONS,
            ..FuzzConfig::default()
        })
        .collect()
}

/// Set-up alone, `reps` times: the six IRs, the explorer up to its first
/// expansion (depth 0: visited store and initial-state checks), and the
/// fuzzers' seed-corpus phases (zero mutation iterations).
pub fn setup(seed: u64, reps: usize) -> Outcome {
    let mut out = Outcome::default();
    for _ in 0..reps {
        let t = Instant::now();
        let irs: Vec<Ir> = configs().into_iter().map(Ir::new).collect();
        let explored = explore_composed(&ComposedConfig { max_depth: 0, ..explore_config() });
        let seeded: Vec<_> = fuzz_configs(seed)
            .into_iter()
            .map(|cfg| Fuzzer::new(FuzzConfig { iterations: 0, ..cfg }).run())
            .collect();
        out.put("setup_s", t.elapsed().as_secs_f64());
        drop((irs, explored, seeded));
    }
    out
}

/// One untraced pass.
pub fn run(seed: u64) -> Outcome {
    pass(seed, false)
}

/// One pass with the per-layer split (each layer is a separate call, so
/// the traced pass times the same calls and adds no wrappers).
pub fn trace(seed: u64) -> Outcome {
    pass(seed, true)
}

fn pass(seed: u64, layers: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut lints_s, mut kinduct_s) = (0.0, 0.0);
    let (mut conflicts, mut decisions, mut clauses) = (0u64, 0u64, 0u64);
    let (mut executions, mut coverage, mut fuzz_s, mut fuzz_cpu) = (0, 0, 0.0, 0.0);

    // The explorer runs once first, on a fresh heap, then once after each
    // proof, as the fuzzer does, so that all three measurements span the
    // whole pass instead of one slice of it: a shared host's speed drifts
    // over seconds, and a single explorer run takes half a second.
    let (mut explore_s, mut states, mut transitions) = (0.0, 0, 0);
    let mut explore = |out: &mut Outcome| {
        let t = Instant::now();
        let report = explore_composed(&explore_config());
        let secs = t.elapsed().as_secs_f64();
        out.check(report.clean() && !report.truncated);
        out.put("ops_per_s", report.states_visited as f64 / secs);
        explore_s += secs;
        (states, transitions) = (report.states_visited, report.transitions);
    };
    explore(&mut out);
    // The explorer's visited store is the pass's largest allocation, so the
    // peak is read after its fresh-heap run. The later runs only add the
    // heap fragmentation left by the proofs and fuzz runs in between, which
    // varies with the fuzz seeds.
    out.put("peak_rss_mb", peak_rss_mb());

    for (cfg, fuzz) in configs().into_iter().zip(fuzz_configs(seed)) {
        let t = Instant::now();
        let lints = run_lints(&cfg);
        lints_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let proof = run_kinduction(&cfg, &KinductOptions::default());
        kinduct_s += t.elapsed().as_secs_f64();
        out.check(lints.overlaps.is_empty());
        out.check(lints.dead_guards.is_empty());
        out.check(lints.idempotence.is_empty());
        out.check(lints.codec.clean());
        out.check(lints.completeness.is_empty());
        for lemma in &proof.lemmas {
            out.check(lemma.proved());
        }
        out.check(proof.closure_ok);
        conflicts += proof.stats.conflicts;
        decisions += proof.stats.decisions;
        clauses += proof.clauses;

        explore(&mut out);

        let cpu0 = cpu_s();
        let t = Instant::now();
        let fuzzed = Fuzzer::new(fuzz).run();
        fuzz_s += t.elapsed().as_secs_f64();
        fuzz_cpu += cpu_s() - cpu0;
        out.check(fuzzed.findings.is_empty());
        executions += fuzzed.executions;
        coverage += fuzzed.coverage_states;
    }

    out.put("run_s", lints_s + kinduct_s);
    out.put("cpu_ms_per_kop", fuzz_cpu * 1e6 / executions as f64);
    if layers {
        out.put("analyze.lints_s", lints_s);
        out.put("analyze.kinduct_s", kinduct_s);
        out.put("analyze.sat_conflicts", conflicts as f64);
        out.put("analyze.sat_decisions", decisions as f64);
        out.put("analyze.cnf_clauses", clauses as f64);
        out.put("explore.states", states as f64);
        out.put("explore.transitions", transitions as f64);
        out.put("explore.self_s", explore_s);
        out.put("fuzz.executions", executions as f64);
        out.put("fuzz.coverage_states", coverage as f64);
        out.put("fuzz.self_s", fuzz_s);
        out.put("fuzz.execs_per_s", executions as f64 / fuzz_s);
    }
    out
}
