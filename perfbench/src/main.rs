//! `dinefd-perfbench`: one measured step of a benchmark workload.
//!
//! `perfbench/run.py` drives this binary; it is not meant to be called by
//! hand, but it can be:
//!
//! ```text
//! dinefd-perfbench setup verify --seed N --reps R   # verify's set-up only, R times
//! dinefd-perfbench run   <workload> --seed N       # one untraced pass
//! dinefd-perfbench trace <workload> --seed N       # untraced + traced pass
//! ```
//!
//! Workloads: `extract-posthoc`, `extract-wide`, `verify`, `live-soak`
//! (see `perfbench/README.md` for what each runs and why). Every
//! invocation prints one JSON object on stdout: the operations it checked
//! (`attempted`, `failed`) and its raw measurements under `samples`.
//! Untraced passes call only the entry points users call; traced passes
//! rebuild the same run from public constructors with timing wrappers
//! (`trace.rs`) and check that they reproduce the untraced run.

mod extract;
mod live;
mod probe;
mod trace;
mod verify;

use std::process::ExitCode;

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Samples by measurement name, in first-recorded order. `run.py`
    /// pools samples of one name across invocations before taking medians
    /// or percentiles.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Set when a traced pass failed to reproduce its untraced run.
    pub stale_trace: bool,
}

impl Outcome {
    /// Records one sample of measurement `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        match self.samples.iter_mut().find(|(k, _)| k == name) {
            Some((_, vs)) => vs.push(value),
            None => self.samples.push((name.to_string(), vec![value])),
        }
    }

    /// Records one operation check.
    pub fn check(&mut self, ok: bool) {
        self.checks(1, u64::from(!ok));
    }

    /// Records `attempted` operation checks, `failed` of them wrong.
    pub fn checks(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn to_json(&self) -> String {
        let num = |v: f64| if v.is_finite() { format!("{v}") } else { "null".to_string() };
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, vs)| {
                let vs: Vec<String> = vs.iter().map(|v| num(*v)).collect();
                format!("\"{k}\": [{}]", vs.join(", "))
            })
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"stale_trace\": {}, \"samples\": {{{}}}}}",
            self.attempted,
            self.failed,
            self.stale_trace,
            samples.join(", "),
        )
    }
}

const USAGE: &str =
    "usage: dinefd-perfbench run|trace <workload> --seed N | setup verify --seed N --reps R\n\
     workloads: extract-posthoc | extract-wide | verify | live-soak";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(workload)) = (args.first(), args.get(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let mut seed: Option<u64> = None;
    let mut reps: usize = 1;
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), value) {
            ("--seed", Some(v)) => seed = Some(v),
            ("--reps", Some(v @ 1..=1000)) => reps = v as usize,
            _ => {
                eprintln!("bad flag `{flag}`\n{USAGE}");
                return ExitCode::from(64);
            }
        }
    }
    let Some(seed) = seed else {
        eprintln!("--seed is required\n{USAGE}");
        return ExitCode::from(64);
    };

    let outcome = match (mode.as_str(), workload.as_str()) {
        ("run", w @ ("extract-posthoc" | "extract-wide")) => extract::run(w, seed),
        ("trace", w @ ("extract-posthoc" | "extract-wide")) => extract::trace(w, seed),
        ("setup", "verify") => verify::setup(seed, reps),
        ("run", "verify") => verify::run(seed),
        ("trace", "verify") => verify::trace(seed),
        ("run", "live-soak") => live::run(seed),
        ("trace", "live-soak") => live::trace(seed),
        _ => {
            eprintln!("unknown mode or workload\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
