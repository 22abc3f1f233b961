//! The O(1) `InjectedOracle::suspected` against the reference formula it
//! replaces: a subject is suspected once its crash plus the detection lag
//! (saturating) has passed, otherwise exactly while the pair's mistake plan
//! is active. The fast path reads a per-subject table and skips the mistake
//! table from the convergence instant on; both must be invisible.

use dinefd_fd::{FdQuery, InjectedOracle, MistakePlan};
use dinefd_sim::{CrashPlan, ProcessId, SplitMix64, Time};
use proptest::prelude::*;

fn reference(o: &InjectedOracle, lag: u64, w: ProcessId, s: ProcessId, t: Time) -> bool {
    if w == s {
        return false;
    }
    if let Some(c) = o.crash_plan().crash_time(s) {
        if t.ticks() >= c.ticks().saturating_add(lag) {
            return true;
        }
    }
    o.mistakes(w, s).active_at(t)
}

/// Compares the oracle with the reference at every `(w, s, t)` for
/// `t ≤ horizon`, plus the instants around the convergence time and the
/// far end of time.
fn assert_matches(o: &InjectedOracle, lag: u64, horizon: u64) {
    let conv = o.convergence_time().ticks();
    let probes = (0..=horizon)
        .chain([conv.saturating_sub(1), conv, conv + 1, u64::MAX - 1, u64::MAX])
        .map(Time);
    for t in probes {
        for w in ProcessId::all(o.len()) {
            for s in ProcessId::all(o.len()) {
                assert_eq!(
                    o.suspected(w, s, t),
                    reference(o, lag, w, s, t),
                    "({w}, {s}) at {t:?}, convergence {conv}"
                );
            }
        }
    }
    let quiet = (0..o.len() * o.len())
        .map(|i| (ProcessId::from_index(i / o.len()), ProcessId::from_index(i % o.len())))
        .map(|(w, s)| o.mistakes(w, s).quiet_from())
        .max()
        .unwrap_or(Time::ZERO);
    assert_eq!(o.convergence_time(), quiet, "convergence is the last mistake's end");
}

fn crash_plan(n: usize, crashes: &[(usize, u64)]) -> CrashPlan {
    let mut plan = CrashPlan::none();
    for &(p, at) in crashes {
        let p = ProcessId::from_index(p % n);
        if !plan.is_faulty(p) {
            plan.add(p, Time(at));
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_oracle_matches_reference_on_every_constructor(
        seed in any::<u64>(),
        n in 1usize..5,
        crashes in prop::collection::vec((0usize..5, 0u64..120), 0..3),
        lag in 0u64..20,
        convergence in 0u64..100,
    ) {
        let plan = crash_plan(n, &crashes);
        let mut rng = SplitMix64::new(seed);
        assert_matches(&InjectedOracle::perfect(n, plan.clone(), lag), lag, 150);
        let dp = InjectedOracle::diamond_p(n, plan.clone(), lag, Time(convergence), 4, 30, &mut rng);
        prop_assert!(dp.convergence_time() <= Time(convergence));
        assert_matches(&dp, lag, 150);
        let t = InjectedOracle::trusting(n, plan, lag, Time(convergence), &mut rng);
        assert_matches(&t, lag, 150);
    }

    #[test]
    fn fast_oracle_tracks_convergence_through_set_mistakes(
        seed in any::<u64>(),
        n in 2usize..5,
        crashes in prop::collection::vec((0usize..5, 0u64..120), 0..3),
        lag in 0u64..20,
        edits in prop::collection::vec((0usize..25, 0u64..120, 0u64..30), 1..8),
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut o = InjectedOracle::diamond_p(
            n, crash_plan(n, &crashes), lag, Time(60), 3, 20, &mut rng,
        );
        for &(pair, start, len) in &edits {
            let (w, s) = (pair / 5 % n, pair % 5 % n);
            if w == s {
                continue;
            }
            // `len == 0` clears the pair; anything else replaces its plan
            // with one interval, raising or lowering the convergence time.
            let plan = if len == 0 {
                MistakePlan::none()
            } else {
                MistakePlan::from_intervals(vec![(Time(start), Time(start + len))])
            };
            o.set_mistakes(ProcessId::from_index(w), ProcessId::from_index(s), plan);
            assert_matches(&o, lag, 160);
        }
    }
}

#[test]
fn set_mistakes_lowers_convergence_when_the_last_plan_is_replaced() {
    let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
    let mut o = InjectedOracle::perfect(3, CrashPlan::none(), 0);
    o.set_mistakes(p0, p1, MistakePlan::from_intervals(vec![(Time(5), Time(40))]));
    o.set_mistakes(p2, p1, MistakePlan::from_intervals(vec![(Time(0), Time(10))]));
    assert_eq!(o.convergence_time(), Time(40));
    assert!(o.suspected(p0, p1, Time(39)));
    o.set_mistakes(p0, p1, MistakePlan::from_intervals(vec![(Time(1), Time(3))]));
    assert_eq!(o.convergence_time(), Time(10));
    assert!(!o.suspected(p0, p1, Time(39)));
    assert!(o.suspected(p2, p1, Time(9)));
    o.set_mistakes(p2, p1, MistakePlan::none());
    assert_eq!(o.convergence_time(), Time(3));
    o.set_mistakes(p1, p2, MistakePlan::from_intervals(vec![(Time(70), Time(90))]));
    assert_eq!(o.convergence_time(), Time(90));
    assert_matches(&o, 0, 100);
}

#[test]
fn crash_lag_saturating_at_infinity_is_suspected_only_at_infinity() {
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let lag = u64::MAX - 5;
    let o = InjectedOracle::perfect(2, CrashPlan::one(p1, Time(10)), lag);
    assert!(!o.suspected(p0, p1, Time(u64::MAX - 1)));
    assert!(o.suspected(p0, p1, Time::INFINITY));
    assert!(!o.suspected(p1, p0, Time::INFINITY), "a correct subject is never suspected");
    assert_matches(&o, lag, 50);
}
