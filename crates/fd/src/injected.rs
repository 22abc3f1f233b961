//! Scripted ("injected") failure-detector oracles.
//!
//! The necessity reduction treats the dining layer as a black box over *some*
//! system where WF-◇WX is solvable; the sufficiency results \[12, 13\] build
//! that layer from ◇P. For experiments we therefore need a ◇P (or P, or T)
//! module underneath the dining implementations whose mistake behaviour we
//! fully control: an [`InjectedOracle`] knows the run's crash plan and a
//! per-pair schedule of wrongful-suspicion intervals, and answers queries as
//! a local detector module would. Because the mistake schedule is an input,
//! experiments can drive worst-case finite prefixes (adversarial flapping,
//! long initial distrust) rather than hoping a heartbeat implementation
//! happens to misbehave.

use std::fmt;

use dinefd_sim::{CrashPlan, ProcessId, SplitMix64, Time};

/// Read-only query interface of a local failure-detector module, as seen by
/// the protocols that consume it.
///
/// `now` is threaded through because the injected oracle is an omniscient
/// *model* of a detector module: the real artifact it stands for (see
/// [`crate::heartbeat`]) evolves with local steps; its simulated stand-in
/// indexes a precomputed timeline by global time instead.
///
/// An implementation must be a side-effect-free function of
/// `(watcher, subject, now)`: callers skip queries whose answer can no
/// longer change their state (the dining layer stops re-querying an edge
/// once it has been trusted), so the number and order of calls is not part
/// of the contract.
pub trait FdQuery: fmt::Debug {
    /// Does `watcher`'s module currently suspect `subject`?
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool;

    /// System size.
    fn len(&self) -> usize;

    /// True when the system is empty (never, in practice).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wrongful-suspicion schedule of one ordered `(watcher, subject)` pair:
/// half-open intervals `[start, end)` during which the watcher wrongfully
/// suspects the (live) subject.
#[derive(Clone, Debug, Default)]
pub struct MistakePlan {
    intervals: Vec<(Time, Time)>,
}

impl MistakePlan {
    /// No mistakes ever.
    pub fn none() -> Self {
        MistakePlan::default()
    }

    /// A plan from explicit half-open intervals.
    ///
    /// # Panics
    ///
    /// In every build profile, if the intervals are not chronological,
    /// disjoint and non-empty: [`MistakePlan::quiet_from`] reads the last
    /// interval's end as the plan's end, so an unsorted plan would
    /// under-report the oracle's convergence time.
    pub fn from_intervals(intervals: Vec<(Time, Time)>) -> Self {
        assert!(intervals.iter().all(|&(s, e)| s < e), "intervals must be nonempty");
        assert!(
            intervals.windows(2).all(|w| w[0].1 <= w[1].0),
            "intervals must be sorted/disjoint"
        );
        MistakePlan { intervals }
    }

    /// Random finite mistakes: up to `max_mistakes` intervals of length in
    /// `[1, max_len]`, all contained in `[0, before)`.
    pub fn random(rng: &mut SplitMix64, before: Time, max_mistakes: u64, max_len: u64) -> Self {
        if before == Time::ZERO || max_mistakes == 0 {
            return MistakePlan::none();
        }
        let k = rng.below(max_mistakes + 1);
        let mut starts: Vec<u64> = (0..k).map(|_| rng.below(before.ticks())).collect();
        starts.sort_unstable();
        let mut intervals = Vec::with_capacity(starts.len());
        let mut cursor = 0u64;
        for s in starts {
            let s = s.max(cursor);
            if s >= before.ticks() {
                break;
            }
            let e = (s + rng.range(1, max_len.max(1))).min(before.ticks());
            if s < e {
                intervals.push((Time(s), Time(e)));
                cursor = e;
            }
        }
        MistakePlan { intervals }
    }

    /// Whether the plan says "suspect" at instant `t`.
    pub fn active_at(&self, t: Time) -> bool {
        self.intervals.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// The scheduled intervals.
    pub fn intervals(&self) -> &[(Time, Time)] {
        &self.intervals
    }

    /// The end of the last mistake interval ([`Time::ZERO`] if none).
    pub fn quiet_from(&self) -> Time {
        self.intervals.last().map_or(Time::ZERO, |&(_, e)| e)
    }
}

/// An omniscient scripted oracle: per-pair mistakes before convergence,
/// permanent suspicion of crashed processes after a detection lag.
///
/// A query costs O(1) once the oracle has converged: the crash side is a
/// per-subject table, and from [`InjectedOracle::convergence_time`] on the
/// n²-entry mistake table is never read.
#[derive(Clone, Debug)]
pub struct InjectedOracle {
    n: usize,
    crashes: CrashPlan,
    mistakes: Vec<MistakePlan>,
    /// `suspect_from[s]`: the instant from which every watcher suspects
    /// `s` (crash time plus detection lag, saturating), `None` if `s`
    /// never crashes.
    suspect_from: Vec<Option<Time>>,
    /// The largest [`MistakePlan::quiet_from`] over all pairs.
    converged_at: Time,
}

impl InjectedOracle {
    /// A perfect detector (`P`): zero mistakes, crashed processes suspected
    /// `detection_lag` ticks after crashing.
    pub fn perfect(n: usize, crashes: CrashPlan, detection_lag: u64) -> Self {
        let mut suspect_from = vec![None; n];
        for &(p, t) in crashes.crashes() {
            if let Some(slot) = suspect_from.get_mut(p.index()) {
                *slot = Some(Time(t.ticks().saturating_add(detection_lag)));
            }
        }
        InjectedOracle {
            n,
            crashes,
            mistakes: vec![MistakePlan::none(); n * n],
            suspect_from,
            converged_at: Time::ZERO,
        }
    }

    /// An eventually perfect detector (`◇P`): every ordered pair gets a
    /// random finite mistake schedule contained in `[0, convergence)`.
    pub fn diamond_p(
        n: usize,
        crashes: CrashPlan,
        detection_lag: u64,
        convergence: Time,
        max_mistakes: u64,
        max_len: u64,
        rng: &mut SplitMix64,
    ) -> Self {
        let mut oracle = InjectedOracle::perfect(n, crashes, detection_lag);
        for w in 0..n {
            for s in 0..n {
                if w != s {
                    let plan = MistakePlan::random(rng, convergence, max_mistakes, max_len);
                    oracle.converged_at = oracle.converged_at.max(plan.quiet_from());
                    oracle.mistakes[w * n + s] = plan;
                }
            }
        }
        oracle
    }

    /// A trusting detector (`T`): each pair starts suspected for a random
    /// prefix (the pre-first-trust phase, during which T's accuracy permits
    /// suspicion), then trusts until the subject actually crashes.
    pub fn trusting(
        n: usize,
        crashes: CrashPlan,
        detection_lag: u64,
        trust_by: Time,
        rng: &mut SplitMix64,
    ) -> Self {
        let mut oracle = InjectedOracle::perfect(n, crashes, detection_lag);
        for w in 0..n {
            for s in 0..n {
                if w != s && trust_by > Time::ZERO {
                    let until = Time(rng.range(1, trust_by.ticks()));
                    oracle.converged_at = oracle.converged_at.max(until);
                    oracle.mistakes[w * n + s] =
                        MistakePlan::from_intervals(vec![(Time::ZERO, until)]);
                }
            }
        }
        oracle
    }

    /// Overrides the mistake plan of one ordered pair (adversarial setups).
    pub fn set_mistakes(&mut self, watcher: ProcessId, subject: ProcessId, plan: MistakePlan) {
        assert_ne!(watcher, subject);
        let (new_end, slot) = (plan.quiet_from(), watcher.index() * self.n + subject.index());
        let old_end = std::mem::replace(&mut self.mistakes[slot], plan).quiet_from();
        if new_end >= self.converged_at {
            self.converged_at = new_end;
        } else if old_end == self.converged_at {
            // The replaced plan may have been the last to converge.
            self.converged_at =
                self.mistakes.iter().map(MistakePlan::quiet_from).max().unwrap_or(Time::ZERO);
        }
    }

    /// The mistake plan of one ordered pair.
    pub fn mistakes(&self, watcher: ProcessId, subject: ProcessId) -> &MistakePlan {
        &self.mistakes[watcher.index() * self.n + subject.index()]
    }

    /// The instant from which the oracle makes no further wrongful
    /// suspicions (its ◇P convergence time).
    pub fn convergence_time(&self) -> Time {
        self.converged_at
    }

    /// The crash plan this oracle is scripted against.
    pub fn crash_plan(&self) -> &CrashPlan {
        &self.crashes
    }
}

impl FdQuery for InjectedOracle {
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool {
        if watcher == subject {
            return false;
        }
        if matches!(self.suspect_from[subject.index()], Some(from) if now >= from) {
            return true;
        }
        now < self.converged_at
            && self.mistakes[watcher.index() * self.n + subject.index()].active_at(now)
    }

    fn len(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn perfect_never_wrongfully_suspects() {
        let o = InjectedOracle::perfect(3, CrashPlan::one(p(2), Time(100)), 10);
        for t in [0u64, 50, 99, 105, 1000] {
            assert!(!o.suspected(p(0), p(1), Time(t)));
        }
        assert!(!o.suspected(p(0), p(2), Time(100)));
        assert!(!o.suspected(p(0), p(2), Time(109)));
        assert!(o.suspected(p(0), p(2), Time(110)));
        assert!(o.suspected(p(0), p(2), Time(100_000)));
    }

    #[test]
    fn never_suspects_self() {
        let o = InjectedOracle::perfect(2, CrashPlan::one(p(0), Time(1)), 0);
        assert!(!o.suspected(p(0), p(0), Time(100)));
    }

    #[test]
    fn diamond_p_mistakes_end_by_convergence() {
        let mut rng = SplitMix64::new(9);
        let o = InjectedOracle::diamond_p(4, CrashPlan::none(), 5, Time(500), 6, 40, &mut rng);
        assert!(o.convergence_time() <= Time(500));
        for w in 0..4u32 {
            for s in 0..4u32 {
                for t in [500u64, 600, 10_000] {
                    assert!(!o.suspected(p(w), p(s), Time(t)));
                }
            }
        }
    }

    #[test]
    fn diamond_p_makes_some_mistakes() {
        let mut rng = SplitMix64::new(10);
        let o = InjectedOracle::diamond_p(4, CrashPlan::none(), 5, Time(500), 6, 40, &mut rng);
        let any = (0..4)
            .flat_map(|w| (0..4).map(move |s| (w, s)))
            .filter(|&(w, s)| w != s)
            .any(|(w, s)| !o.mistakes(p(w as u32), p(s as u32)).intervals().is_empty());
        assert!(any, "expected at least one scheduled mistake");
    }

    #[test]
    fn trusting_suspects_only_initially_or_after_crash() {
        let mut rng = SplitMix64::new(11);
        let plan = CrashPlan::one(p(1), Time(800));
        let o = InjectedOracle::trusting(3, plan, 7, Time(100), &mut rng);
        // After the trust deadline and before any crash: everyone trusted.
        assert!(!o.suspected(p(0), p(2), Time(100)));
        assert!(!o.suspected(p(2), p(0), Time(400)));
        // Crashed process suspected after lag.
        assert!(o.suspected(p(0), p(1), Time(807)));
        // Initial suspicion phase exists for at least one pair.
        let any_initial = !o.mistakes(p(0), p(2)).intervals().is_empty()
            || !o.mistakes(p(2), p(0)).intervals().is_empty()
            || !o.mistakes(p(0), p(1)).intervals().is_empty();
        assert!(any_initial);
    }

    #[test]
    fn explicit_mistake_plan_is_honoured() {
        let mut o = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        o.set_mistakes(
            p(0),
            p(1),
            MistakePlan::from_intervals(vec![(Time(10), Time(20)), (Time(30), Time(35))]),
        );
        assert!(!o.suspected(p(0), p(1), Time(9)));
        assert!(o.suspected(p(0), p(1), Time(10)));
        assert!(o.suspected(p(0), p(1), Time(19)));
        assert!(!o.suspected(p(0), p(1), Time(20)));
        assert!(o.suspected(p(0), p(1), Time(34)));
        assert!(!o.suspected(p(0), p(1), Time(35)));
        assert_eq!(o.convergence_time(), Time(35));
    }

    // `quiet_from` reads the last interval's end, so the first plan below
    // would report 20 while still suspecting at 30..35: release builds
    // (`cargo test --release`) must reject it as well.
    #[test]
    #[should_panic(expected = "sorted/disjoint")]
    fn unsorted_intervals_are_rejected_in_every_profile() {
        MistakePlan::from_intervals(vec![(Time(30), Time(35)), (Time(10), Time(20))]);
    }

    #[test]
    #[should_panic(expected = "sorted/disjoint")]
    fn overlapping_intervals_are_rejected_in_every_profile() {
        MistakePlan::from_intervals(vec![(Time(10), Time(20)), (Time(19), Time(25))]);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_intervals_are_rejected_in_every_profile() {
        MistakePlan::from_intervals(vec![(Time(10), Time(10))]);
    }

    #[test]
    fn random_plans_are_disjoint_and_sorted() {
        let mut rng = SplitMix64::new(12);
        for _ in 0..200 {
            let plan = MistakePlan::random(&mut rng, Time(300), 8, 50);
            let iv = plan.intervals();
            assert!(iv.iter().all(|&(s, e)| s < e && e <= Time(300)));
            assert!(iv.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }
}
