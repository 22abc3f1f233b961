//! The explorer against an independent implementation: a distance-layered
//! BFS written here over the public model API (`successors_into`, `encode`,
//! `check_invariants`, `check_closure_step`). It computes what the engine's
//! fixpoint argument (see `dinefd_explore::engine`) says a search must
//! report:
//!
//! * states = every state at distance ≤ `max_depth`;
//! * transitions and deadlocks = the out-degrees and dead ends of the states
//!   at distance < `max_depth`;
//! * violations = the `(kind, message)` set of the state checks on every
//!   state plus the step checks on every edge out of an expanded state.
//!
//! `max_states` is left at its default, so no run truncates.

use std::collections::{BTreeSet, HashSet};

use dinefd_explore::{
    explore, explore_composed, ComposedConfig, ComposedState, ExploreConfig, ModelMutation,
    PairState, SearchReport, StateCodec, SubjectMutation, ViolationKind,
};
use proptest::prelude::*;

/// What the reference BFS computes.
#[derive(Debug, PartialEq)]
struct Expected {
    states: usize,
    transitions: u64,
    deadlocks: usize,
    violations: BTreeSet<(ViolationKind, String)>,
}

fn reference<S: StateCodec, L>(
    initial: S,
    max_depth: u32,
    successors: impl Fn(&S, &mut Vec<(L, S)>),
    state_check: impl Fn(&S) -> Vec<String>,
    step_check: impl Fn(&S, &S) -> Vec<String>,
) -> Expected {
    let mut out = Expected { states: 0, transitions: 0, deadlocks: 0, violations: BTreeSet::new() };
    let mut seen: HashSet<Vec<u8>> = HashSet::from([initial.encode()]);
    let mut layer = vec![initial];
    let mut succ = Vec::new();
    for depth in 0..=max_depth {
        out.states += layer.len();
        for s in &layer {
            out.violations
                .extend(state_check(s).into_iter().map(|m| (ViolationKind::StateInvariant, m)));
        }
        if depth == max_depth {
            break;
        }
        let mut next_layer = Vec::new();
        for s in &layer {
            successors(s, &mut succ);
            out.transitions += succ.len() as u64;
            out.deadlocks += succ.is_empty() as usize;
            for (_, next) in succ.drain(..) {
                out.violations.extend(
                    step_check(s, &next).into_iter().map(|m| (ViolationKind::ClosureStep, m)),
                );
                if seen.insert(next.encode()) {
                    next_layer.push(next);
                }
            }
        }
        layer = next_layer;
    }
    out
}

fn expected_pair(cfg: &ExploreConfig) -> Expected {
    reference(
        PairState::initial(cfg),
        cfg.max_depth,
        |s, out| s.successors_into(cfg, out),
        PairState::check_invariants,
        |s, next| s.check_closure_step(next).into_iter().collect(),
    )
}

/// The composed model's exclusion step check is internal to the explorer,
/// so the reference checks states only; `clean()` still covers both, and
/// the composed model has no violations at any depth drawn here.
fn expected_composed(cfg: &ComposedConfig) -> Expected {
    reference(
        ComposedState::initial(cfg),
        cfg.max_depth,
        |s, out| s.successors_into(cfg, out),
        ComposedState::check_invariants,
        |_, _| Vec::new(),
    )
}

fn found<L>(r: &SearchReport<L>) -> Expected {
    assert!(!r.truncated, "the reference comparison needs an untruncated search");
    Expected {
        states: r.states_visited,
        transitions: r.transitions,
        deadlocks: r.deadlocks,
        violations: r.records.iter().map(|v| (v.kind, v.message.clone())).collect(),
    }
}

fn pair_agrees(cfg: &ExploreConfig) -> Result<(), TestCaseError> {
    let expected = expected_pair(cfg);
    let report = explore(cfg);
    prop_assert_eq!(report.clean(), expected.violations.is_empty() && expected.deadlocks == 0);
    prop_assert_eq!(found(&report), expected);
    Ok(())
}

fn composed_agrees(cfg: &ComposedConfig) -> Result<(), TestCaseError> {
    let expected = expected_composed(cfg);
    let report = explore_composed(cfg);
    let got = found(&report);
    prop_assert_eq!(report.clean(), expected.violations.is_empty() && expected.deadlocks == 0);
    prop_assert_eq!(
        (got.states, got.transitions, got.deadlocks),
        (expected.states, expected.transitions, expected.deadlocks)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pair_search_matches_the_reference(
        depth in 6u32..12,
        strict in any::<bool>(),
        crash in any::<bool>(),
        converged in any::<bool>(),
    ) {
        pair_agrees(&ExploreConfig {
            max_depth: depth,
            strict_seq: strict,
            allow_crash: crash,
            start_converged: converged,
            ..Default::default()
        })?;
    }

    #[test]
    fn mutated_pair_search_matches_the_reference(depth in 6u32..11, which in 0usize..3) {
        // The engine must also agree when there ARE violations to find.
        let (subject, model) = [
            (SubjectMutation::SkipPingDisable, ModelMutation::None),
            (SubjectMutation::IgnoreTriggerGuard, ModelMutation::None),
            (SubjectMutation::None, ModelMutation::StaleAckReplay),
        ][which];
        pair_agrees(&ExploreConfig {
            max_depth: depth,
            subject_mutation: subject,
            model_mutation: model,
            ..Default::default()
        })?;
    }

    #[test]
    fn composed_search_matches_the_reference(
        depth in 5u32..9,
        crash in any::<bool>(),
        mistakes in any::<bool>(),
    ) {
        composed_agrees(&ComposedConfig {
            max_depth: depth,
            allow_crash: crash,
            allow_mistakes: mistakes,
            ..Default::default()
        })?;
    }
}

/// A deeper fixed point per model, past where the DFS revisits states with
/// more remaining depth than it first saw them with.
#[test]
fn deeper_searches_match_the_reference() {
    pair_agrees(&ExploreConfig { max_depth: 24, ..Default::default() }).unwrap();
    composed_agrees(&ComposedConfig { max_depth: 10, ..Default::default() }).unwrap();
}
