//! The search engine behind [`crate::explore`] and
//! [`crate::explore_composed`]: a depth-bounded DFS over one fingerprinted
//! visited store.
//!
//! One engine serves both models through the `SearchModel` trait. The
//! design:
//!
//! * **Fingerprinted visited store** — states are never used as hash-map
//!   keys. Each state is encoded once ([`crate::codec::StateCodec`]) into a
//!   scratch buffer, fingerprinted, and interned in an open-addressing arena
//!   store (the `visited` module); fingerprint hits are confirmed by exact
//!   byte comparison, so the search stays exhaustive.
//! * **Parent-chain paths** — tasks carry no path vector. The store records,
//!   per state, the tree edge that first interned it; violations are held as
//!   entry indices during the search and resolved to label paths once, at
//!   the end, by walking parent links.
//! * **LIFO stack** — the frontier is a plain stack of decoded states, which
//!   keeps the search depth-first and the frontier small.
//!
//! ## What the search computes
//!
//! The store remembers, per state, the largest remaining depth it has been
//! queued with, and a state is (re-)queued exactly when an arrival raises
//! that figure. Remaining depth drops by one per edge, so no arrival at a
//! state `s` carries more than `max_depth − dist(s)`, where `dist` is the
//! length of a shortest path from the root; and by induction on `dist`,
//! some arrival carries exactly that much. The stored depths therefore
//! converge to the fixpoint `max_depth − dist(s)`, which is a property of
//! the graph, not of the expansion order. Hence, when the search is not
//! truncated by `max_states`:
//!
//! * `states_visited` is the number of states at distance ≤ `max_depth`;
//! * the expanded states are exactly those at distance < `max_depth`, so
//!   `transitions` is the sum of their out-degrees (each counted once, on
//!   the first expansion) and `deadlocks` the number of them with no
//!   successor;
//! * the state checks run once on every visited state (on first insertion)
//!   and the step checks once on every edge out of an expanded state, so the
//!   deduplicated `(kind, message)` violation set is fixed too.
//!
//! `tests/reference_search.rs` is the executable form of this argument: it
//! recomputes every figure with a distance-layered BFS and requires the
//! engine to match. Only the *representative path* attached to each
//! violation and the figures in [`SearchStats`] depend on the expansion
//! order. When the search *is* truncated, the subset of states visited
//! before the budget tripped depends on that order too.

use std::time::Instant;

use dinefd_sim::metrics::{Counter, MetricMap};

use crate::codec::{fingerprint, StateCodec};
use crate::search::fmt_path;
use crate::visited::{ProbeOutcome, VisitedStore, NO_PARENT};

/// A state graph the engine can search.
pub(crate) trait SearchModel {
    /// Model state. Identity is its [`StateCodec`] encoding; `PartialEq` is
    /// only used to debug-assert codec round-trips on fresh insertions.
    type State: Clone + PartialEq + std::fmt::Debug + StateCodec;
    /// Transition label (small and copyable).
    type Label: Copy + std::fmt::Debug;

    /// Appends all enabled transitions out of `s` (with their successors)
    /// to `out`. The engine clears and reuses `out` across expansions, so
    /// implementations must only push.
    fn successors_into(&self, s: &Self::State, out: &mut Vec<(Self::Label, Self::State)>);
    /// State-level invariant violations (core messages, no path suffix).
    fn state_violations(&self, s: &Self::State) -> Vec<String>;
    /// Transition-level violations for `s --label--> next`.
    fn step_violations(
        &self,
        s: &Self::State,
        label: Self::Label,
        next: &Self::State,
    ) -> Vec<String>;
}

/// Which check produced a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A state-level invariant (the paper's safety lemmas) failed.
    StateInvariant,
    /// A transition-level check (Theorem-1 closure / emergent exclusion)
    /// failed.
    ClosureStep,
}

/// One violation with a replayable counterexample path.
#[derive(Clone, Debug)]
pub struct ViolationRecord<L> {
    /// Which checker flagged it.
    pub kind: ViolationKind,
    /// The core diagnostic, e.g. `"Lemma 4 violated: …"`.
    pub message: String,
    /// Transition labels from the initial state to the violating state (for
    /// [`ViolationKind::ClosureStep`], the last label is the violating
    /// step). Replaying these labels through the model's `successors`
    /// reproduces the violation.
    pub path: Vec<L>,
}

/// Throughput and codec figures of one search run, built on the shared
/// [`dinefd_sim::metrics`] primitives so the explorer reports through the
/// same observability layer as the simulator.
#[derive(Clone, Copy, Debug)]
pub struct SearchStats {
    /// Wall-clock duration of the search, in seconds.
    pub duration_secs: f64,
    /// Distinct states visited per wall-clock second.
    pub states_per_sec: f64,
    /// Fingerprint hits confirmed equal by exact byte comparison (every
    /// re-visit of a seen state costs exactly one).
    pub fp_confirms: Counter,
    /// Fingerprint hits whose interned bytes differed — true 64-bit
    /// collisions, resolved exactly by further probing (expected ≈ 0 at
    /// explorable state counts).
    pub fp_collisions: Counter,
    /// Bytes of encoded state interned in the visited-store arena — the
    /// resident footprint of the state set itself. Deterministic when the
    /// search is not truncated.
    pub arena_bytes: u64,
}

impl SearchStats {
    /// Flattens the counters under `prefix` (the wall-clock figures are
    /// exported separately by the perf reports, as they are never
    /// rerun-stable).
    pub fn export(&self, prefix: &str, out: &mut MetricMap) {
        out.insert(format!("{prefix}.fp_confirms"), self.fp_confirms.get());
        out.insert(format!("{prefix}.fp_collisions"), self.fp_collisions.get());
        out.insert(format!("{prefix}.arena_bytes"), self.arena_bytes);
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} states/s, {} fp confirms, {} fp collisions, {} arena bytes",
            self.states_per_sec,
            self.fp_confirms.get(),
            self.fp_collisions.get(),
            self.arena_bytes
        )
    }
}

/// Outcome of one exhaustive exploration, for either model: `L` is the
/// model's transition label ([`crate::ExploreReport`] and
/// [`crate::ComposedReport`] name the two instances).
#[derive(Clone, Debug)]
pub struct SearchReport<L> {
    /// Distinct states visited.
    pub states_visited: usize,
    /// Transitions traversed: each expanded state's out-degree, counted
    /// exactly once on the state's first expansion.
    pub transitions: u64,
    /// Invariant violations found (empty = all checks hold in the explored
    /// region), each rendered as `"{message} (after {path})"`.
    pub violations: Vec<String>,
    /// Structured violations with replayable counterexample paths (same
    /// incidents, same order as `violations`).
    pub records: Vec<ViolationRecord<L>>,
    /// States with no outgoing transition (there should be none).
    pub deadlocks: usize,
    /// Whether the search hit its state budget before exhausting the
    /// depth-bounded region.
    pub truncated: bool,
    /// Throughput and codec counters of this run.
    pub stats: SearchStats,
}

impl<L> SearchReport<L> {
    /// True when every checked property held everywhere explored.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.deadlocks == 0
    }
}

/// A queued unit of work: the state itself (kept decoded so expansion never
/// re-decodes), its store entry (for parent links and the expanded flag),
/// and the remaining depth it was queued with.
struct Task<S> {
    state: S,
    entry: u32,
    remaining: u32,
}

/// A violation captured mid-search: the path is reconstructed from `entry`'s
/// parent chain only once the search has finished.
struct PendingViolation<L> {
    kind: ViolationKind,
    message: String,
    entry: u32,
    extra: Option<L>,
}

/// Depth-bounded exhaustive search from `initial`: checks every state on
/// first insertion, and every edge out of a state on its first expansion.
pub(crate) fn search<M: SearchModel>(
    model: &M,
    initial: M::State,
    max_depth: u32,
    max_states: usize,
) -> SearchReport<M::Label> {
    let started = Instant::now();
    let mut store: VisitedStore<M::Label> = VisitedStore::new();
    let mut pending: Vec<PendingViolation<M::Label>> = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let mut succ: Vec<(M::Label, M::State)> = Vec::new();
    let mut stack: Vec<Task<M::State>> = Vec::new();
    let (mut transitions, mut deadlocks, mut truncated) = (0u64, 0usize, false);

    let check_state = |pending: &mut Vec<_>, state: &M::State, entry: u32| {
        pending.extend(model.state_violations(state).into_iter().map(|message| PendingViolation {
            kind: ViolationKind::StateInvariant,
            message,
            entry,
            extra: None,
        }));
    };

    initial.encode_into(&mut buf);
    let ProbeOutcome::Fresh(root) =
        store.probe(fingerprint(&buf), &buf, max_depth, NO_PARENT, None)
    else {
        unreachable!("the first probe into an empty store is fresh")
    };
    check_state(&mut pending, &initial, root);
    stack.push(Task { state: initial, entry: root, remaining: max_depth });

    while let Some(task) = stack.pop() {
        // The budget is tested when a state comes up for expansion, so the
        // store may overshoot `max_states` by at most one expansion's
        // successors.
        if store.len() >= max_states {
            truncated = true;
            break;
        }
        if task.remaining == 0 {
            continue;
        }
        let first_expansion = store.mark_expanded(task.entry);
        succ.clear();
        model.successors_into(&task.state, &mut succ);
        if first_expansion {
            transitions += succ.len() as u64;
            deadlocks += succ.is_empty() as usize;
        }
        let remaining = task.remaining - 1;
        for (label, next) in succ.drain(..) {
            if first_expansion {
                pending.extend(model.step_violations(&task.state, label, &next).into_iter().map(
                    |message| PendingViolation {
                        kind: ViolationKind::ClosureStep,
                        message,
                        entry: task.entry,
                        extra: Some(label),
                    },
                ));
            }
            buf.clear();
            next.encode_into(&mut buf);
            match store.probe(fingerprint(&buf), &buf, remaining, task.entry, Some(label)) {
                ProbeOutcome::Pruned => {}
                ProbeOutcome::Fresh(entry) => {
                    debug_assert_eq!(
                        M::State::decode(&buf).as_ref(),
                        Some(&next),
                        "codec round-trip failed on a fresh insertion"
                    );
                    check_state(&mut pending, &next, entry);
                    stack.push(Task { state: next, entry, remaining });
                }
                ProbeOutcome::Requeue(entry) => stack.push(Task { state: next, entry, remaining }),
            }
        }
    }

    let states_visited = store.len();
    let duration_secs = started.elapsed().as_secs_f64();
    let records = merge_violations(pending.into_iter().map(|p| ViolationRecord {
        kind: p.kind,
        message: p.message,
        path: store.path_to(p.entry, p.extra),
    }));
    let store_stats = store.stats();
    SearchReport {
        states_visited,
        transitions,
        violations: records
            .iter()
            .map(|r| format!("{} (after {})", r.message, fmt_path(&r.path, None)))
            .collect(),
        records,
        deadlocks,
        truncated,
        stats: SearchStats {
            duration_secs,
            states_per_sec: if duration_secs > 0.0 {
                states_visited as f64 / duration_secs
            } else {
                0.0
            },
            fp_confirms: Counter::from(store_stats.confirms),
            fp_collisions: Counter::from(store_stats.collisions),
            arena_bytes: store.arena_bytes() as u64,
        },
    }
}

/// Dedups by `(kind, message)` keeping the shortest representative path,
/// and sorts — the resulting *set* is independent of the expansion order.
fn merge_violations<L>(
    records: impl Iterator<Item = ViolationRecord<L>>,
) -> Vec<ViolationRecord<L>> {
    let mut by_key: std::collections::BTreeMap<(ViolationKind, String), ViolationRecord<L>> =
        std::collections::BTreeMap::new();
    for r in records {
        match by_key.entry((r.kind, r.message.clone())) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(r);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if r.path.len() < e.get().path.len() {
                    e.insert(r);
                }
            }
        }
    }
    by_key.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state of [`Toy`]: a node number.
    #[derive(Clone, Debug, PartialEq)]
    struct Node(u8);

    impl StateCodec for Node {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(self.0);
        }

        fn decode(input: &[u8]) -> Option<Self> {
            matches!(input, [_]).then(|| Node(input[0]))
        }
    }

    /// A fixed graph given by its labelled edges; node 5 fails the state
    /// check and the edge labelled `'!'` fails the step check.
    struct Toy(&'static [(u8, char, u8)]);

    impl SearchModel for Toy {
        type State = Node;
        type Label = char;

        fn successors_into(&self, s: &Node, out: &mut Vec<(char, Node)>) {
            out.extend(self.0.iter().filter(|e| e.0 == s.0).map(|&(_, l, to)| (l, Node(to))));
        }

        fn state_violations(&self, s: &Node) -> Vec<String> {
            if s.0 == 5 {
                vec!["bad node".into()]
            } else {
                Vec::new()
            }
        }

        fn step_violations(&self, _: &Node, label: char, _: &Node) -> Vec<String> {
            if label == '!' {
                vec!["bad edge".into()]
            } else {
                Vec::new()
            }
        }
    }

    /// 0 → 1 → 2 → 3 --!--> 4 → 5, plus a shorter route 0 → 6 → 3. The
    /// DFS reaches 3 the long way first, so node 3 (distance 2) is interned
    /// with too little remaining depth, and its `!` edge is only checked
    /// once the short route re-queues it.
    const GRAPH: &[(u8, char, u8)] = &[
        (0, 's', 6),
        (0, 'a', 1),
        (1, 'b', 2),
        (2, 'c', 3),
        (6, 't', 3),
        (3, '!', 4),
        (4, 'd', 5),
    ];

    #[test]
    fn requeued_states_are_expanded_to_the_full_depth_bound() {
        let r = search(&Toy(GRAPH), Node(0), 3, usize::MAX);
        assert_eq!(r.states_visited, 6, "every node but 5 lies within distance 3");
        // Expanded: 0, 1, 2, 3, 6 (distance < 3).
        assert_eq!(r.transitions, 2 + 1 + 1 + 1 + 1);
        assert_eq!(r.deadlocks, 0);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].kind, ViolationKind::ClosureStep);
        assert_eq!(r.records[0].path.last(), Some(&'!'));
        let rendered = format!("bad edge (after {})", fmt_path(&r.records[0].path, None));
        assert_eq!(r.violations, [rendered]);
    }

    #[test]
    fn the_depth_bound_limits_checks_and_counts() {
        let r = search(&Toy(GRAPH), Node(0), 2, usize::MAX);
        assert_eq!((r.states_visited, r.transitions), (5, 4));
        assert!(r.clean(), "the ! edge leaves a state at the depth bound");
        let r = search(&Toy(GRAPH), Node(0), 4, usize::MAX);
        assert_eq!((r.states_visited, r.deadlocks), (7, 0), "node 5 is never expanded");
        let kinds: Vec<_> = r.records.iter().map(|v| (v.kind, v.message.as_str())).collect();
        assert_eq!(
            kinds,
            [(ViolationKind::StateInvariant, "bad node"), (ViolationKind::ClosureStep, "bad edge")]
        );
        let r = search(&Toy(GRAPH), Node(0), 5, usize::MAX);
        assert_eq!(r.deadlocks, 1, "node 5 is a dead end once expanded");
        assert!(!r.clean());
    }
}
