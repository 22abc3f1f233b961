//! The fingerprinted, arena-backed visited store behind the search engine.
//!
//! The old engines kept `HashMap<State, u32>` — every insertion cloned the
//! full state struct (two machines, fork endpoints, several `Vec`s) to use
//! as a key, and every lookup re-hashed it with SipHash. This store keeps a
//! state as:
//!
//! * its compact encoding ([`crate::codec::StateCodec`]), interned once in a
//!   byte **arena**;
//! * a 64-bit **fingerprint** of that encoding, which drives an
//!   open-addressing (linear-probe) index table.
//!
//! A probe walks the index by fingerprint; on a fingerprint match the
//! interned bytes are compared exactly before the entry is trusted
//! ([`StoreStats::confirms`] counts the comparisons,
//! [`StoreStats::collisions`] the fingerprint matches whose bytes differed).
//! A collision therefore costs one extra probe step — it can never produce a
//! false "seen" verdict, so the search remains exhaustive rather than a
//! bitstate approximation.
//!
//! Each entry also carries the search metadata the engine needs:
//!
//! * `remaining` — the largest remaining depth the state was queued with
//!   (the classic pruning rule: re-entering with less budget is redundant);
//! * `parent` + `label` — the tree edge that first inserted the state.
//!   Violation paths are reconstructed by walking parent links, which frees
//!   the hot loop from cloning a path `Vec` into every queued task;
//! * `expanded` — whether some expansion already counted this state's
//!   out-degree/deadlock contribution (the once-per-state figures).
//!
//! Entries are append-only and identified by dense `u32` indices, so a
//! parent link is stable across table growth.

/// Sentinel parent index of the root state.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Empty index-table slot.
const EMPTY: u32 = u32::MAX;

/// Codec observability counters of one store (exported through
/// `SearchStats`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StoreStats {
    /// Fingerprint hits confirmed equal by exact byte comparison.
    pub confirms: u64,
    /// Fingerprint hits whose interned bytes differed (true collisions).
    pub collisions: u64,
}

struct Entry<L> {
    fp: u64,
    off: u32,
    len: u32,
    remaining: u32,
    parent: u32,
    label: Option<L>,
    expanded: bool,
}

/// What a [`VisitedStore::probe`] concluded, with the dense index of the
/// state's entry where it has one worth queueing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProbeOutcome {
    /// Never seen: interned, must be checked and queued.
    Fresh(u32),
    /// Seen, but this arrival carries more remaining depth: the stored
    /// depth was raised and the state must be re-queued.
    Requeue(u32),
    /// Seen with at least this much remaining depth: redundant.
    Pruned,
}

/// The open-addressing visited store.
pub(crate) struct VisitedStore<L> {
    /// Linear-probe index: slot → entry index (or [`EMPTY`]).
    index: Vec<u32>,
    entries: Vec<Entry<L>>,
    arena: Vec<u8>,
    stats: StoreStats,
}

impl<L: Copy> VisitedStore<L> {
    pub fn new() -> Self {
        VisitedStore {
            index: vec![EMPTY; 1024],
            entries: Vec::new(),
            arena: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// Distinct states interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes interned in the arena (a memory figure, not a state count).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Looks up `bytes` (pre-fingerprinted as `fp`), arriving with
    /// `remaining` depth via `parent --label-->`. Interns on miss; raises
    /// the stored `remaining` to the maximum on hit.
    pub fn probe(
        &mut self,
        fp: u64,
        bytes: &[u8],
        remaining: u32,
        parent: u32,
        label: Option<L>,
    ) -> ProbeOutcome {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = (fp as usize) & mask;
        loop {
            match self.index[slot] {
                EMPTY => {
                    let index = self.entries.len() as u32;
                    let off = self.arena.len() as u32;
                    self.arena.extend_from_slice(bytes);
                    self.entries.push(Entry {
                        fp,
                        off,
                        len: bytes.len() as u32,
                        remaining,
                        parent,
                        label,
                        expanded: false,
                    });
                    self.index[slot] = index;
                    return ProbeOutcome::Fresh(index);
                }
                id => {
                    let e = &mut self.entries[id as usize];
                    if e.fp == fp {
                        let interned = &self.arena[e.off as usize..(e.off + e.len) as usize];
                        if interned == bytes {
                            self.stats.confirms += 1;
                            if remaining <= e.remaining {
                                return ProbeOutcome::Pruned;
                            }
                            e.remaining = remaining;
                            return ProbeOutcome::Requeue(id);
                        }
                        self.stats.collisions += 1;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// Marks entry `index` expanded; true iff this is the first expansion.
    pub fn mark_expanded(&mut self, index: u32) -> bool {
        !std::mem::replace(&mut self.entries[index as usize].expanded, true)
    }

    /// Reconstructs the label path from the root to entry `index` by walking
    /// parent links; `extra` appends a final (step) label.
    pub fn path_to(&self, mut index: u32, extra: Option<L>) -> Vec<L> {
        let mut path: Vec<L> = Vec::new();
        while index != NO_PARENT {
            let e = &self.entries[index as usize];
            path.extend(e.label);
            index = e.parent;
        }
        path.reverse();
        path.extend(extra);
        path
    }

    fn grow(&mut self) {
        let new_len = self.index.len() * 2;
        let mask = new_len - 1;
        let mut index = vec![EMPTY; new_len];
        for (id, e) in self.entries.iter().enumerate() {
            let mut slot = (e.fp as usize) & mask;
            while index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            index[slot] = id as u32;
        }
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_sim::codec::hash64;

    #[test]
    fn fresh_then_pruned_then_requeued_on_deeper_arrival() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let bytes = b"state-a";
        let fp = hash64(bytes);
        assert_eq!(store.probe(fp, bytes, 5, NO_PARENT, None), ProbeOutcome::Fresh(0));
        assert_eq!(store.len(), 1);
        // Same depth or shallower: pruned; store remembers the max.
        assert_eq!(store.probe(fp, bytes, 5, NO_PARENT, None), ProbeOutcome::Pruned);
        assert_eq!(store.probe(fp, bytes, 3, NO_PARENT, None), ProbeOutcome::Pruned);
        // Deeper: requeue, and the raised budget sticks.
        assert_eq!(store.probe(fp, bytes, 9, NO_PARENT, None), ProbeOutcome::Requeue(0));
        assert_eq!(store.probe(fp, bytes, 8, NO_PARENT, None), ProbeOutcome::Pruned);
        assert_eq!(store.len(), 1, "no duplicate interning");
        assert!(store.stats().confirms >= 4);
    }

    #[test]
    fn fingerprint_collisions_are_resolved_exactly() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        // Force a collision by probing two different byte strings under the
        // same fingerprint (the store trusts the caller's fp).
        let fp = 0x42;
        assert_eq!(store.probe(fp, b"first", 3, NO_PARENT, None), ProbeOutcome::Fresh(0));
        assert_eq!(store.probe(fp, b"second", 3, NO_PARENT, None), ProbeOutcome::Fresh(1));
        assert_eq!(store.len(), 2, "colliding states must both be interned");
        assert_eq!(store.stats().collisions, 1);
        // Each still resolves to its own entry.
        assert_eq!(store.probe(fp, b"first", 3, NO_PARENT, None), ProbeOutcome::Pruned);
        assert_eq!(store.probe(fp, b"second", 4, NO_PARENT, None), ProbeOutcome::Requeue(1));
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let n = 5_000u64; // forces several grow() rehashes past the 1024 seed
        for i in 0..n {
            let bytes = i.to_le_bytes();
            let p = store.probe(hash64(&bytes), &bytes, 1, NO_PARENT, None);
            assert_eq!(p, ProbeOutcome::Fresh(i as u32));
        }
        assert_eq!(store.len(), n as usize);
        assert_eq!(store.arena_bytes(), n as usize * 8, "one 8-byte encoding per entry");
        for i in 0..n {
            let bytes = i.to_le_bytes();
            let p = store.probe(hash64(&bytes), &bytes, 1, NO_PARENT, None);
            assert_eq!(p, ProbeOutcome::Pruned, "entry {i} lost in growth");
        }
    }

    #[test]
    fn parent_links_reconstruct_paths() {
        let mut store: VisitedStore<char> = VisitedStore::new();
        let fresh = |p| match p {
            ProbeOutcome::Fresh(i) => i,
            other => panic!("expected a fresh entry, got {other:?}"),
        };
        let root = fresh(store.probe(hash64(b"r"), b"r", 9, NO_PARENT, None));
        let a = fresh(store.probe(hash64(b"a"), b"a", 8, root, Some('a')));
        let b = fresh(store.probe(hash64(b"b"), b"b", 7, a, Some('b')));
        assert_eq!(store.path_to(b, Some('c')), vec!['a', 'b', 'c']);
        assert!(store.path_to(root, None).is_empty());
        assert!(store.mark_expanded(a));
        assert!(!store.mark_expanded(a), "second expansion is not first");
    }
}
