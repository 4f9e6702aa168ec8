//! The schedule memo: a compile request's in-memory overlay of segment
//! schedules, shared across rewrite-loop iterations.
//!
//! The iterative rewrite↔schedule search (see [`crate::rewrite::RewriteSearch`])
//! re-schedules a candidate graph after every identity rewrite, but a rewrite
//! is local: every divide-and-conquer segment outside the rewritten region is
//! structurally unchanged, and its optimal schedule is too. The memo keys
//! segment graphs by [`serenity_ir::fingerprint::fingerprint`] and replays the
//! stored order on a hit, so unchanged segments are never re-searched.
//!
//! Hits are exact, not probabilistic: fingerprints can collide, so every hash
//! hit is confirmed by byte equality of the segment's
//! [`Structure`](serenity_ir::fingerprint::Structure) (the canonical
//! encoding of what [`serenity_ir::fingerprint::structural_eq`] compares,
//! which an entry holds instead of a graph) *and* of the pinned boundary
//! prefix before the stored schedule is replayed — a collision degrades to
//! a miss, never to a wrong schedule, and a schedule computed unpinned is
//! never replayed into a pinned segment (whose order must lead with the
//! boundary placeholder) or vice versa.
//! Replay is also deterministic: all backends are deterministic functions of
//! the (structural) graph, so a replayed schedule is byte-identical to what a
//! fresh search of the same backend would return, and memoized runs stay
//! bit-identical to memo-free runs.
//!
//! Entries are keyed by graph structure only, so a memo is only coherent for
//! a single backend configuration. [`RewriteSearch`](crate::rewrite::RewriteSearch)
//! creates one memo per run and never shares it across backends.
//!
//! The memo knows nothing of the process-wide
//! [`CompileCache`](crate::cache::CompileCache): divide-and-conquer is the
//! only code that reads or writes the cache, consulting it after the memo
//! and backfilling its hits into the memo (see [`crate::divide`]).

use std::sync::{Arc, Mutex};

use serenity_ir::fingerprint::Structure;
use serenity_ir::fxhash::FxHashMap;
use serenity_ir::NodeId;

use crate::Schedule;

/// One memoized schedule with the identity it was produced under.
pub(crate) struct MemoEntry {
    /// The structure of the graph the schedule belongs to, kept for exact
    /// hit confirmation.
    pub(crate) structure: Structure,
    /// The pinned prefix the schedule was produced under. Part of the
    /// entry's identity: a schedule computed unpinned need not start with
    /// the boundary placeholder, so replaying it into a pinned segment
    /// would be rejected by `Partition::combine` (and a pin-constrained
    /// schedule replayed unpinned could be needlessly suboptimal).
    pub(crate) prefix: Vec<NodeId>,
    pub(crate) schedule: Schedule,
}

impl MemoEntry {
    fn matches(&self, structure: &Structure, prefix: &[NodeId]) -> bool {
        self.prefix == prefix && self.structure == *structure
    }
}

/// A thread-safe fingerprint → schedule map (see the module docs).
///
/// A memo can be **layered** over a frozen parent
/// ([`ScheduleMemo::layered`]): lookups fall through to the parent, inserts
/// stay in the child. The parallel rewrite search gives every concurrently
/// scored candidate its own layer over the shared iteration-start memo, so
/// what each candidate *sees* — and therefore its hit/miss counters and the
/// schedules it replays — is independent of worker scheduling; the layers
/// are then folded back deterministically ([`ScheduleMemo::absorb`]) in
/// candidate order.
#[derive(Default)]
pub(crate) struct ScheduleMemo {
    entries: Mutex<FxHashMap<u64, Vec<MemoEntry>>>,
    parent: Option<Arc<ScheduleMemo>>,
}

impl ScheduleMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        ScheduleMemo::default()
    }

    /// An empty memo layered over `parent`: lookups consult this memo first
    /// and fall through to the parent (and its ancestors); inserts stay
    /// local. The parent must not be mutated while the layer is in use if
    /// deterministic counters are required.
    pub(crate) fn layered(parent: Arc<ScheduleMemo>) -> Self {
        ScheduleMemo { parent: Some(parent), ..ScheduleMemo::default() }
    }

    /// Returns the memoized schedule of a graph with this `structure` that
    /// was produced under the same pinned `prefix`, if one was inserted here
    /// or in a parent layer. `key` is the graph's
    /// [`fingerprint`](serenity_ir::fingerprint::fingerprint).
    pub(crate) fn lookup(
        &self,
        key: u64,
        structure: &Structure,
        prefix: &[NodeId],
    ) -> Option<Schedule> {
        let local = self.entries.lock().expect("memo lock").get(&key).and_then(|bucket| {
            bucket.iter().find(|e| e.matches(structure, prefix)).map(|e| e.schedule.clone())
        });
        local.or_else(|| self.parent.as_ref().and_then(|p| p.lookup(key, structure, prefix)))
    }

    /// Stores `schedule` (produced under pinned `prefix`) for the graph with
    /// this `structure` under `key`. An entry with the same structure and
    /// prefix already present is kept (first write wins — backends are
    /// deterministic, so the schedules are identical anyway).
    pub(crate) fn insert(
        &self,
        key: u64,
        structure: Structure,
        prefix: &[NodeId],
        schedule: &Schedule,
    ) {
        let mut entries = self.entries.lock().expect("memo lock");
        let bucket = entries.entry(key).or_default();
        if !bucket.iter().any(|e| e.matches(&structure, prefix)) {
            bucket.push(MemoEntry {
                structure,
                prefix: prefix.to_vec(),
                schedule: schedule.clone(),
            });
        }
    }

    /// Folds another memo's local entries into this one (first write wins,
    /// exactly like [`ScheduleMemo::insert`]). Used to merge per-candidate
    /// layers back into the shared memo after an iteration of parallel
    /// scoring; call it in a deterministic order.
    pub(crate) fn absorb(&self, overlay: ScheduleMemo) {
        let mut entries = self.entries.lock().expect("memo lock");
        for (key, entry) in overlay.into_entries() {
            let bucket = entries.entry(key).or_default();
            if !bucket.iter().any(|e| e.matches(&entry.structure, &entry.prefix)) {
                bucket.push(entry);
            }
        }
    }

    /// Consumes the memo, yielding its local entries (parent layers
    /// excluded) with their keys.
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (u64, MemoEntry)> {
        let entries = self.entries.into_inner().expect("memo lock");
        entries.into_iter().flat_map(|(key, bucket)| bucket.into_iter().map(move |e| (key, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::fingerprint::fingerprint;
    use serenity_ir::{topo, Graph};

    fn chain(name: &str, bytes: u64) -> Graph {
        let mut g = Graph::new(name);
        let a = g.add_opaque(format!("{name}_a"), bytes, &[]).unwrap();
        let b = g.add_opaque(format!("{name}_b"), bytes * 2, &[a]).unwrap();
        g.add_opaque(format!("{name}_c"), bytes / 2, &[b]).unwrap();
        g
    }

    fn len(memo: ScheduleMemo) -> usize {
        memo.into_entries().count()
    }

    #[test]
    fn hit_replays_across_renamed_twins() {
        let memo = ScheduleMemo::new();
        let g = chain("g", 10);
        let schedule = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        memo.insert(fingerprint(&g), Structure::of(&g), &[], &schedule);

        // A structurally identical graph with different names hits.
        let twin = chain("other", 10);
        let replayed =
            memo.lookup(fingerprint(&twin), &Structure::of(&twin), &[]).expect("twin hits");
        assert_eq!(replayed, schedule);
        assert_eq!(len(memo), 1);
    }

    #[test]
    fn different_structure_misses() {
        let memo = ScheduleMemo::new();
        let g = chain("g", 10);
        let schedule = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        memo.insert(fingerprint(&g), Structure::of(&g), &[], &schedule);

        let other = chain("g", 64);
        assert!(memo.lookup(fingerprint(&other), &Structure::of(&other), &[]).is_none());
    }

    #[test]
    fn different_pinned_prefix_misses() {
        // Structurally identical segments, one pinned (boundary placeholder
        // leads) and one not: the unpinned schedule must never replay into
        // the pinned lookup, and vice versa.
        let memo = ScheduleMemo::new();
        let g = chain("g", 10);
        let key = fingerprint(&g);
        let unpinned = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        memo.insert(key, Structure::of(&g), &[], &unpinned);

        let pin = [serenity_ir::NodeId::from_index(0)];
        assert!(
            memo.lookup(key, &Structure::of(&g), &pin).is_none(),
            "pinned lookup must not see unpinned entry"
        );
        memo.insert(key, Structure::of(&g), &pin, &unpinned);
        assert!(memo.lookup(key, &Structure::of(&g), &pin).is_some());
        assert!(memo.lookup(key, &Structure::of(&g), &[]).is_some());
        assert_eq!(len(memo), 2, "pinned and unpinned entries coexist");
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let memo = ScheduleMemo::new();
        let g = chain("g", 10);
        let schedule = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        let key = fingerprint(&g);
        memo.insert(key, Structure::of(&g), &[], &schedule);
        memo.insert(key, Structure::of(&chain("renamed", 10)), &[], &schedule);
        assert_eq!(len(memo), 1);
    }

    #[test]
    fn layered_lookup_falls_through_and_absorb_merges() {
        let base = Arc::new(ScheduleMemo::new());
        let g = chain("g", 10);
        let key = fingerprint(&g);
        let schedule = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        base.insert(key, Structure::of(&g), &[], &schedule);

        // Parent entries are visible through the layer.
        let layer = ScheduleMemo::layered(Arc::clone(&base));
        assert_eq!(layer.lookup(key, &Structure::of(&g), &[]).unwrap(), schedule);

        // Local inserts stay local until absorbed.
        let h = chain("h", 64);
        let hk = fingerprint(&h);
        let hs = Schedule::from_order(&h, topo::kahn(&h)).unwrap();
        layer.insert(hk, Structure::of(&h), &[], &hs);
        assert!(base.lookup(hk, &Structure::of(&h), &[]).is_none());
        base.absorb(layer);
        assert_eq!(base.lookup(hk, &Structure::of(&h), &[]).unwrap(), hs);
        // Absorbing a duplicate of an existing entry keeps the first write.
        let dup = ScheduleMemo::new();
        dup.insert(key, Structure::of(&chain("renamed", 10)), &[], &schedule);
        base.absorb(dup);
        let base = Arc::try_unwrap(base).ok().expect("layer dropped on absorb");
        assert_eq!(len(base), 2);
    }

    #[test]
    fn colliding_keys_are_confirmed_structurally() {
        // Force both graphs into the same bucket with an artificial key; the
        // structural confirm must separate them.
        let memo = ScheduleMemo::new();
        let g = chain("g", 10);
        let h = chain("h", 99);
        let gs = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        let hs = Schedule::from_order(&h, topo::kahn(&h)).unwrap();
        memo.insert(42, Structure::of(&g), &[], &gs);
        memo.insert(42, Structure::of(&h), &[], &hs);
        assert_eq!(memo.lookup(42, &Structure::of(&h), &[]).unwrap().peak_bytes, hs.peak_bytes);
        assert_eq!(memo.lookup(42, &Structure::of(&g), &[]).unwrap().peak_bytes, gs.peak_bytes);
        assert_eq!(len(memo), 2);
    }
}
