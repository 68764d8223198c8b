//! Per-group constraint provenance (the `fast_apply` side-table).
//!
//! A solver serving non-monotone deltas needs to answer, per graph fact,
//! "which constraint groups does this fact's derivation depend on?". Tagging
//! every edge with a full group *set* would be ruinously wide, so provenance
//! is interned: a [`ProvId`] is a handle into a [`ProvTable`] that stores
//! each distinct sorted group-id set exactly once. Edges carry a 4-byte
//! `ProvId` in side arrays kept positionally parallel to the adjacency
//! lists (see `Solver`'s prov mirrors), not a per-edge enum.
//!
//! Derived facts union the provenance of their premises
//! ([`ProvTable::union`], memoized pairwise), so the invariant the
//! `fast_apply` retraction relies on is *transitive*: if group `g` is not in
//! `prov(e)`, then the derivation of `e` that the solver recorded used no
//! fact of `g` anywhere in its tree, and `e` survives retracting `g`
//! unchanged. The converse does **not** hold — the solver records only the
//! *first* derivation of each fact, so a fact may carry `g` while another,
//! `g`-free derivation exists. Retraction therefore over-deletes and
//! re-derives (delete-and-rederive), which is sound.
//!
//! Unions are lazy. A queued constraint carries its provenance as an
//! unresolved *pair* of ids whose union is the constraint's provenance; most
//! queued constraints turn out redundant, and their pair is dropped without
//! ever being interned. The solver resolves a pair to one interned set only
//! where a concrete set is recorded: when the constraint stores a new
//! adjacency entry, when it justifies a cycle collapse, and when it records
//! an inconsistency. Union is associative and commutative and saturation
//! depends only on the final set's width, so every recorded set is the one
//! an eager union at queue time would have produced.
//!
//! Two sentinel ids bound the lattice: [`ProvTable::EMPTY`] (no group — facts
//! added outside any group, never retracted) and [`ProvTable::TOP`]
//! ("depends on everything" — the saturation value for sets wider than
//! [`MAX_PROV_GROUPS`] and for derivations whose premises cannot be
//! attributed exactly, such as offline cycle-elimination sweeps). `TOP`
//! intersects every retraction, forcing the conservative fallback path.

use std::hash::{Hash, Hasher};

use bane_util::{FxHashMap, FxHasher};

/// Interned handle to a sorted set of group ids in a [`ProvTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvId(u32);

impl ProvId {
    /// The raw table index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Group-set width beyond which a provenance saturates to
/// [`ProvTable::TOP`]. Keeps pathological unions (a fact downstream of
/// hundreds of groups) from blowing up table memory; saturation is sound —
/// it only widens the set of retractions that fall back to replay.
pub const MAX_PROV_GROUPS: usize = 64;

/// End of a collision chain in [`ProvTable::chain`].
const NIL: u32 = u32::MAX;

/// The content hash interned sets are looked up by.
fn content_hash(sorted: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    sorted.hash(&mut h);
    h.finish()
}

/// The provenance interner: each distinct sorted group-id set stored once.
#[derive(Clone, Debug)]
pub struct ProvTable {
    /// Concatenated sorted group ids; `spans[p]` delimits set `p`.
    ids: Vec<u32>,
    spans: Vec<(u32, u32)>,
    /// Content hash → the most recently interned set with that hash. The
    /// sets themselves are the only copy of their members: a hash hit is
    /// confirmed by comparing member slices in `ids`.
    lookup: FxHashMap<u64, ProvId>,
    /// Parallel to `spans`: the next older set with the same content hash,
    /// or [`NIL`].
    chain: Vec<u32>,
    /// Pairwise union results, keyed with the smaller id first.
    union_memo: FxHashMap<(ProvId, ProvId), ProvId>,
    scratch: Vec<u32>,
}

impl Default for ProvTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvTable {
    /// The empty set: facts attributed to no group. Identity of
    /// [`union`](ProvTable::union); never intersects a retraction.
    pub const EMPTY: ProvId = ProvId(0);
    /// The saturated "all groups" set. Absorbing under union; intersects
    /// every retraction.
    pub const TOP: ProvId = ProvId(1);

    /// A table holding only the two sentinels.
    pub fn new() -> Self {
        let mut t = ProvTable {
            ids: Vec::new(),
            spans: vec![(0, 0); 2],
            lookup: FxHashMap::default(),
            chain: vec![NIL; 2],
            union_memo: FxHashMap::default(),
            scratch: Vec::new(),
        };
        // Slot 0 is EMPTY and slot 1 is TOP. Only EMPTY is reachable
        // through `lookup`: TOP is not a concrete id list.
        t.lookup.insert(content_hash(&[]), Self::EMPTY);
        t
    }

    /// Number of interned sets (including the sentinels).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether only the sentinels exist.
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 2
    }

    /// The interned singleton `{group}`.
    pub fn singleton(&mut self, group: u32) -> ProvId {
        self.intern_sorted(&[group])
    }

    /// The members of `p`, sorted. `TOP` reports an empty slice — callers
    /// must branch on [`is_top`](ProvTable::is_top) first when it matters.
    pub fn members(&self, p: ProvId) -> &[u32] {
        let (lo, hi) = self.spans[p.0 as usize];
        &self.ids[lo as usize..hi as usize]
    }

    /// Whether `p` is the saturated sentinel.
    pub fn is_top(&self, p: ProvId) -> bool {
        p == Self::TOP
    }

    /// Whether group `g` is in `p` (`TOP` contains everything).
    pub fn contains(&self, p: ProvId, g: u32) -> bool {
        p == Self::TOP || self.members(p).binary_search(&g).is_ok()
    }

    /// Whether `p` intersects the sorted-or-not id list `groups`.
    pub fn intersects(&self, p: ProvId, groups: &[u32]) -> bool {
        if p == Self::TOP {
            return !groups.is_empty();
        }
        groups.iter().any(|&g| self.contains(p, g))
    }

    /// The interned union of `a` and `b` (memoized; saturates to
    /// [`TOP`](ProvTable::TOP) past [`MAX_PROV_GROUPS`]).
    pub fn union(&mut self, a: ProvId, b: ProvId) -> ProvId {
        if a == b || b == Self::EMPTY {
            return a;
        }
        if a == Self::EMPTY {
            return b;
        }
        if a == Self::TOP || b == Self::TOP {
            return Self::TOP;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&hit) = self.union_memo.get(&key) {
            return hit;
        }
        let mut merged = std::mem::take(&mut self.scratch);
        merged.clear();
        {
            let (xs, ys) = (self.members(a), self.members(b));
            let (mut i, mut j) = (0, 0);
            while i < xs.len() && j < ys.len() {
                match xs[i].cmp(&ys[j]) {
                    std::cmp::Ordering::Less => {
                        merged.push(xs[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(ys[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(xs[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&xs[i..]);
            merged.extend_from_slice(&ys[j..]);
        }
        let out = if merged.len() > MAX_PROV_GROUPS {
            Self::TOP
        } else {
            self.intern_sorted(&merged)
        };
        self.scratch = merged;
        self.union_memo.insert(key, out);
        out
    }

    fn intern_sorted(&mut self, sorted: &[u32]) -> ProvId {
        self.intern_with_hash(sorted, content_hash(sorted))
    }

    /// Interns `sorted` under `hash`, which must be the same for every call
    /// with the same set (tests pass a fixed hash to force collisions).
    fn intern_with_hash(&mut self, sorted: &[u32], hash: u64) -> ProvId {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let head = self.lookup.get(&hash).map_or(NIL, |p| p.0);
        let mut cur = head;
        while cur != NIL {
            if self.members(ProvId(cur)) == sorted {
                return ProvId(cur);
            }
            cur = self.chain[cur as usize];
        }
        let lo = self.ids.len() as u32;
        self.ids.extend_from_slice(sorted);
        let id = ProvId(self.spans.len() as u32);
        self.spans.push((lo, self.ids.len() as u32));
        self.chain.push(head);
        self.lookup.insert(hash, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn sentinels_and_singletons() {
        let mut t = ProvTable::new();
        assert!(t.is_empty());
        let a = t.singleton(3);
        let a2 = t.singleton(3);
        assert_eq!(a, a2, "interning dedups");
        assert!(t.contains(a, 3));
        assert!(!t.contains(a, 4));
        assert!(!t.contains(ProvTable::EMPTY, 3));
        assert!(t.contains(ProvTable::TOP, 3));
        assert!(t.intersects(ProvTable::TOP, &[9]));
        assert!(!t.intersects(ProvTable::TOP, &[]));
    }

    #[test]
    fn union_merges_memoizes_and_respects_identities() {
        let mut t = ProvTable::new();
        let a = t.singleton(1);
        let b = t.singleton(5);
        let ab = t.union(a, b);
        assert_eq!(t.members(ab), &[1, 5]);
        assert_eq!(t.union(b, a), ab, "commutative via memo + interning");
        assert_eq!(t.union(ab, a), ab, "absorbs subset");
        assert_eq!(t.union(ProvTable::EMPTY, b), b);
        assert_eq!(t.union(b, ProvTable::EMPTY), b);
        assert_eq!(t.union(ProvTable::TOP, b), ProvTable::TOP);
        let before = t.len();
        let _ = t.union(a, b);
        assert_eq!(t.len(), before, "memoized union interns nothing new");
    }

    #[test]
    fn wide_unions_saturate_to_top() {
        let mut t = ProvTable::new();
        let mut acc = ProvTable::EMPTY;
        for g in 0..(MAX_PROV_GROUPS as u32 + 1) {
            let s = t.singleton(g);
            acc = t.union(acc, s);
        }
        assert!(t.is_top(acc));
        assert!(t.intersects(acc, &[MAX_PROV_GROUPS as u32 + 100]));
    }

    #[test]
    fn colliding_hashes_chain_without_merging_sets() {
        let mut t = ProvTable::new();
        let sets: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![1, 2], vec![0, 7, 9], vec![3]];
        let ids: Vec<ProvId> = sets.iter().map(|s| t.intern_with_hash(s, 7)).collect();
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(t.members(ids[i]), s.as_slice(), "round trip through the chain");
            assert_eq!(t.intern_with_hash(s, 7), ids[i], "re-intern finds the chained id");
            for j in 0..i {
                assert_ne!(ids[i], ids[j], "distinct sets under one hash stay distinct");
            }
        }
        assert_eq!(t.len(), 2 + sets.len(), "re-interning added nothing");
    }

    /// A set in the model: `None` is the saturated `TOP`.
    type Model = Option<BTreeSet<u32>>;

    fn model_union(a: &Model, b: &Model) -> Model {
        let u: BTreeSet<u32> = a.as_ref()?.union(b.as_ref()?).copied().collect();
        (u.len() <= MAX_PROV_GROUPS).then_some(u)
    }

    fn intern_model(t: &mut ProvTable, s: &BTreeSet<u32>) -> ProvId {
        s.iter().fold(ProvTable::EMPTY, |acc, &g| {
            let one = t.singleton(g);
            t.union(acc, one)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `union` agrees with a `BTreeSet` model, saturation included,
        /// and interning is canonical: equal ids iff equal sets.
        #[test]
        fn union_and_interning_match_a_set_model(
            raw in prop::collection::vec(prop::collection::vec(0u32..100, 0..48), 1..10),
            pairs in prop::collection::vec((0usize..64, 0usize..64), 0..40),
        ) {
            let mut t = ProvTable::new();
            let mut ids: Vec<ProvId> = Vec::new();
            let mut models: Vec<Model> = Vec::new();
            for r in &raw {
                let s: BTreeSet<u32> = r.iter().copied().collect();
                let id = intern_model(&mut t, &s);
                ids.push(id);
                models.push((s.len() <= MAX_PROV_GROUPS).then_some(s));
            }
            for &(i, j) in &pairs {
                let (i, j) = (i % ids.len(), j % ids.len());
                ids.push(t.union(ids[i], ids[j]));
                models.push(model_union(&models[i], &models[j]));
            }
            for (id, m) in ids.iter().zip(&models) {
                match m {
                    None => prop_assert!(t.is_top(*id)),
                    Some(m) => {
                        let members: Vec<u32> = m.iter().copied().collect();
                        prop_assert!(!t.is_top(*id));
                        prop_assert_eq!(t.members(*id), members.as_slice());
                        prop_assert_eq!(t.intern_sorted(&members), *id);
                    }
                }
            }
            for (a, ma) in ids.iter().zip(&models) {
                for (b, mb) in ids.iter().zip(&models) {
                    prop_assert_eq!(a == b, ma == mb);
                }
            }
        }
    }
}
