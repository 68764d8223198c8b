//! Per-group constraint provenance (the `fast_apply` side-table).
//!
//! A solver serving non-monotone deltas needs to answer, per graph fact,
//! "which constraint groups does this fact's derivation depend on?". A
//! fact's provenance is a [`ProvId`], a node of an append-only union DAG
//! ([`ProvTable`]): either the leaf of one *atom* (the group tag a
//! constraint entered under) or the union of two older ids. The set a node
//! stands for is the atoms of the leaves below it. Edges carry a 4-byte
//! `ProvId` in side arrays kept positionally parallel to the adjacency
//! lists (see `Solver`'s prov mirrors), not a per-edge enum.
//!
//! Derived facts union the provenance of their premises
//! ([`ProvTable::union`], one appended node), so the invariant the
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
//! ever appending a node. The solver resolves a pair to one id only where a
//! concrete provenance is recorded: when the constraint stores a new
//! adjacency entry, when it justifies a cycle collapse, and when it records
//! an inconsistency.
//!
//! Nothing is deduplicated: two nodes may stand for the same set, and the
//! table grows by at most one node per recorded union. Membership is never
//! asked of a single id. A retraction instead builds one
//! [`RetractionMask`] over the whole table: every node's children are
//! older than the node, so one ascending pass settles whether each node's
//! set meets the retracted atoms, and each recorded id is then a lookup.
//! A mask describes the table as it was when the mask was built; ids
//! appended later are outside it and must not be asked about.
//!
//! Two sentinel ids bound the lattice: [`ProvTable::EMPTY`] (no group — facts
//! added outside any group, never retracted) and [`ProvTable::TOP`]
//! ("depends on everything" — derivations whose premises cannot be
//! attributed, such as offline cycle-elimination sweeps and chain steps the
//! search cannot recover). `TOP` meets every non-empty retraction, forcing
//! the conservative fallback path.

use bane_util::FxHashMap;

/// Handle to a node of a [`ProvTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvId(u32);

impl ProvId {
    /// The raw table index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// First field of a leaf node (a union node's children are always older
/// ids, so never this value).
const LEAF: u32 = u32::MAX;

/// The provenance union DAG: leaves for atoms, one node per recorded union.
#[derive(Clone, Debug)]
pub struct ProvTable {
    /// Node `i` is `(LEAF, atom)` or the union `(a, b)` of ids `a, b < i`.
    /// The two sentinel slots are never read as nodes.
    nodes: Vec<(u32, u32)>,
    /// Atom → its leaf.
    leaves: FxHashMap<u32, ProvId>,
}

impl Default for ProvTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvTable {
    /// The empty set: facts attributed to no group. Identity of
    /// [`union`](ProvTable::union); never meets a retraction.
    pub const EMPTY: ProvId = ProvId(0);
    /// The "all groups" set. Absorbing under union; meets every non-empty
    /// retraction.
    pub const TOP: ProvId = ProvId(1);

    /// A table holding only the two sentinels.
    pub fn new() -> Self {
        ProvTable { nodes: vec![(LEAF, LEAF); 2], leaves: FxHashMap::default() }
    }

    /// Number of nodes (including the sentinels).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the sentinels exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The leaf of `atom` (one per atom, appended on first use).
    pub fn singleton(&mut self, atom: u32) -> ProvId {
        let nodes = &mut self.nodes;
        *self.leaves.entry(atom).or_insert_with(|| {
            nodes.push((LEAF, atom));
            ProvId(nodes.len() as u32 - 1)
        })
    }

    /// The union of `a` and `b`: `a` itself when the ids are equal, the
    /// other id when one is [`EMPTY`](ProvTable::EMPTY),
    /// [`TOP`](ProvTable::TOP) when either is, and otherwise one new node.
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
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != LEAF)
            .expect("provenance table overflow");
        self.nodes.push((a.0, b.0));
        ProvId(id)
    }

    /// Which ids' sets meet `atoms`, for every id in the table now: the
    /// retracted leaves are marked, then one ascending pass propagates the
    /// marks to every union above them. No union has `TOP` as a child
    /// (`union` absorbs it), so the pass starts at the oldest marked leaf.
    pub fn retraction_mask(&self, atoms: &[u32]) -> RetractionMask {
        let mut hit = vec![false; self.nodes.len()];
        hit[Self::TOP.0 as usize] = !atoms.is_empty();
        let mut start = hit.len();
        for a in atoms {
            if let Some(&leaf) = self.leaves.get(a) {
                hit[leaf.0 as usize] = true;
                start = start.min(leaf.0 as usize);
            }
        }
        for i in start..self.nodes.len() {
            let (a, b) = self.nodes[i];
            if a != LEAF {
                hit[i] = hit[a as usize] || hit[b as usize];
            }
        }
        RetractionMask { hit }
    }
}

/// The ids of a [`ProvTable`] whose sets meet one retraction, built by
/// [`ProvTable::retraction_mask`]. It covers the table as it was when it
/// was built: asking about a newer id panics instead of answering stale.
#[derive(Clone, Debug, Default)]
pub struct RetractionMask {
    hit: Vec<bool>,
}

impl RetractionMask {
    /// Whether the set of `p` meets the retraction.
    ///
    /// # Panics
    ///
    /// Panics if `p` was appended after the mask was built.
    pub fn hits(&self, p: ProvId) -> bool {
        match self.hit.get(p.0 as usize) {
            Some(&h) => h,
            None => panic!("provenance id {} is newer than the retraction mask", p.0),
        }
    }

    /// Number of table nodes the mask covers.
    pub(crate) fn len(&self) -> usize {
        self.hit.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn sentinels_leaves_and_union_identities() {
        let mut t = ProvTable::new();
        assert!(t.is_empty());
        let a = t.singleton(3);
        assert_eq!(t.singleton(3), a, "one leaf per atom");
        let b = t.singleton(5);
        assert_eq!(t.union(a, a), a);
        assert_eq!(t.union(ProvTable::EMPTY, b), b);
        assert_eq!(t.union(b, ProvTable::EMPTY), b);
        assert_eq!(t.union(ProvTable::TOP, b), ProvTable::TOP);
        assert_eq!(t.union(b, ProvTable::TOP), ProvTable::TOP);
        let before = t.len();
        let ab = t.union(a, b);
        assert_eq!(t.len(), before + 1, "a proper union appends one node");
        assert_ne!(t.union(b, a), ab, "unions are not deduplicated");

        let none = t.retraction_mask(&[]);
        assert!(!none.hits(ProvTable::TOP), "TOP meets no empty retraction");
        assert!(!none.hits(ab));
        let m = t.retraction_mask(&[5, 99]);
        assert!(m.hits(ProvTable::TOP), "TOP meets every non-empty retraction");
        assert!(!m.hits(ProvTable::EMPTY));
        assert!(!m.hits(a));
        assert!(m.hits(b) && m.hits(ab));
    }

    #[test]
    #[should_panic(expected = "newer than the retraction mask")]
    fn a_mask_refuses_ids_appended_after_it() {
        let mut t = ProvTable::new();
        let a = t.singleton(1);
        let m = t.retraction_mask(&[1]);
        let b = t.singleton(2);
        let ab = t.union(a, b);
        m.hits(ab);
    }

    /// A node in the model: `None` is `TOP`.
    type Model = Option<BTreeSet<u32>>;

    fn model_union(a: &Model, b: &Model) -> Model {
        Some(a.as_ref()?.union(b.as_ref()?).copied().collect())
    }

    fn model_hits(m: &Model, atoms: &[u32]) -> bool {
        match m {
            None => !atoms.is_empty(),
            Some(s) => atoms.iter().any(|a| s.contains(a)),
        }
    }

    /// Appends leaves for `raw` atoms and unions over random older ids.
    fn grow(
        t: &mut ProvTable,
        ids: &mut Vec<ProvId>,
        models: &mut Vec<Model>,
        raw: &[u32],
        pairs: &[(usize, usize)],
    ) {
        for &a in raw {
            ids.push(t.singleton(a));
            models.push(Some(BTreeSet::from([a])));
        }
        for &(i, j) in pairs {
            let (i, j) = (i % ids.len(), j % ids.len());
            ids.push(t.union(ids[i], ids[j]));
            models.push(model_union(&models[i], &models[j]));
        }
    }

    fn check_mask(
        t: &ProvTable,
        m: &RetractionMask,
        ids: &[ProvId],
        models: &[Model],
        atoms: &[u32],
    ) {
        prop_assert_eq!(m.len(), t.len());
        for (id, model) in ids.iter().zip(models) {
            prop_assert_eq!(m.hits(*id), model_hits(model, atoms), "{:?} vs {:?}", id, atoms);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random union DAGs against a `BTreeSet` model: every mask agrees
        /// with set intersection (empty retractions and `TOP` included).
        /// A mask built before more nodes were appended still answers for
        /// the older ids; a fresh mask covers the new ones; and a second,
        /// different retraction set is answered from scratch, never from
        /// the first mask.
        #[test]
        fn retraction_masks_match_a_set_model(
            raw in prop::collection::vec(0u32..40, 1..12),
            pairs in prop::collection::vec((0usize..256, 0usize..256), 0..80),
            more_raw in prop::collection::vec(0u32..50, 0..6),
            more_pairs in prop::collection::vec((0usize..256, 0usize..256), 0..40),
            first in prop::collection::vec(0u32..50, 0..4),
            second in prop::collection::vec(0u32..50, 0..4),
        ) {
            let mut t = ProvTable::new();
            let mut ids = vec![ProvTable::EMPTY, ProvTable::TOP];
            let mut models: Vec<Model> = vec![Some(BTreeSet::new()), None];
            grow(&mut t, &mut ids, &mut models, &raw, &pairs);
            let m1 = t.retraction_mask(&first);
            check_mask(&t, &m1, &ids, &models, &first);

            grow(&mut t, &mut ids, &mut models, &more_raw, &more_pairs);
            // The stale mask still answers for every id it covers, including
            // ids handed out again since (leaves and union identities); ids
            // appended since lie past it, where `hits` panics
            // (`a_mask_refuses_ids_appended_after_it`).
            for (id, model) in ids.iter().zip(&models) {
                if (id.raw() as usize) < m1.len() {
                    prop_assert_eq!(m1.hits(*id), model_hits(model, &first), "stale mask");
                }
            }
            check_mask(&t, &t.retraction_mask(&first), &ids, &models, &first);
            check_mask(&t, &t.retraction_mask(&second), &ids, &models, &second);
            check_mask(&t, &t.retraction_mask(&[]), &ids, &models, &[]);
        }
    }
}
