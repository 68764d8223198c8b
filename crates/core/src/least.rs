//! Least-solution computation (Section 2.4, equation (1)).
//!
//! Standard form makes the least solution explicit: after closure, every
//! source reaching a variable sits in its predecessor list. Inductive form
//! does not — but because every variable-variable predecessor edge points
//! from a smaller-ordered variable to a larger one, the least solution can be
//! computed in a single pass over the variables in increasing order:
//!
//! ```text
//! LS(Y) = { c(…) | c(…) ⋯→ Y }  ∪  ⋃ { LS(X) | X ⋯→ Y }
//! ```
//!
//! As in the paper, every reported inductive-form timing *includes* this
//! pass (the harness times `solve()` + `least_solution()` together).

use bane_util::idx::Idx;
use crate::expr::{TermId, Var};
use crate::forward::Forwarding;
use crate::graph::Graph;
use crate::order::VarOrder;
use crate::solver::{Form, Solver};

/// Borrowed view of exactly the solver state the least-solution pass reads.
///
/// Obtained from [`Solver::least_parts`]. Everything here is a shared
/// reference to `Sync` data, so a `LeastParts` can be captured by scoped
/// worker threads while the solver itself stays on the owning thread.
#[derive(Clone, Copy)]
pub struct LeastParts<'a> {
    /// The solved constraint graph.
    pub graph: &'a Graph,
    /// Forwarding pointers for collapsed variables.
    pub fwd: &'a Forwarding,
    /// The variable order (drives the inductive-form evaluation order).
    pub order: &'a VarOrder,
    /// Which graph form the solver ran under.
    pub form: Form,
}

impl LeastParts<'_> {
    /// Fills `out` with the canonical representative of every variable
    /// (`out[i] = find(i)`), reusing `out`'s capacity.
    pub fn rep_map_into(&self, out: &mut Vec<Var>) {
        let n = self.graph.len();
        out.clear();
        out.reserve(n);
        for i in 0..n {
            out.push(self.fwd.find_const(Var::new(i)));
        }
    }

    /// Fills `out` with the canonical representatives in **layout order** —
    /// the exact order the sequential pass commits spans to the arena:
    /// creation order for standard form, increasing variable order for
    /// inductive form. `rep` must come from
    /// [`rep_map_into`](LeastParts::rep_map_into).
    ///
    /// Reuses `out`'s capacity and sorts in place, so a warmed caller
    /// performs no allocation.
    pub fn layout_order_into(&self, rep: &[Var], out: &mut Vec<Var>) {
        out.clear();
        out.extend((0..rep.len()).map(Var::new).filter(|&v| rep[v.index()] == v));
        if let Form::Inductive = self.form {
            // Keys are unique per variable, so the unstable sort is
            // deterministic and matches the sequential pass's stable sort.
            out.sort_unstable_by_key(|&v| self.order.key(v));
        }
    }

    /// Computes the **condensation level** of every canonical variable over
    /// the canonical predecessor DAG (read from a frozen [`CsrSnapshot`])
    /// and returns the maximum level.
    ///
    /// Level 0 variables have no canonical variable predecessors; otherwise
    /// `level(v) = 1 + max(level(preds))`. Because inductive-form
    /// predecessor edges always decrease the variable order, every
    /// predecessor of `v` appears before `v` in `layout`, making a single
    /// forward sweep sufficient — and making each level an independent batch
    /// a parallel evaluator can process with no intra-level dependencies.
    /// For standard form every variable is level 0 (sets are read directly
    /// from explicit source lists).
    ///
    /// `out` is indexed by raw variable index; entries for non-canonical
    /// variables are 0 and meaningless. Reuses `out`'s capacity.
    pub fn levels_into(&self, csr: &CsrSnapshot, layout: &[Var], out: &mut Vec<u32>) -> u32 {
        out.clear();
        out.resize(self.graph.len(), 0);
        if let Form::Standard = self.form {
            return 0;
        }
        let mut max_level = 0u32;
        for &v in layout {
            let mut level = 0u32;
            for &u in csr.preds(v) {
                level = level.max(out[u.index()] + 1);
            }
            out[v.index()] = level;
            max_level = max_level.max(level);
        }
        max_level
    }
}

/// A frozen, canonicalized compressed-sparse-row view of the post-closure
/// graph — the read path of the least-solution kernel.
///
/// The adjacency lists the solver closes over are built for *mutation*:
/// entries are raw (possibly stale under collapsed representatives), may
/// alias after canonicalization, and sources are unsorted. The least pass
/// is pure *traversal*, and both the sequential pass and `bane-par`'s
/// level-parallel evaluator used to pay the canonicalization tax per read:
/// one `find` per predecessor entry plus a sort of every source list, per
/// variable, per pass. `CsrSnapshot` pays it exactly once: a single `build`
/// freezes, for every canonical variable,
///
/// - its canonical variable predecessors (forwarded through `find`,
///   self-edges from collapses dropped, sorted, deduplicated), and
/// - its source terms (sorted, deduplicated),
///
/// into two flat column arrays indexed by per-variable rows. Rows are laid
/// out in **evaluation order** — the exact order the pass visits variables
/// — so the kernel sweep reads `cols`/`srcs` strictly front to back
/// (prefetch-friendly), and within a row columns are sorted ascending.
///
/// Byte-identity is unaffected: each variable's result set is canonical
/// (sorted + deduplicated), so its content does not depend on whether
/// duplicate predecessor runs were merged once or twice, and the arena
/// layout is fixed by the commit order, which the snapshot does not touch.
///
/// All buffers are reused across builds; a warmed snapshot re-freezes a
/// same-shaped graph without allocating (pinned by the workspace
/// allocation test through `bane-par`'s single-threaded pass).
#[derive(Clone, Debug, Default)]
pub struct CsrSnapshot {
    /// `(start, end)` into `cols` per raw variable index (`(0, 0)` for
    /// collapsed variables and for standard form, which never reads
    /// predecessor variables).
    var_rows: Vec<(u32, u32)>,
    /// Canonical, self-free, sorted, deduplicated predecessor variables.
    cols: Vec<Var>,
    /// `(start, end)` into `srcs` per raw variable index.
    src_rows: Vec<(u32, u32)>,
    /// Sorted, deduplicated source terms.
    srcs: Vec<TermId>,
}

/// Sorts `v[start..]` and removes adjacent duplicates in place, truncating
/// `v` to the deduplicated length. The scratch-free primitive `CsrSnapshot`
/// canonicalizes each freshly appended row with.
fn sort_dedup_tail<T: Ord + Copy>(v: &mut Vec<T>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for r in start..v.len() {
        if w == start || v[w - 1] != v[r] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

impl CsrSnapshot {
    /// An empty snapshot with no buffers warmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes `parts` into CSR form. `layout` must be the evaluation order
    /// from [`LeastParts::layout_order_into`]; rows are written in that
    /// order so the evaluating sweep streams the column arrays.
    ///
    /// Reuses all internal buffers (no allocation once warm).
    pub fn build(&mut self, parts: &LeastParts<'_>, layout: &[Var]) {
        let n = parts.graph.len();
        self.var_rows.clear();
        self.var_rows.resize(n, (0, 0));
        self.src_rows.clear();
        self.src_rows.resize(n, (0, 0));
        self.cols.clear();
        self.srcs.clear();
        for &v in layout {
            let node = parts.graph.node(v);
            let start = self.srcs.len();
            self.srcs.extend_from_slice(node.pred_srcs());
            sort_dedup_tail(&mut self.srcs, start);
            let end = u32::try_from(self.srcs.len()).expect("csr source column overflow");
            self.src_rows[v.index()] = (start as u32, end);
            if let Form::Standard = parts.form {
                // Standard form reads sets straight off the source rows;
                // predecessor variables never feed equation (1) there.
                continue;
            }
            let start = self.cols.len();
            for &raw in node.pred_vars() {
                let u = parts.fwd.find_const(raw);
                if u == v {
                    continue; // stale self edge from a collapse
                }
                debug_assert!(
                    parts.order.lt(u, v),
                    "inductive invariant: pred edges decrease the order"
                );
                self.cols.push(u);
            }
            sort_dedup_tail(&mut self.cols, start);
            let end = u32::try_from(self.cols.len()).expect("csr column overflow");
            self.var_rows[v.index()] = (start as u32, end);
        }
    }

    /// The canonical predecessor variables of `v`: sorted, distinct, never
    /// containing `v` itself. Empty for standard form.
    pub fn preds(&self, v: Var) -> &[Var] {
        let (s, e) = self.var_rows[v.index()];
        &self.cols[s as usize..e as usize]
    }

    /// The source terms reaching `v` directly: sorted and distinct.
    pub fn srcs(&self, v: Var) -> &[TermId] {
        let (s, e) = self.src_rows[v.index()];
        &self.srcs[s as usize..e as usize]
    }

    /// Replaces `self`'s contents with a copy of `other`, reusing every
    /// buffer (a `clone_from` that actually reuses capacity — the derived
    /// `Clone` does not override `clone_from`, so it would reallocate).
    /// Used by `bane-par`'s evaluator to retain the previous pass's rows
    /// as its revalidation baseline without per-pass allocation once warm.
    pub fn copy_from(&mut self, other: &CsrSnapshot) {
        self.var_rows.clone_from(&other.var_rows);
        self.cols.clone_from(&other.cols);
        self.src_rows.clone_from(&other.src_rows);
        self.srcs.clone_from(&other.srcs);
    }

    /// Exposes the raw CSR buffers as
    /// `(var_rows, cols, src_rows, srcs)` — the serialization surface used
    /// by `bane-snap`'s on-disk writer. Row `(start, end)` pairs index into
    /// the matching column array exactly as [`preds`](CsrSnapshot::preds)
    /// and [`srcs`](CsrSnapshot::srcs) read them.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (&[(u32, u32)], &[Var], &[(u32, u32)], &[TermId]) {
        (&self.var_rows, &self.cols, &self.src_rows, &self.srcs)
    }

    /// Number of row slots (one per raw variable index covered by the last
    /// [`build`](CsrSnapshot::build)). Callers comparing rows across two
    /// snapshots — the revalidating kernel in `bane-par` — must
    /// bounds-check against this before indexing a variable that may not
    /// exist in the older snapshot.
    pub fn rows(&self) -> usize {
        self.var_rows.len()
    }

    /// Total canonical predecessor entries across all rows.
    pub fn pred_entries(&self) -> usize {
        self.cols.len()
    }

    /// Total source entries across all rows.
    pub fn src_entries(&self) -> usize {
        self.srcs.len()
    }
}

/// Size ratio past which [`merge_sorted_dedup`] gallops through the larger
/// input instead of walking it element by element.
const GALLOP_RATIO: usize = 16;

/// Merges two sorted, internally distinct slices onto the end of `out`,
/// dropping duplicates across the two.
///
/// This is the primitive both the sequential pass and the parallel
/// evaluator in `bane-par` build set unions from; sharing it guarantees the
/// two produce identical bytes for identical inputs.
///
/// The common least-solution merge is heavily skewed — a handful of fresh
/// sources against a large accumulated set — so disjoint ranges are
/// detected up front (one bulk copy each) and a size ratio past
/// `GALLOP_RATIO` switches to exponential search over the larger side:
/// `O(small · log large)` comparisons plus bulk copies, instead of walking
/// every element of the large side. Every path produces the same bytes as
/// the naive two-pointer walk (debug-asserted on the galloping path).
pub fn merge_sorted_dedup(a: &[TermId], b: &[TermId], out: &mut Vec<TermId>) {
    out.reserve(a.len() + b.len());
    if a.is_empty() {
        out.extend_from_slice(b);
        return;
    }
    if b.is_empty() {
        out.extend_from_slice(a);
        return;
    }
    // Disjoint ranges: pure concatenation (strict `<` keeps an equal
    // boundary element on the dedup path below).
    if a[a.len() - 1] < b[0] {
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        return;
    }
    if b[b.len() - 1] < a[0] {
        out.extend_from_slice(b);
        out.extend_from_slice(a);
        return;
    }
    if a.len() >= b.len().saturating_mul(GALLOP_RATIO) {
        gallop_merge(b, a, out);
    } else if b.len() >= a.len().saturating_mul(GALLOP_RATIO) {
        gallop_merge(a, b, out);
    } else {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }
}

/// Reusable ping-pong buffers for [`union_runs`].
#[derive(Clone, Debug, Default)]
pub struct MergeScratch {
    acc: Vec<TermId>,
    buf_b: Vec<TermId>,
    bounds_a: Vec<(u32, u32)>,
    bounds_b: Vec<(u32, u32)>,
}

/// Appends the union of `total` sorted, internally distinct runs
/// (`input(0)`, …, `input(total - 1)`) to `out`, sorted and distinct.
///
/// Iterated pairwise merging with [`merge_sorted_dedup`], `O(total
/// elements · log runs)` with no sort: level 0 reads the inputs, middle
/// levels ping-pong between the scratch buffers, and the last merge writes
/// straight into `out`. The sequential pass and `bane-par`'s evaluator
/// both build every multi-input set here, which is what keeps their bytes
/// identical.
pub fn union_runs<'a>(
    total: usize,
    input: impl Fn(usize) -> &'a [TermId],
    m: &mut MergeScratch,
    out: &mut Vec<TermId>,
) {
    match total {
        0 => {}
        1 => out.extend_from_slice(input(0)),
        2 => merge_sorted_dedup(input(0), input(1), out),
        _ => {
            m.acc.clear();
            m.bounds_a.clear();
            let mut i = 0;
            while i < total {
                let start = m.acc.len() as u32;
                if i + 1 < total {
                    merge_sorted_dedup(input(i), input(i + 1), &mut m.acc);
                    i += 2;
                } else {
                    m.acc.extend_from_slice(input(i));
                    i += 1;
                }
                m.bounds_a.push((start, m.acc.len() as u32));
            }
            // Three or more inputs leave at least two runs at every level.
            while m.bounds_a.len() > 2 {
                m.buf_b.clear();
                m.bounds_b.clear();
                for pair in m.bounds_a.chunks(2) {
                    let start = m.buf_b.len() as u32;
                    match *pair {
                        [(s1, e1), (s2, e2)] => merge_sorted_dedup(
                            &m.acc[s1 as usize..e1 as usize],
                            &m.acc[s2 as usize..e2 as usize],
                            &mut m.buf_b,
                        ),
                        [(s, e)] => m.buf_b.extend_from_slice(&m.acc[s as usize..e as usize]),
                        _ => unreachable!("chunks of two"),
                    }
                    m.bounds_b.push((start, m.buf_b.len() as u32));
                }
                std::mem::swap(&mut m.acc, &mut m.buf_b);
                std::mem::swap(&mut m.bounds_a, &mut m.bounds_b);
            }
            let [(s1, e1), (s2, e2)] = m.bounds_a[..] else {
                unreachable!("three or more inputs reduce to two runs")
            };
            let (a, b) = (&m.acc[s1 as usize..e1 as usize], &m.acc[s2 as usize..e2 as usize]);
            merge_sorted_dedup(a, b, out);
        }
    }
}

/// Skewed-size merge: for each element of `small`, exponential search
/// locates its insertion point in the unconsumed tail of `big`, and the run
/// of smaller `big` elements is bulk-copied.
fn gallop_merge(small: &[TermId], big: &[TermId], out: &mut Vec<TermId>) {
    #[cfg(debug_assertions)]
    let checked_from = out.len();
    let mut cur = 0usize;
    for &s in small {
        let pos = cur + gallop_lower_bound(&big[cur..], s);
        out.extend_from_slice(&big[cur..pos]);
        out.push(s);
        cur = pos;
        if cur < big.len() && big[cur] == s {
            cur += 1; // shared element: emitted once
        }
    }
    out.extend_from_slice(&big[cur..]);
    #[cfg(debug_assertions)]
    {
        // The fast path must be indistinguishable from the naive walk.
        // Replayed in lockstep (no scratch buffer) so the check itself
        // stays allocation-free — this primitive runs inside the
        // zero-steady-state-allocation envelope even in debug builds.
        let produced = &out[checked_from..];
        let mut k = 0;
        let mut check = |t: TermId| {
            debug_assert!(produced.get(k) == Some(&t), "gallop merge diverged at {k}");
            k += 1;
        };
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < big.len() {
            match small[i].cmp(&big[j]) {
                std::cmp::Ordering::Less => {
                    check(small[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    check(big[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    check(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        small[i..].iter().chain(&big[j..]).for_each(|&t| check(t));
        debug_assert_eq!(k, produced.len(), "gallop merge length diverged");
    }
}

/// First index of `slice` whose element is `>= target`, found by an
/// exponential probe followed by a binary search of the bracketed window.
fn gallop_lower_bound(slice: &[TermId], target: TermId) -> usize {
    if slice.first().is_none_or(|&head| head >= target) {
        return 0;
    }
    // Invariant: slice[lo] < target; the answer lies in (lo, hi].
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    lo + slice[lo..hi].partition_point(|&x| x < target)
}

/// The least solution of a solved constraint system: for every variable, the
/// sorted set of source terms it contains.
///
/// Sets are stored back to back in one arena with per-variable spans rather
/// than as a `Vec` per variable: building the solution then costs one
/// amortized allocation total instead of one per variable, and reading
/// consecutive sets walks contiguous memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeastSolution {
    rep: Vec<Var>,
    arena: Vec<TermId>,
    /// `spans[i]` is the arena range of canonical variable `i`'s set
    /// (`0..0` for collapsed variables, which resolve through `rep`).
    spans: Vec<(u32, u32)>,
}

impl LeastSolution {
    /// The least solution of `v` as a sorted, deduplicated slice of sources.
    ///
    /// Collapsed variables transparently resolve to their witness.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solver that produced this value.
    pub fn get(&self, v: Var) -> &[TermId] {
        let (start, end) = self.spans[self.rep[v.index()].index()];
        &self.arena[start as usize..end as usize]
    }

    /// `|LS(v)|`.
    pub fn size(&self, v: Var) -> usize {
        self.get(v).len()
    }

    /// Whether `t ∈ LS(v)`.
    pub fn contains(&self, v: Var, t: TermId) -> bool {
        self.get(v).binary_search(&t).is_ok()
    }

    /// Number of variables covered (including collapsed ones).
    pub fn len(&self) -> usize {
        self.rep.len()
    }

    /// Whether no variables are covered.
    pub fn is_empty(&self) -> bool {
        self.rep.is_empty()
    }

    /// Sum of set sizes over canonical variables.
    pub fn total_entries(&self) -> usize {
        self.arena.len()
    }

    /// Assembles a solution from its raw storage, the inverse of
    /// [`raw_parts`](LeastSolution::raw_parts).
    ///
    /// This is the constructor external evaluators (`bane-par`) use to
    /// produce output *byte-identical* to the sequential pass: `PartialEq`
    /// on two `LeastSolution`s compares exactly these three buffers, so an
    /// equality assertion pins layout, not just set contents.
    ///
    /// Invariants (debug-asserted): `rep` and `spans` have one entry per
    /// variable, every span lies inside `arena`, and no two non-empty spans
    /// overlap — each canonical variable owns its arena range exclusively
    /// (aliasing happens through `rep`, never through shared spans).
    pub fn from_parts(rep: Vec<Var>, arena: Vec<TermId>, spans: Vec<(u32, u32)>) -> Self {
        debug_assert_eq!(rep.len(), spans.len());
        debug_assert!(spans
            .iter()
            .all(|&(s, e)| s <= e && (e as usize) <= arena.len()));
        #[cfg(debug_assertions)]
        {
            let mut occupied: Vec<(u32, u32)> =
                spans.iter().copied().filter(|&(s, e)| e > s).collect();
            occupied.sort_unstable();
            for w in occupied.windows(2) {
                debug_assert!(
                    w[0].1 <= w[1].0,
                    "overlapping least-solution spans: {:?} and {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        LeastSolution { rep, arena, spans }
    }

    /// The raw storage: `(rep, arena, spans)`. `rep[i]` is variable `i`'s
    /// canonical representative, and `spans[i]` indexes `arena` with
    /// representative `i`'s sorted set (`(0, 0)` or an empty range when the
    /// set is empty or `i` is collapsed).
    pub fn raw_parts(&self) -> (&[Var], &[TermId], &[(u32, u32)]) {
        (&self.rep, &self.arena, &self.spans)
    }
}

impl Solver {
    /// Computes the least solution of the solved system.
    ///
    /// For standard form this reads the explicit source lists; for
    /// inductive form it runs the increasing-order pass of equation (1).
    /// Either way the pass traverses a [`CsrSnapshot`] frozen from the
    /// solved graph (canonicalized once, not per read). Call after
    /// [`solve`](Solver::solve).
    pub fn least_solution(&mut self) -> LeastSolution {
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            rec.start(bane_obs::Phase::LeastSolution);
        }
        // The snapshot lives on the solver so repeated passes reuse its
        // buffers; taken out for the duration of the borrow of the parts.
        let mut csr = std::mem::take(self.csr_snapshot_mut());
        let parts = self.least_parts();
        let LeastParts { graph: _, fwd, order, form } = parts;
        let n = parts.graph.len();
        let mut rep: Vec<Var> = Vec::with_capacity(n);
        for i in 0..n {
            rep.push(fwd.find_const(Var::new(i)));
        }
        // All sets share one arena; `acc` and the merge scratch are the only
        // working buffers and are reused across variables, so the pass
        // allocates O(1) vectors total instead of one `Vec` per variable.
        let mut spans: Vec<(u32, u32)> = vec![(0, 0); n];
        let mut arena: Vec<TermId> = Vec::new();
        let mut acc: Vec<TermId> = Vec::new();
        let mut reps: Vec<Var> =
            (0..n).map(Var::new).filter(|&v| rep[v.index()] == v).collect();
        if let Form::Inductive = form {
            // Predecessor edges always point from smaller to larger order,
            // so ascending order is a valid evaluation order.
            reps.sort_by_key(|&v| order.key(v));
        }

        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            rec.start(bane_obs::Phase::CsrBuild);
        }
        csr.build(&parts, &reps);
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            rec.stop(bane_obs::Phase::CsrBuild);
            rec.add(bane_obs::Counter::CsrBuilds, 1);
        }

        /// Appends already-sorted, already-distinct `set` as `v`'s span.
        fn append(
            set: &[TermId],
            arena: &mut Vec<TermId>,
            spans: &mut [(u32, u32)],
            v: Var,
        ) {
            let start = u32::try_from(arena.len()).expect("least-solution arena overflow");
            arena.extend_from_slice(set);
            let end = u32::try_from(arena.len()).expect("least-solution arena overflow");
            spans[v.index()] = (start, end);
        }

        match form {
            Form::Standard => {
                // Standard form's sets are exactly the frozen source rows
                // (already sorted and distinct).
                for &v in &reps {
                    append(csr.srcs(v), &mut arena, &mut spans, v);
                }
            }
            Form::Inductive => {
                // Reusable per-variable buffers: the canonical predecessor
                // spans feeding this variable and the merge state.
                let mut runs: Vec<(u32, u32)> = Vec::new();
                let mut scratch = MergeScratch::default();
                for &v in &reps {
                    let srcs = csr.srcs(v);
                    runs.clear();
                    for &u in csr.preds(v) {
                        let span = spans[u.index()];
                        if span.1 > span.0 {
                            runs.push(span);
                        }
                    }
                    // The inputs are sorted runs (each span is sorted and
                    // distinct, as is the frozen `srcs` row), so small
                    // arities merge linearly instead of re-sorting. The
                    // common cases by far are zero or one predecessor run.
                    match (srcs.is_empty(), runs.as_slice()) {
                        (true, []) => spans[v.index()] = (0, 0),
                        (false, []) => append(srcs, &mut arena, &mut spans, v),
                        (true, &[(s, e)]) => {
                            let start = u32::try_from(arena.len())
                                .expect("least-solution arena overflow");
                            arena.extend_from_within(s as usize..e as usize);
                            spans[v.index()] = (start, start + (e - s));
                        }
                        _ => {
                            // Two or more input runs read out of the arena
                            // (and `srcs`), so they merge into `acc` first.
                            let extra = usize::from(!srcs.is_empty());
                            let input = |i: usize| -> &[TermId] {
                                if i < extra {
                                    srcs
                                } else {
                                    let (s, e) = runs[i - extra];
                                    &arena[s as usize..e as usize]
                                }
                            };
                            acc.clear();
                            union_runs(runs.len() + extra, input, &mut scratch, &mut acc);
                            append(&acc, &mut arena, &mut spans, v);
                        }
                    }
                }
            }
        }
        let result = LeastSolution { rep, arena, spans };
        // Hand the warmed snapshot back to the solver for the next pass.
        *self.csr_snapshot_mut() = csr;
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            let set_vars = result.spans.iter().filter(|(s, e)| e > s).count();
            rec.set(bane_obs::Counter::LsSetVars, set_vars as u64);
            rec.set(bane_obs::Counter::LsEntries, result.total_entries() as u64);
            rec.stop(bane_obs::Phase::LeastSolution);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;

    /// Builds a diamond: c1 ⊆ a; a ⊆ b; a ⊆ c; b ⊆ d; c ⊆ d; c2 ⊆ c.
    fn diamond(config: SolverConfig) -> (Solver, [Var; 4], [TermId; 2]) {
        let mut s = Solver::new(config);
        let c1 = s.register_nullary("c1");
        let c2 = s.register_nullary("c2");
        let t1 = s.term(c1, vec![]);
        let t2 = s.term(c2, vec![]);
        let vs = [s.fresh_var(), s.fresh_var(), s.fresh_var(), s.fresh_var()];
        s.add(t1, vs[0]);
        s.add(vs[0], vs[1]);
        s.add(vs[0], vs[2]);
        s.add(vs[1], vs[3]);
        s.add(vs[2], vs[3]);
        s.add(t2, vs[2]);
        (s, vs, [t1, t2])
    }

    #[test]
    fn diamond_least_solutions_agree_across_configs() {
        let expected: [Vec<usize>; 4] = [vec![0], vec![0], vec![0, 1], vec![0, 1]];
        for config in [
            SolverConfig::sf_plain(),
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ] {
            let (mut s, vs, ts) = diamond(config);
            s.solve();
            let resolved: Vec<Var> = vs.iter().map(|&v| s.find(v)).collect();
            let ls = s.least_solution();
            for (i, &v) in resolved.iter().enumerate() {
                let want: Vec<TermId> = expected[i].iter().map(|&j| ts[j]).collect();
                assert_eq!(ls.get(v), want.as_slice(), "{config:?} var {i}");
                assert_eq!(ls.size(v), want.len());
                for &t in &want {
                    assert!(ls.contains(v, t));
                }
            }
        }
    }

    #[test]
    fn collapsed_cycle_members_share_solutions() {
        let mut s = Solver::new(SolverConfig::if_online());
        let c = s.register_nullary("c");
        let t = s.term(c, vec![]);
        let (x, y, z) = (s.fresh_var(), s.fresh_var(), s.fresh_var());
        s.add(x, y);
        s.add(y, x);
        s.add(t, x);
        s.add(y, z);
        s.solve();
        let (x, y, z) = (s.find(x), s.find(y), s.find(z));
        let ls = s.least_solution();
        assert_eq!(x, y);
        assert_eq!(ls.get(x), &[t]);
        assert_eq!(ls.get(y), &[t]);
        assert_eq!(ls.get(z), &[t]);
        assert!(ls.total_entries() >= 2);
        assert_eq!(ls.len(), 3);
        assert!(!ls.is_empty());
    }

    #[test]
    fn empty_solver_has_empty_solution() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.solve();
        let ls = s.least_solution();
        assert!(ls.is_empty());
        assert_eq!(ls.total_entries(), 0);
    }

    /// The frozen CSR rows must agree entry-for-entry with a canonicalizing
    /// walk of the raw adjacency lists — including after collapses have
    /// left stale self edges and aliased entries behind, which is exactly
    /// what the snapshot exists to clean up once instead of per read.
    #[test]
    fn csr_snapshot_matches_adjacency_on_random_cyclic_systems() {
        use bane_util::SplitMix64;
        let mut csr = CsrSnapshot::new();
        let (mut rep, mut layout) = (Vec::new(), Vec::new());
        for config in [SolverConfig::sf_online(), SolverConfig::if_online()] {
            let mut collapses = 0;
            for seed in 0..4u64 {
                let mut rng = SplitMix64::new(0xC5A0 + seed);
                let mut s = Solver::new(config);
                let n = 40;
                let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
                let mut ts = Vec::new();
                for k in 0..6 {
                    let c = s.register_nullary(format!("c{k}"));
                    ts.push(s.term(c, vec![]));
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        if rng.next_bool(0.08) {
                            s.add(vs[i], vs[j]);
                        }
                    }
                }
                // Back edges so collapses leave stale entries behind.
                for _ in 0..10 {
                    let a = rng.next_below(n as u64) as usize;
                    let b = rng.next_below(n as u64) as usize;
                    s.add(vs[a], vs[b]);
                }
                for (k, &t) in ts.iter().enumerate() {
                    s.add(t, vs[(k * 5) % n]);
                }
                s.solve();
                collapses += s.stats().cycles_collapsed;

                let parts = s.least_parts();
                parts.rep_map_into(&mut rep);
                parts.layout_order_into(&rep, &mut layout);
                csr.build(&parts, &layout);
                let mut pred_total = 0;
                for &v in &layout {
                    let node = parts.graph.node(v);
                    let mut srcs: Vec<TermId> = node.pred_srcs().to_vec();
                    srcs.sort_unstable();
                    srcs.dedup();
                    assert_eq!(csr.srcs(v), srcs.as_slice(), "{config:?} src row");
                    match parts.form {
                        Form::Standard => {
                            assert!(csr.preds(v).is_empty(), "SF builds no pred rows");
                        }
                        Form::Inductive => {
                            let mut preds: Vec<Var> = node
                                .pred_vars()
                                .iter()
                                .map(|&raw| parts.fwd.find_const(raw))
                                .filter(|&u| u != v)
                                .collect();
                            preds.sort_unstable();
                            preds.dedup();
                            assert_eq!(
                                csr.preds(v),
                                preds.as_slice(),
                                "{config:?} pred row"
                            );
                            pred_total += preds.len();
                        }
                    }
                }
                assert_eq!(csr.pred_entries(), pred_total, "{config:?} totals");
            }
            assert!(collapses > 0, "{config:?}: workload should collapse cycles");
        }
    }

    /// Reference two-pointer merge the fast-path tests compare against.
    fn naive_merge(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
        let mut all: Vec<TermId> = a.iter().chain(b).copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    fn terms(ids: &[usize]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId::new(i)).collect()
    }

    #[test]
    fn merge_handles_empty_subset_interleaved_and_duplicate_heavy_inputs() {
        let cases: [(&[usize], &[usize]); 10] = [
            (&[], &[]),
            (&[], &[1, 2, 3]),
            (&[5], &[]),
            // Subset relations (both directions, shared elements dropped).
            (&[2, 4], &[1, 2, 3, 4, 5]),
            (&[0, 1, 2, 3, 4, 5, 6, 7], &[3, 5]),
            // Fully interleaved.
            (&[0, 2, 4, 6], &[1, 3, 5, 7]),
            // Duplicate-heavy: every element shared.
            (&[1, 2, 3], &[1, 2, 3]),
            // Disjoint ranges (the concatenation fast paths).
            (&[1, 2, 3], &[10, 11]),
            (&[10, 11], &[1, 2, 3]),
            // Equal boundary element must still dedup.
            (&[1, 2, 5], &[5, 6, 7]),
        ];
        for (a, b) in cases {
            let (a, b) = (terms(a), terms(b));
            let mut out = Vec::new();
            merge_sorted_dedup(&a, &b, &mut out);
            assert_eq!(out, naive_merge(&a, &b), "a={a:?} b={b:?}");
        }
    }

    /// Skewed sizes drive the galloping path; output must match the naive
    /// walk exactly (also re-checked by the internal debug assertion).
    #[test]
    fn merge_gallops_on_skewed_sizes() {
        use bane_util::SplitMix64;
        let big: Vec<TermId> = (0..2000).map(|i| TermId::new(i * 3)).collect();
        // Small side: mixes of shared, interleaved, and out-of-range values.
        let smalls: [&[usize]; 5] = [
            &[0],                       // first element, shared
            &[5997],                    // last element, shared
            &[1, 2, 3000, 9000],        // interleaved + past the end
            &[0, 3, 6, 9],              // prefix, all shared
            &[7000, 7001, 7002],        // entirely past the end
        ];
        for ids in smalls {
            let small = terms(ids);
            let mut out = Vec::new();
            merge_sorted_dedup(&small, &big, &mut out);
            assert_eq!(out, naive_merge(&small, &big), "small={ids:?}");
            out.clear();
            merge_sorted_dedup(&big, &small, &mut out);
            assert_eq!(out, naive_merge(&small, &big), "swapped small={ids:?}");
        }
        // Randomized sweep across skews, seeds, and duplicates.
        let mut rng = SplitMix64::new(0x6A110);
        for round in 0..200 {
            let nb = 1 + rng.next_below(400) as usize;
            let na = 1 + rng.next_below(8) as usize;
            let mut a: Vec<TermId> =
                (0..na).map(|_| TermId::new(rng.next_below(1200) as usize)).collect();
            let mut b: Vec<TermId> =
                (0..nb).map(|_| TermId::new(rng.next_below(1200) as usize)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut out = Vec::new();
            merge_sorted_dedup(&a, &b, &mut out);
            assert_eq!(out, naive_merge(&a, &b), "round {round}");
        }
    }

    #[test]
    fn from_parts_accepts_disjoint_spans() {
        let rep = vec![Var::new(0), Var::new(0), Var::new(2)];
        let arena = terms(&[1, 2, 3, 4]);
        // Disjoint non-empty spans plus an empty one: fine.
        let ls = LeastSolution::from_parts(rep, arena, vec![(0, 2), (0, 0), (2, 4)]);
        assert_eq!(ls.get(Var::new(1)), ls.get(Var::new(0)));
        assert_eq!(ls.get(Var::new(2)), terms(&[3, 4]).as_slice());
    }

    /// Regression for the invariant sweep: two canonical variables must
    /// never claim overlapping arena ranges.
    #[test]
    #[should_panic(expected = "overlapping least-solution spans")]
    #[cfg(debug_assertions)]
    fn from_parts_rejects_overlapping_spans() {
        let rep = vec![Var::new(0), Var::new(1)];
        let arena = terms(&[1, 2, 3]);
        let _ = LeastSolution::from_parts(rep, arena, vec![(0, 2), (1, 3)]);
    }

    /// Random chains: IF least solution equals SF's explicit one.
    #[test]
    fn inductive_matches_standard_on_random_dags() {
        use bane_util::SplitMix64;
        let mut rng = SplitMix64::new(99);
        for round in 0..20 {
            let n = 30;
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.next_bool(0.08) {
                        edges.push((i, j));
                    }
                }
            }
            let n_srcs = 5;
            let mut src_at = Vec::new();
            for k in 0..n_srcs {
                src_at.push((k, rng.next_below(n as u64) as usize));
            }

            let build = |config: SolverConfig| {
                let mut s = Solver::new(config);
                let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
                let mut ts = Vec::new();
                for k in 0..n_srcs {
                    let c = s.register_nullary(format!("c{k}"));
                    ts.push(s.term(c, vec![]));
                }
                for &(a, b) in &edges {
                    s.add(vs[a], vs[b]);
                }
                for &(k, at) in &src_at {
                    s.add(ts[k], vs[at]);
                }
                s.solve();
                let resolved: Vec<Var> = vs.iter().map(|&v| s.find(v)).collect();
                let ls = s.least_solution();
                resolved.iter().map(|&v| ls.get(v).to_vec()).collect::<Vec<_>>()
            };

            let sf = build(SolverConfig::sf_plain());
            let ifo = build(SolverConfig::if_online());
            assert_eq!(sf, ifo, "round {round}");
        }
    }
}
