//! SCC-level-parallel least-solution evaluation.
//!
//! The sequential pass in `bane-core` evaluates equation (1) by walking the
//! canonical variables in increasing order, each set the union of its own
//! sources and its canonical predecessors' already-computed sets. The
//! inductive-form invariant — predecessor edges always decrease the
//! variable order — means the canonical predecessor graph is a DAG, so its
//! **condensation levels** (`level(v) = 1 + max level of v's predecessors`)
//! are independent batches: every variable on a level reads only sets
//! committed on strictly lower levels. [`ParLeast`] evaluates each level's
//! variables in parallel and commits the results in a fixed order, producing
//! a [`LeastSolution`] **byte-identical** to the sequential pass at every
//! thread count (`PartialEq` on `LeastSolution` compares the raw buffers, so
//! the tests pin exactly that).
//!
//! # Why bytes match
//!
//! Each variable's set is canonical — sorted and deduplicated — so its
//! content is independent of the merge structure that produced it. The only
//! layout freedom is *arena order*, and the final relayout step writes sets
//! in the sequential pass's exact commit order (creation order for standard
//! form, increasing variable order for inductive form), including standard
//! form's empty `(k, k)` spans. Identical contents in identical order is
//! identical bytes.
//!
//! # The CSR read path
//!
//! Before any evaluation, the run freezes the solved graph into a
//! [`CsrSnapshot`] — canonical, self-free, sorted predecessor rows and
//! sorted source rows, laid out in evaluation order. The snapshot is the
//! *same type the sequential pass traverses*, built once on the calling
//! thread: workers never read the live graph or chase a forwarding
//! pointer, they stream flat arrays. This is also what makes the scan
//! trivially safe to share read-only across threads.
//!
//! # One set representation, two passes
//!
//! Every set is a sorted, distinct span of one shared arena, built by
//! iterated pairwise merging of its inputs — the sequential pass's
//! representation and merge primitive. [`ParLeast::run`] evaluates every
//! level; [`ParLeast::run_revalidate`] re-evaluates only the variables the
//! retained baseline cannot vouch for. Both end by relaying the sets out
//! compactly and keeping the rows and representative map as the baseline
//! the next revalidation compares against.
//!
//! # Scheduling
//!
//! One [`Pool::broadcast`] spans the whole pass; workers meet at a
//! [`Barrier`] twice per level (end of scan, end of commit). Worker results
//! travel through per-worker [`Mutex`] slots — uncontended by construction:
//! each worker locks only its own slot during the scan, and worker 0 drains
//! them during the commit while everyone else waits at the barrier. With
//! `threads == 1` the pass runs inline with no locks, no barriers, and —
//! once warm — no allocations (pinned by `bane-core`'s allocation test).


use bane_core::least::{union_runs, CsrSnapshot, LeastParts, LeastSolution, MergeScratch};
use bane_core::solver::{Form, Solver};
use bane_core::{TermId, Var};
use bane_obs::{Counter, Phase, Recorder};
use bane_util::idx::Idx;
use std::sync::{Barrier, Mutex, RwLock};

use crate::pool::{chunk_range, Pool};

/// The shared evaluation state: the arena sets are committed into, plus the
/// span of every canonical variable already evaluated.
#[derive(Clone, Debug, Default)]
struct WorkBufs {
    arena: Vec<TermId>,
    /// Indexed by raw variable index; `(0, 0)` until the variable's level
    /// commits. Collapsed variables and empty sets keep an empty span.
    spans: Vec<(u32, u32)>,
}

/// One worker's private scratch: scan output plus merge buffers.
///
/// Everything is reused across levels and across runs, so a warmed
/// single-threaded pass allocates nothing.
#[derive(Clone, Debug, Default)]
struct WorkerState {
    /// Concatenated result segments of this worker's chunk, in chunk order.
    out: Vec<TermId>,
    /// Per-chunk-item range into `out` (empty when the segment is empty).
    bounds: Vec<(u32, u32)>,
    /// Input runs (spans into the shared arena).
    runs: Vec<(u32, u32)>,
    merge: MergeScratch,
}

/// A reusable SCC-level-parallel least-solution evaluator.
///
/// Feed it [`LeastParts`] (borrowed from a solved [`Solver`]) via
/// [`run`](ParLeast::run) or [`run_revalidate`](ParLeast::run_revalidate),
/// then read the result with [`solution`](ParLeast::solution). The output
/// is byte-identical to [`Solver::least_solution`] at every thread count.
///
/// # Examples
///
/// ```
/// use bane_core::solver::{Solver, SolverConfig};
/// use bane_par::ParLeast;
///
/// let mut s = Solver::new(SolverConfig::if_online());
/// let c = s.register_nullary("c");
/// let src = s.term(c, vec![]);
/// let (x, y) = (s.fresh_var(), s.fresh_var());
/// s.add(src, x);
/// s.add(x, y);
/// s.solve();
///
/// let mut par = ParLeast::new();
/// par.run(&s.least_parts(), 4, None);
/// let ls = par.solution();
/// assert_eq!(ls, s.least_solution()); // byte-identical
/// assert_eq!(ls.get(s.find(y)), &[src]);
/// ```
#[derive(Debug, Default)]
pub struct ParLeast {
    rep: Vec<Var>,
    layout: Vec<Var>,
    levels: Vec<u32>,
    /// Per-level counters, reused as bucket-fill cursors.
    level_counts: Vec<u32>,
    /// Per-level `(start, end)` into `level_order`.
    level_ranges: Vec<(u32, u32)>,
    /// `layout` stably bucketed by level: within a level, variables keep
    /// their layout order, so concatenating worker chunks in worker order
    /// reproduces it exactly.
    level_order: Vec<Var>,
    /// The frozen, canonicalized CSR view every scan reads. Built once per
    /// run on the calling thread; workers never touch the graph or the
    /// forwarding pointers after that.
    csr: CsrSnapshot,
    work: WorkBufs,
    workers: Vec<Mutex<WorkerState>>,
    /// Relayout buffers: each pass writes its sets here in the sequential
    /// arena order, then swaps them into `work` (see
    /// [`relayout`](ParLeast::relayout)), so between passes these hold the
    /// previous working arena, kept only for its capacity.
    relayout_arena: Vec<TermId>,
    relayout_spans: Vec<(u32, u32)>,
    /// The previous run's rows, representative map, and validity — the
    /// baseline [`run_revalidate`](ParLeast::run_revalidate) compares
    /// against.
    prev_csr: CsrSnapshot,
    prev_rep: Vec<Var>,
    prev_valid: bool,
    /// Revalidation dirty flags, indexed by raw variable index.
    dirty: Vec<bool>,
    /// The dirty subset of `level_order`, same bucketing.
    dirty_order: Vec<Var>,
    /// Per-level `(start, end)` into `dirty_order`.
    dirty_ranges: Vec<(u32, u32)>,
}

/// What a [`ParLeast::run_revalidate`] pass actually did: how much of the
/// retained least solution survived the change and how localized the
/// recomputation was. `bane-serve` feeds these figures into the
/// `serve.dirty.*` / `serve.reuse.hit` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RevalidateOutcome {
    /// Condensation levels in the current schedule.
    pub total_levels: usize,
    /// Levels containing at least one dirty (re-evaluated) variable.
    pub dirty_levels: usize,
    /// Canonical variables whose set was recomputed.
    pub dirty_vars: usize,
    /// Canonical variables whose retained span was reused verbatim.
    pub reused_vars: usize,
    /// Whether a fast-apply session abandoned in-place repair and replayed
    /// the canonical sequence instead. Always `false` from
    /// [`ParLeast::run_revalidate`] itself — `bane-serve` sets it when its
    /// two-tier apply falls back (see `docs/INCREMENTAL.md`).
    pub fell_back: bool,
}

impl ParLeast {
    /// A fresh evaluator with no buffers warmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates the least solution of `parts` on `threads` workers
    /// (clamped to at least 1), reusing all internal buffers, and keeps the
    /// result as the baseline of the next
    /// [`run_revalidate`](ParLeast::run_revalidate).
    ///
    /// With a recorder, the whole pass is timed under
    /// [`Phase::ParLeast`] and the `ls.*` counters are set to match the
    /// sequential pass's accounting.
    pub fn run(&mut self, parts: &LeastParts<'_>, threads: usize, rec: Option<&Recorder>) {
        let t0 = rec.map(|_| std::time::Instant::now());
        let threads = threads.max(1);
        self.build_schedule(parts, rec);

        self.work.arena.clear();
        self.work.spans.clear();
        self.work.spans.resize(self.rep.len(), (0, 0));
        self.evaluate(parts.form, threads, false);
        self.finish(parts.form, rec, t0);
    }

    /// Builds the evaluation schedule for `parts`: representative map,
    /// layout order, frozen CSR rows, condensation levels, and the stable
    /// per-level buckets. Shared by [`run`](ParLeast::run) and
    /// [`run_revalidate`](ParLeast::run_revalidate).
    fn build_schedule(&mut self, parts: &LeastParts<'_>, rec: Option<&Recorder>) {
        parts.rep_map_into(&mut self.rep);
        parts.layout_order_into(&self.rep, &mut self.layout);
        // Freeze the canonicalized read path once, on the calling thread:
        // after this, neither the levels sweep nor any worker's scan reads
        // the graph or chases a forwarding pointer.
        let csr_t0 = rec.map(|_| std::time::Instant::now());
        self.csr.build(parts, &self.layout);
        if let (Some(rec), Some(t0)) = (rec, csr_t0) {
            rec.record_ns(Phase::CsrBuild, t0.elapsed().as_nanos() as u64);
            rec.add(Counter::CsrBuilds, 1);
        }
        let max_level = parts.levels_into(&self.csr, &self.layout, &mut self.levels);
        let nlevels = if self.layout.is_empty() { 0 } else { max_level as usize + 1 };

        // Stable counting sort of `layout` into per-level buckets.
        self.level_ranges.clear();
        self.level_counts.clear();
        self.level_counts.resize(nlevels, 0);
        for &v in &self.layout {
            self.level_counts[self.levels[v.index()] as usize] += 1;
        }
        let mut start = 0u32;
        for l in 0..nlevels {
            let count = self.level_counts[l];
            self.level_ranges.push((start, start + count));
            self.level_counts[l] = start;
            start += count;
        }
        self.level_order.clear();
        self.level_order.resize(self.layout.len(), Var::new(0));
        for &v in &self.layout {
            let cursor = &mut self.level_counts[self.levels[v.index()] as usize];
            self.level_order[*cursor as usize] = v;
            *cursor += 1;
        }
    }

    /// Scans and commits level by level on `threads` workers: every level
    /// of the schedule, or with `dirty_only` just the dirty buckets
    /// [`run_revalidate`](ParLeast::run_revalidate) selected.
    fn evaluate(&mut self, form: Form, threads: usize, dirty_only: bool) {
        while self.workers.len() < threads {
            self.workers.push(Mutex::new(WorkerState::default()));
        }
        let (order, ranges) = if dirty_only {
            (&self.dirty_order, &self.dirty_ranges)
        } else {
            (&self.level_order, &self.level_ranges)
        };
        let csr = &self.csr;
        if threads == 1 {
            // Inline fast path: no locks, no barriers, no allocation once
            // the buffers are warm.
            let st = self.workers[0].get_mut().expect("worker mutex poisoned");
            for &(ls, le) in ranges {
                let level = &order[ls as usize..le as usize];
                if level.is_empty() {
                    continue;
                }
                scan_chunk(form, csr, &self.work, level, st);
                commit_chunk(&mut self.work, level, st);
            }
            return;
        }
        let work = RwLock::new(std::mem::take(&mut self.work));
        let barrier = Barrier::new(threads);
        let workers = &self.workers;
        Pool::new(threads).broadcast(|w| {
            for &(ls, le) in ranges {
                let level = &order[ls as usize..le as usize];
                if level.is_empty() {
                    continue;
                }
                {
                    // Scan: every worker reads the frozen lower-level spans
                    // and writes only its own slot.
                    let frozen = work.read().expect("work lock poisoned");
                    let mut st = workers[w].lock().expect("worker mutex poisoned");
                    let (cs, ce) = chunk_range(level.len(), threads, w);
                    scan_chunk(form, csr, &frozen, &level[cs..ce], &mut st);
                }
                barrier.wait();
                if w == 0 {
                    // Commit: worker 0 appends every chunk in worker order,
                    // reproducing the level's layout order.
                    let mut open = work.write().expect("work lock poisoned");
                    for (ww, worker) in workers.iter().enumerate().take(threads) {
                        let st = worker.lock().expect("worker mutex poisoned");
                        let (cs, ce) = chunk_range(level.len(), threads, ww);
                        commit_chunk(&mut open, &level[cs..ce], &st);
                    }
                }
                barrier.wait();
            }
        });
        self.work = work.into_inner().expect("work lock poisoned");
    }

    /// Ends a pass: relays the sets out compactly, records this run's rows
    /// and representatives as the next revalidation baseline, and reports
    /// to `rec`.
    fn finish(&mut self, form: Form, rec: Option<&Recorder>, t0: Option<std::time::Instant>) {
        self.relayout(form);
        self.prev_csr.copy_from(&self.csr);
        self.prev_rep.clone_from(&self.rep);
        self.prev_valid = true;
        if let Some(rec) = rec {
            let set_vars = self.work.spans.iter().filter(|(s, e)| e > s).count();
            rec.set(Counter::LsSetVars, set_vars as u64);
            rec.set(Counter::LsEntries, self.work.arena.len() as u64);
            if let Some(t0) = t0 {
                rec.record_ns(Phase::ParLeast, t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Re-evaluates the least solution of `parts` against the **retained
    /// baseline** of the previous run, recomputing only variables whose
    /// result can actually have changed — the `bane-serve` re-solve kernel
    /// (docs/INCREMENTAL.md).
    ///
    /// A variable is **dirty** when the baseline cannot vouch for it: no
    /// baseline at all, not canonical in the baseline run, a source or
    /// canonical-predecessor row that differs from the baseline's, or any
    /// dirty predecessor (propagated along the condensation order). Every
    /// other variable's retained arena span is provably byte-identical to
    /// what a full pass would produce — same row, and (inductively)
    /// identical predecessor sets — so it is reused untouched. Dirty
    /// variables get a full per-level recompute. Nothing assumes the old
    /// set is a lower bound, so constraint *removal* (a replayed fresh
    /// solver) is handled by the same code path as growth.
    ///
    /// The output (via [`solution`](ParLeast::solution)) is byte-identical
    /// to a cold [`Solver::least_solution`] of the same solved system at
    /// every thread count. The returned [`RevalidateOutcome`] reports how
    /// localized the pass was; an unchanged system reports zero dirty
    /// variables and zero dirty levels.
    ///
    /// Recomputed sets are appended to the working arena, and the pass ends
    /// by relaying every set out in the sequential order and adopting that
    /// compact layout as the next baseline. So the working arena never
    /// holds more than one solution plus one pass's recomputed sets,
    /// however many passes a long-lived session runs.
    pub fn run_revalidate(
        &mut self,
        parts: &LeastParts<'_>,
        threads: usize,
        rec: Option<&Recorder>,
    ) -> RevalidateOutcome {
        let t0 = rec.map(|_| std::time::Instant::now());
        let threads = threads.max(1);
        self.build_schedule(parts, rec);

        let n = self.rep.len();
        let cold = !self.prev_valid;
        if cold {
            // No baseline to preserve: start from a compact arena.
            self.work.arena.clear();
            self.work.spans.clear();
        }
        self.work.spans.resize(n, (0, 0));

        // Dirty sweep, in layout order so predecessor flags are final
        // before their successors test them (predecessors always precede
        // their successors in the layout).
        self.dirty.clear();
        self.dirty.resize(n, false);
        let prev_rows = self.prev_csr.rows();
        let mut dirty_vars = 0usize;
        for &v in &self.layout {
            let i = v.index();
            // Standard form degenerates gracefully: its pred rows are empty
            // in both snapshots, so only the source-row compare can fire.
            let d = cold
                || i >= prev_rows
                || self.prev_rep.get(i).copied() != Some(v)
                || self.csr.srcs(v) != self.prev_csr.srcs(v)
                || self.csr.preds(v) != self.prev_csr.preds(v)
                || self.csr.preds(v).iter().any(|&u| self.dirty[u.index()]);
            if d {
                self.dirty[i] = true;
                // The old span (if any) is stale; an empty recompute must
                // not leave it behind.
                self.work.spans[i] = (0, 0);
                dirty_vars += 1;
            }
        }

        // Bucket the dirty variables by level, preserving layout order
        // within each level exactly as `level_order` does.
        self.dirty_order.clear();
        self.dirty_ranges.clear();
        let mut dirty_levels = 0usize;
        for &(ls, le) in &self.level_ranges {
            let start = self.dirty_order.len() as u32;
            for &v in &self.level_order[ls as usize..le as usize] {
                if self.dirty[v.index()] {
                    self.dirty_order.push(v);
                }
            }
            let end = self.dirty_order.len() as u32;
            self.dirty_ranges.push((start, end));
            if end > start {
                dirty_levels += 1;
            }
        }

        if dirty_vars > 0 {
            self.evaluate(parts.form, threads, true);
        }
        // Reused and recomputed spans alike move to the compact layout.
        self.finish(parts.form, rec, t0);

        RevalidateOutcome {
            total_levels: self.level_ranges.len(),
            dirty_levels,
            dirty_vars,
            reused_vars: self.layout.len() - dirty_vars,
            fell_back: false,
        }
    }

    /// Relays the working sets out in the sequential pass's exact arena
    /// order and swaps the result into `work`, so the next pass reuses
    /// compact spans and [`solution`](ParLeast::solution) reads them
    /// directly; the old working arena becomes the next relayout's buffer.
    /// Standard form commits a span for every canonical variable (empty
    /// sets get the degenerate `(k, k)`); inductive form leaves empty sets
    /// at `(0, 0)`.
    fn relayout(&mut self, form: Form) {
        self.relayout_arena.clear();
        self.relayout_spans.clear();
        self.relayout_spans.resize(self.rep.len(), (0, 0));
        for &v in &self.layout {
            let (s, e) = self.work.spans[v.index()];
            if e > s || matches!(form, Form::Standard) {
                let start = u32::try_from(self.relayout_arena.len())
                    .expect("least-solution arena overflow");
                self.relayout_arena
                    .extend_from_slice(&self.work.arena[s as usize..e as usize]);
                self.relayout_spans[v.index()] = (start, start + (e - s));
            }
        }
        std::mem::swap(&mut self.work.arena, &mut self.relayout_arena);
        std::mem::swap(&mut self.work.spans, &mut self.relayout_spans);
    }

    /// The solution computed by the last [`run`](ParLeast::run), as an owned
    /// [`LeastSolution`] (byte-identical to the sequential pass's).
    ///
    /// # Panics
    ///
    /// Panics (via the constructor's debug assertions) if called before any
    /// `run`.
    pub fn solution(&self) -> LeastSolution {
        LeastSolution::from_parts(
            self.rep.clone(),
            self.work.arena.clone(),
            self.work.spans.clone(),
        )
    }

    /// Number of condensation levels the last run evaluated.
    pub fn level_count(&self) -> usize {
        self.level_ranges.len()
    }
}

/// Evaluates `vars` (a slice of one level, in layout order) against the
/// frozen lower-level `work` state, appending each variable's full set to
/// `st.out`.
///
/// Reads only the frozen [`CsrSnapshot`] (canonical, sorted, distinct rows)
/// and the committed spans — never the live graph — so the whole scan is
/// pointer-chase-free streaming over flat arrays.
fn scan_chunk(form: Form, csr: &CsrSnapshot, work: &WorkBufs, vars: &[Var], st: &mut WorkerState) {
    let WorkerState { out, bounds, runs, merge } = st;
    out.clear();
    bounds.clear();
    for &v in vars {
        let srcs = csr.srcs(v);
        let start = out.len() as u32;
        match form {
            // Standard form's sets are exactly the frozen source rows.
            Form::Standard => out.extend_from_slice(srcs),
            Form::Inductive => {
                runs.clear();
                for &u in csr.preds(v) {
                    let span = work.spans[u.index()];
                    if span.1 > span.0 {
                        runs.push(span);
                    }
                }
                let runs: &[(u32, u32)] = runs;
                let extra = usize::from(!srcs.is_empty());
                let input = |i: usize| -> &[TermId] {
                    if i < extra {
                        srcs
                    } else {
                        let (s, e) = runs[i - extra];
                        &work.arena[s as usize..e as usize]
                    }
                };
                union_runs(runs.len() + extra, input, merge, out);
            }
        }
        bounds.push((start, out.len() as u32));
    }
}

/// Appends a worker's scanned sets for `vars` to the shared arena, in chunk
/// order. Deterministic: pure concatenation, no reordering.
fn commit_chunk(work: &mut WorkBufs, vars: &[Var], st: &WorkerState) {
    debug_assert_eq!(st.bounds.len(), vars.len());
    for (i, &v) in vars.iter().enumerate() {
        let (s, e) = st.bounds[i];
        if e > s {
            let start =
                u32::try_from(work.arena.len()).expect("least-solution arena overflow");
            work.arena.extend_from_slice(&st.out[s as usize..e as usize]);
            work.spans[v.index()] = (start, start + (e - s));
        }
    }
}

/// One-shot convenience: the least solution of a solved `solver` computed on
/// `threads` workers. Byte-identical to [`Solver::least_solution`].
pub fn least_solution(solver: &Solver, threads: usize) -> LeastSolution {
    let mut par = ParLeast::new();
    par.run(&solver.least_parts(), threads, None);
    par.solution()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bane_core::solver::SolverConfig;
    use bane_util::SplitMix64;

    fn configs() -> [SolverConfig; 4] {
        [
            SolverConfig::sf_plain(),
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ]
    }

    /// Random layered constraint systems with cycles and sources; the last
    /// `hold_back` variable-variable edges are returned unfed for
    /// incremental-growth tests.
    fn random_system(config: SolverConfig, seed: u64, hold_back: usize) -> (Solver, Vec<(Var, Var)>) {
        let mut rng = SplitMix64::new(seed);
        let mut s = Solver::new(config);
        let n = 60;
        let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
        let mut ts = Vec::new();
        for k in 0..8 {
            let c = s.register_nullary(format!("c{k}"));
            ts.push(s.term(c, vec![]));
        }
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_bool(0.05) {
                    edges.push((vs[i], vs[j]));
                }
            }
        }
        // A few back edges to form cycles.
        for _ in 0..6 {
            let a = rng.next_below(n as u64) as usize;
            let b = rng.next_below(n as u64) as usize;
            edges.push((vs[a], vs[b]));
        }
        let held = edges.split_off(edges.len().saturating_sub(hold_back));
        for &(a, b) in &edges {
            s.add(a, b);
        }
        for (k, &t) in ts.iter().enumerate() {
            s.add(t, vs[(k * 7) % n]);
        }
        s.solve();
        (s, held)
    }

    fn random_solver(config: SolverConfig, seed: u64) -> Solver {
        random_system(config, seed, 0).0
    }

    #[test]
    fn byte_identical_to_sequential_on_random_systems() {
        for config in configs() {
            for seed in 0..6u64 {
                let mut s = random_solver(config, seed);
                let seq = s.least_solution();
                for threads in [1, 2, 4, 8] {
                    let par = least_solution(&s, threads);
                    assert_eq!(par, seq, "{config:?} seed {seed} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn evaluator_is_reusable_across_runs_and_thread_counts() {
        let mut par = ParLeast::new();
        for seed in [3u64, 4] {
            let mut s = random_solver(SolverConfig::if_online(), seed);
            let seq = s.least_solution();
            for threads in [2, 1, 4] {
                par.run(&s.least_parts(), threads, None);
                assert_eq!(par.solution(), seq, "seed {seed} threads {threads}");
            }
            assert!(par.level_count() >= 1);
        }
    }

    /// Revalidation from cold, after monotone growth, and over an unchanged
    /// system — byte-identical to the sequential pass in every case, with
    /// the unchanged pass reporting zero dirty work.
    #[test]
    fn revalidate_matches_sequential_across_growth() {
        for config in configs() {
            for seed in 0..3u64 {
                for threads in [1, 2, 4, 8] {
                    let (mut s, held) = random_system(config, 0x5E5E + seed, 4);
                    let mut par = ParLeast::new();
                    let out = par.run_revalidate(&s.least_parts(), threads, None);
                    assert_eq!(par.solution(), s.least_solution(), "cold");
                    assert_eq!(out.reused_vars, 0, "cold pass reuses nothing");

                    // Unchanged system: everything reuses.
                    let out = par.run_revalidate(&s.least_parts(), threads, None);
                    assert_eq!(par.solution(), s.least_solution(), "unchanged");
                    assert_eq!(out.dirty_vars, 0, "{config:?} unchanged is all-clean");
                    assert_eq!(out.dirty_levels, 0);
                    assert_eq!(out.reused_vars, par.layout.len());

                    // Monotone growth through the same live solver.
                    for &(a, b) in &held {
                        s.add(a, b);
                    }
                    s.solve();
                    let out = par.run_revalidate(&s.least_parts(), threads, None);
                    assert_eq!(
                        par.solution(),
                        s.least_solution(),
                        "{config:?} seed {seed} threads {threads} grown"
                    );
                    assert_eq!(out.dirty_vars + out.reused_vars, par.layout.len());
                }
            }
        }
    }

    /// Non-monotone change: the baseline comes from a *larger* system and
    /// the next pass evaluates a fresh solver missing some of its edges —
    /// exactly the shape of `bane-serve`'s replay path after a removal.
    /// Reused spans must still be byte-correct.
    #[test]
    fn revalidate_survives_constraint_removal_via_fresh_solver() {
        for config in [SolverConfig::if_online(), SolverConfig::sf_online()] {
            for seed in 0..3u64 {
                for threads in [1, 4] {
                    let mut par = ParLeast::new();
                    // Baseline: the full system.
                    let (mut full, _) = random_system(config, 0xDEAD + seed, 0);
                    par.run_revalidate(&full.least_parts(), threads, None);
                    assert_eq!(par.solution(), full.least_solution(), "baseline");

                    // "Removal": rebuild from scratch, holding edges back.
                    let (mut shrunk, _held) = random_system(config, 0xDEAD + seed, 5);
                    let out = par.run_revalidate(&shrunk.least_parts(), threads, None);
                    assert_eq!(
                        par.solution(),
                        shrunk.least_solution(),
                        "{config:?} seed {seed} threads {threads} shrunk"
                    );
                    assert!(out.total_levels >= out.dirty_levels);
                }
            }
        }
    }

    /// A long-lived session alternates edits and undos forever: every pass
    /// adopts the compact relayout as its baseline, so the working arena
    /// stops growing after the first edit/undo pair.
    #[test]
    fn alternating_revalidate_passes_keep_the_arena_compact() {
        let config = SolverConfig::if_online();
        let (mut shrunk, _) = random_system(config, 0xA7E7, 5);
        let (mut full, _) = random_system(config, 0xA7E7, 0);
        let mut par = ParLeast::new();
        let mut after_second = 0;
        for pass in 1..=50 {
            let s = if pass % 2 == 0 { &mut full } else { &mut shrunk };
            let out = par.run_revalidate(&s.least_parts(), 1, None);
            assert_eq!(par.solution(), s.least_solution(), "pass {pass}");
            if pass == 2 {
                assert!(out.dirty_vars > 0, "the edit must recompute something");
                after_second = par.work.arena.len();
            } else if pass > 2 {
                assert!(
                    par.work.arena.len() <= after_second,
                    "pass {pass}: working arena grew to {} from {after_second}",
                    par.work.arena.len()
                );
            }
        }
    }

    /// A localized edit must not dirty the whole schedule: grow one held-back
    /// edge deep in a long chain and check that clean levels survive.
    #[test]
    fn revalidate_localizes_dirty_levels_on_chain_edit() {
        let mut s = Solver::new(SolverConfig::if_online());
        let c = s.register_nullary("c");
        let t = s.term(c, vec![]);
        let d = s.register_nullary("d");
        let td = s.term(d, vec![]);
        // Two independent chains; the edit touches only the second.
        let chain_a: Vec<Var> = (0..20).map(|_| s.fresh_var()).collect();
        let chain_b: Vec<Var> = (0..20).map(|_| s.fresh_var()).collect();
        for w in chain_a.windows(2) {
            s.add(w[0], w[1]);
        }
        for w in chain_b.windows(2) {
            s.add(w[0], w[1]);
        }
        s.add(t, chain_a[0]);
        s.add(t, chain_b[0]);
        s.solve();
        let mut par = ParLeast::new();
        par.run_revalidate(&s.least_parts(), 2, None);
        assert_eq!(par.solution(), s.least_solution());

        // Edit: a new source lands mid-way down chain B.
        s.add(td, chain_b[10]);
        s.solve();
        let out = par.run_revalidate(&s.least_parts(), 2, None);
        assert_eq!(par.solution(), s.least_solution(), "post-edit bytes");
        assert!(
            out.dirty_levels < out.total_levels,
            "edit at level 10 must leave lower levels clean: {out:?}"
        );
        assert!(out.reused_vars > out.dirty_vars, "most of the system is clean: {out:?}");
    }

    /// A full `run` leaves a baseline that `run_revalidate` accepts, and a
    /// revalidation leaves one a later full `run` can follow.
    #[test]
    fn revalidate_accepts_a_run_baseline() {
        let (mut s, held) = random_system(SolverConfig::if_online(), 0x1A7E, 6);
        let mut par = ParLeast::new();
        par.run(&s.least_parts(), 2, None);
        assert_eq!(par.solution(), s.least_solution());
        for &(a, b) in &held[..3] {
            s.add(a, b);
        }
        s.solve();
        let out = par.run_revalidate(&s.least_parts(), 2, None);
        assert_eq!(par.solution(), s.least_solution(), "revalidate after a run baseline");
        assert_eq!(out.dirty_vars + out.reused_vars, par.layout.len());
        assert!(out.reused_vars > 0, "the run baseline must be reused: {out:?}");
        for &(a, b) in &held[3..] {
            s.add(a, b);
        }
        s.solve();
        par.run(&s.least_parts(), 2, None);
        assert_eq!(par.solution(), s.least_solution(), "run after a revalidate baseline");
    }

    #[test]
    fn empty_system_yields_empty_solution() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.solve();
        let par = least_solution(&s, 4);
        assert_eq!(par, s.least_solution());
        assert!(par.is_empty());
    }

    #[test]
    fn records_observability_counters() {
        let mut s = random_solver(SolverConfig::if_online(), 1);
        let seq = s.least_solution();
        let rec = Recorder::new();
        let mut par = ParLeast::new();
        par.run(&s.least_parts(), 2, Some(&rec));
        assert_eq!(par.solution(), seq);
        assert_eq!(rec.get(Counter::LsEntries), seq.total_entries() as u64);
        let report = rec.report("par-least");
        assert!(report.phases.iter().any(|p| p.phase == Phase::ParLeast.name()));
    }
}
