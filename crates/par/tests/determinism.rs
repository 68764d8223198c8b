//! `ParLeast`'s central contract on a real front-end workload: the
//! parallel least solution is byte-identical to the sequential pass at every
//! thread count, and the CSR snapshot it traverses agrees entry for entry
//! with the adjacency lists it was frozen from.
//!
//! The workload is the paper-suite `povray-2.2` stand-in program through the
//! real Andersen front end, so it has collapses, stale entries and promoted
//! adjacency lists.

use bane_core::prelude::*;
use bane_par::{least_solution, ParLeast};
use bane_points_to::andersen;
use bane_synth::suite::{suite_program, PAPER_SUITE};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The paper-suite stand-in: `povray-2.2` scaled down to test size, through
/// the real Andersen C front end.
fn povray_solver() -> Solver {
    let entry = PAPER_SUITE
        .iter()
        .find(|e| e.name == "povray-2.2")
        .expect("povray-2.2 in the paper suite");
    let program = suite_program(entry, 0.04);
    let mut solver = Solver::new(SolverConfig::if_online());
    let (_locs, gen) = andersen::generate(&program, &mut solver);
    assert!(gen.constraints > 500, "stand-in should be non-trivial");
    solver
}

/// The CSR snapshot the least-solution kernel traverses must agree
/// entry-for-entry with a direct canonicalizing walk of the adjacency
/// lists on the paper-suite stand-in (a real front-end workload with
/// collapses, stale entries, and promoted adjacency lists).
#[test]
fn csr_snapshot_matches_adjacency_on_povray_standin() {
    use bane_core::least::CsrSnapshot;
    let mut solver = povray_solver();
    solver.solve();
    let parts = solver.least_parts();
    let (mut rep, mut layout) = (Vec::new(), Vec::new());
    parts.rep_map_into(&mut rep);
    parts.layout_order_into(&rep, &mut layout);
    let mut csr = CsrSnapshot::new();
    csr.build(&parts, &layout);
    assert!(csr.src_entries() > 0, "stand-in has sources");
    let mut pred_total = 0;
    for &v in &layout {
        let node = parts.graph.node(v);
        let mut srcs: Vec<TermId> = node.pred_srcs().to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(csr.srcs(v), srcs.as_slice(), "src row of {v:?}");
        let mut preds: Vec<Var> = node
            .pred_vars()
            .iter()
            .map(|&raw| parts.fwd.find_const(raw))
            .filter(|&u| u != v)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        assert_eq!(csr.preds(v), preds.as_slice(), "pred row of {v:?}");
        pred_total += preds.len();
    }
    assert_eq!(csr.pred_entries(), pred_total);
    assert!(pred_total > 0, "stand-in has canonical pred edges");
}

#[test]
fn parallel_least_solution_is_byte_identical_on_povray_standin() {
    let mut solver = povray_solver();
    solver.solve();
    let seq = solver.least_solution();
    let mut par = ParLeast::new();
    for &threads in &THREADS {
        par.run(&solver.least_parts(), threads, None);
        assert_eq!(
            par.solution(),
            seq,
            "povray stand-in: {threads}-thread least solution not byte-identical"
        );
        assert_eq!(least_solution(&solver, threads), seq);
    }
}
