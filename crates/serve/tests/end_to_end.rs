//! The headline incremental scenario, end to end: analyze a suite program,
//! re-parse **one function** (edit one constraint group), and check that
//! the session
//!
//! 1. re-solves only the affected SCC condensation levels — pinned via the
//!    `serve.dirty.levels` gauge staying strictly below the total level
//!    count — and
//! 2. lands on *byte-identical* observables (least solution, work
//!    counters, census) to a from-scratch solve of the edited system.

use bane_core::prelude::*;
use bane_obs::Counter;
use bane_points_to::andersen;
use bane_serve::{Delta, GroupId, SessionBuilder};
use bane_synth::{suite_program, PAPER_SUITE};

/// Groups the suite program's constraints into this many "functions".
const GROUPS: usize = 16;

/// Builds the Andersen constraint system of the smallest suite program as
/// a `Problem`.
fn suite_problem() -> Problem {
    let entry = PAPER_SUITE
        .iter()
        .min_by_key(|e| e.ast_nodes)
        .expect("suite is non-empty");
    let program = suite_program(entry, 0.2);
    let mut problem = Problem::new(SolverConfig::if_online());
    andersen::generate(&program, &mut problem);
    problem
}

#[test]
fn one_function_edit_is_level_local_and_byte_identical() {
    let problem = suite_problem();
    let total_constraints = problem.constraints().len();
    assert!(total_constraints > GROUPS, "system large enough to group");
    let reference_problem = problem.clone();

    let mut session = SessionBuilder::new().obs(true).build_grouped(problem, GROUPS);
    assert_eq!(session.group_slots(), GROUPS);

    // "Re-parse" one mid-program function: drop the group's last
    // constraint, keep the rest — a minimal, local source change.
    let g = GroupId::new(GROUPS as u32 / 2);
    let original = session.group(g).expect("group is live").to_vec();
    assert!(original.len() > 1, "edited group has content");
    let edited = original[..original.len() - 1].to_vec();

    let mut delta = Delta::new();
    delta.edit_group(g, edited.clone());
    let report = session.apply(delta);
    assert!(!report.monotone, "an edit must replay");

    // (1) Localization: only the affected condensation levels re-ran.
    let outcome = report.outcome;
    assert!(outcome.total_levels > 1, "suite system has depth");
    assert!(
        outcome.dirty_levels < outcome.total_levels,
        "edit dirtied {}/{} levels — not level-local",
        outcome.dirty_levels,
        outcome.total_levels
    );
    assert!(
        outcome.reused_vars > 0,
        "revalidation reused nothing"
    );
    let rec = session.recorder().expect("obs enabled");
    assert_eq!(rec.get(Counter::ServeDirtyLevels), outcome.dirty_levels as u64);
    assert_eq!(rec.get(Counter::ServeDirtyVars), outcome.dirty_vars as u64);
    assert_eq!(rec.get(Counter::ServeDeltaReplayed), 1);

    // (2) Byte identity against a from-scratch solve of the edited
    // canonical sequence.
    let mut ref_problem = reference_problem;
    let mut constraints = ref_problem.split_off_constraints(0);
    let per = total_constraints.div_ceil(GROUPS);
    let start = g.index() * per;
    let end = (start + per).min(constraints.len());
    assert_eq!(&constraints[start..end], &original[..], "group slicing agrees");
    constraints.splice(start..end, edited);
    for (l, r) in constraints {
        ref_problem.add(l, r);
    }
    let mut reference = Solver::from_problem(ref_problem);
    reference.solve();

    assert_eq!(session.stats(), reference.stats(), "work-counter parity");
    assert_eq!(session.census(), reference.census(), "census parity");
    assert_eq!(
        session.least_solution(),
        &reference.least_solution(),
        "least-solution bytes"
    );
}

#[test]
fn monotone_growth_after_initial_solve_is_level_local() {
    let problem = suite_problem();
    let mut session = SessionBuilder::new().obs(true).build_grouped(problem, GROUPS);

    // Append a small new "function": fresh variables fed from an existing
    // group's first constraint endpoint.
    let seed = session.group(GroupId::new(0)).expect("live group")[0].0;
    let mut delta = Delta::new();
    let base = session.solver().vars_created() as usize;
    delta.add_vars(2);
    let (x, y) = (Var::new(base), Var::new(base + 1));
    delta.add_group(vec![(seed, x.into()), (x.into(), y.into())]);
    let report = session.apply(delta);

    assert!(report.monotone, "pure additions stay on the live path");
    assert!(
        report.outcome.dirty_levels < report.outcome.total_levels,
        "monotone growth dirtied {}/{} levels",
        report.outcome.dirty_levels,
        report.outcome.total_levels
    );
    assert!(report.outcome.reused_vars > report.outcome.dirty_vars);
    let rec = session.recorder().expect("obs enabled");
    assert_eq!(rec.get(Counter::ServeDeltaMonotone), 1);
    assert!(rec.get(Counter::ServeReuseHit) > 0);
}
