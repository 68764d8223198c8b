//! The incremental-equivalence property: a [`Session`] driven step-by-step
//! through a random edit history produces, after **every** step, the same
//! per-variable solution sets as a from-scratch solve of that step's live
//! constraint system — and after every *non-monotone* step, byte-identical
//! observables (statistics, census, least-solution buffers), because the
//! session replays the identical canonical sequence.
//!
//! The matrix covers worker counts 1/2/4/8 — none of which may change a
//! single observable.

use bane_core::prelude::*;
use bane_serve::{Delta, GroupId, SessionBuilder};
use bane_synth::delta::{
    generate_delta_script, DeltaScript, DeltaScriptConfig, DeltaStep, ScriptBindings,
};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Drives `script` through a session step by step, checking each state
/// against a from-scratch reference.
fn check_script(script: &DeltaScript, threads: usize) {
    let config = SolverConfig::if_online();
    let mut session = SessionBuilder::new().config(config).threads(threads).build();
    let mut bind = ScriptBindings::bind(&mut session, script);

    // The reference keeps only registration state + the live group list;
    // each step re-solves it from scratch.
    let mut ref_problem = Problem::new(config);
    let mut ref_bind = ScriptBindings::bind(&mut ref_problem, script);
    let mut ref_groups: Vec<Option<Vec<(SetExpr, SetExpr)>>> = Vec::new();
    let mut slot_map: Vec<GroupId> = Vec::new();

    for (i, step) in script.steps.iter().enumerate() {
        let mut delta = Delta::new();
        let mut nonmonotone = false;
        match step {
            DeltaStep::GrowVars(n) => {
                delta.add_vars(*n);
                // Session variables are created when the delta applies, but
                // their ids are sequential, so the bindings extend eagerly.
                let base = bind.vars.len();
                bind.vars.extend((0..*n as usize).map(|k| Var::new(base + k)));
                ref_bind.grow(&mut ref_problem, *n);
            }
            DeltaStep::AddGroup(cs) => {
                delta.add_group(bind.constraints(cs));
                ref_groups.push(Some(ref_bind.constraints(cs)));
            }
            DeltaStep::EditGroup { slot, constraints } => {
                delta.edit_group(slot_map[*slot], bind.constraints(constraints));
                ref_groups[*slot] = Some(ref_bind.constraints(constraints));
                nonmonotone = true;
            }
            DeltaStep::RemoveGroup { slot } => {
                delta.remove_group(slot_map[*slot]);
                ref_groups[*slot] = None;
                nonmonotone = true;
            }
        }
        let report = session.apply(delta);
        assert_eq!(report.monotone, !nonmonotone, "step {i}: path classification");
        if let DeltaStep::AddGroup(_) = step {
            assert_eq!(report.new_groups.len(), 1);
            slot_map.push(report.new_groups[0]);
        }
        assert!(
            report.outcome.dirty_levels <= report.outcome.total_levels,
            "step {i}: dirty levels within bounds"
        );

        let mut p = ref_problem.clone();
        for group in ref_groups.iter().flatten() {
            for &(l, r) in group {
                p.add(l, r);
            }
        }
        let mut reference = Solver::from_problem(p);
        reference.solve();
        let ref_ls = reference.least_solution();

        for &v in &bind.vars {
            let rv = reference.find(v);
            assert_eq!(
                session.points_to(v),
                ref_ls.get(rv),
                "step {i} ({threads} threads): set of {v:?} diverged"
            );
        }

        if nonmonotone {
            // Canonical replay: full observable parity, down to the bytes.
            assert_eq!(session.stats(), reference.stats(), "step {i}: stats parity");
            assert_eq!(session.census(), reference.census(), "step {i}: census parity");
            assert_eq!(session.least_solution(), &ref_ls, "step {i}: least-solution bytes");
            assert_eq!(
                session.inconsistencies(),
                reference.inconsistencies(),
                "step {i}: inconsistency parity"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scripts, every thread count.
    #[test]
    fn incremental_equals_from_scratch(seed in 0u64..1_000_000, steps in 6usize..24) {
        let script = generate_delta_script(&DeltaScriptConfig::sized(steps, seed));
        script.validate().expect("generated script validates");
        for threads in THREADS {
            check_script(&script, threads);
        }
    }
}

/// A fixed long adversarial script, pinned outside proptest so it always
/// runs (and exercises every step kind — the generator's distribution
/// guarantees non-monotone steps at this length).
#[test]
fn long_mixed_script() {
    let script = generate_delta_script(&DeltaScriptConfig::sized(60, 0xba7e));
    script.validate().expect("script validates");
    assert!(script.has_nonmonotone(), "long script must exercise replay");
    check_script(&script, 4);
}
