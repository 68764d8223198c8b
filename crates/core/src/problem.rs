//! Solver-independent constraint construction: the [`ConstraintBuilder`]
//! trait and the standalone [`Problem`] store.
//!
//! Constraint *generators* (the Andersen and CFA front ends, the synthetic
//! test systems) are written once against the builder trait and run against
//! a live solver, a serving fleet, or no solver at all:
//!
//! - [`ConstraintBuilder`] is the shared construction API, implemented by
//!   [`Solver`](crate::solver::Solver), by `bane-serve`'s `Session` and
//!   `ShardManager`, and by [`Problem`];
//! - [`Problem`] is a pure *recording* of one construction sequence —
//!   constructors, interned terms, a variable-creation count, and the
//!   constraint list — with no graph attached. Build it once, then replay it
//!   with [`Solver::from_problem`](crate::solver::Solver::from_problem)
//!   (cloning first to feed several solvers the identical system).
//!
//! A `Problem` registers the builtin `1`/`0` constructors exactly the way
//! [`Solver::new`](crate::solver::Solver::new) does, so every identifier a
//! generator observes (`Con`, `TermId`, `Var`) is numerically identical to
//! what the same calls against a live solver would have produced — which is
//! what lets one recording replay into plain *and* oracle-partitioned
//! solvers without disturbing the oracle's creation-index bookkeeping.
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//!
//! let mut p = Problem::new(SolverConfig::if_online());
//! let c = p.register_nullary("c");
//! let src = p.term(c, vec![]);
//! let (x, y) = (p.fresh_var(), p.fresh_var());
//! p.add(src, x);
//! p.add(x, y);
//!
//! // The recording replays into a solver.
//! let mut solver = Solver::from_problem(p);
//! solver.solve();
//! let y = solver.find(y);
//! assert_eq!(solver.least_solution().get(y), &[src]);
//! ```

use crate::cons::{Con, ConRegistry, Variance};
use crate::expr::{SetExpr, TermArena, TermId, Var};
use crate::solver::SolverConfig;

/// The shared constraint-construction surface.
///
/// Implemented by the [`Solver`](crate::solver::Solver), by `bane-serve`'s
/// `Session` and `ShardManager`, and by the solver-free [`Problem`]
/// recording. Generators written against this trait (for example
/// `bane_points_to::andersen::generate`) run unchanged on all of them.
pub trait ConstraintBuilder {
    /// Registers a constructor with explicit argument variances.
    fn register_con(&mut self, name: impl Into<String>, variances: Vec<Variance>) -> Con;

    /// Registers a nullary (constant) constructor.
    fn register_nullary(&mut self, name: impl Into<String>) -> Con;

    /// Interns the term `con(args…)`.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the constructor's arity.
    fn term(&mut self, con: Con, args: Vec<SetExpr>) -> TermId;

    /// Creates a fresh set variable.
    ///
    /// Implementations may return an existing variable (the oracle-mode
    /// solver aliases creations to their partition witness); generators must
    /// only rely on the value being *a* valid variable for this builder.
    fn fresh_var(&mut self) -> Var;

    /// Adds the constraint `lhs ⊆ rhs`.
    fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>);
}

/// A recorded constraint system: everything a generator produced, nothing an
/// solver decided. See the [module docs](self) for the full story.
#[derive(Clone, Debug)]
pub struct Problem {
    config: SolverConfig,
    cons: ConRegistry,
    terms: TermArena,
    vars: u32,
    constraints: Vec<(SetExpr, SetExpr)>,
    one_term: TermId,
    zero_term: TermId,
}

impl Problem {
    /// An empty problem under `config`.
    ///
    /// The builtin `1` and `0` constructors are pre-registered in the same
    /// order as [`Solver::new`](crate::solver::Solver::new), keeping every
    /// subsequently issued identifier numerically solver-compatible.
    pub fn new(config: SolverConfig) -> Self {
        let mut cons = ConRegistry::new();
        let mut terms = TermArena::new();
        let one_con = cons.register_nullary("1");
        let zero_con = cons.register_nullary("0");
        let one_term = terms.intern(&cons, one_con, Vec::new());
        let zero_term = terms.intern(&cons, zero_con, Vec::new());
        Problem {
            config,
            cons,
            terms,
            vars: 0,
            constraints: Vec::new(),
            one_term,
            zero_term,
        }
    }

    /// The configuration the problem was built for (a solver constructed via
    /// [`Solver::from_problem`](crate::solver::Solver::from_problem) runs
    /// under it).
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Number of variables created so far.
    pub fn vars(&self) -> u32 {
        self.vars
    }

    /// The recorded constraints, in insertion order.
    pub fn constraints(&self) -> &[(SetExpr, SetExpr)] {
        &self.constraints
    }

    /// The interned builtin `1` term.
    pub fn one_term(&self) -> TermId {
        self.one_term
    }

    /// The interned builtin `0` term.
    pub fn zero_term(&self) -> TermId {
        self.zero_term
    }

    /// Splits off and returns the constraints from `at` onward, keeping the
    /// prefix recorded.
    ///
    /// `bane-serve` sessions take the whole list (`at == 0`) to regroup a
    /// recorded problem into constraint groups, and the incremental bench
    /// does the same to rebuild its from-scratch reference.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.constraints().len()`.
    pub fn split_off_constraints(&mut self, at: usize) -> Vec<(SetExpr, SetExpr)> {
        self.constraints.split_off(at)
    }

    /// Decomposes the recording for a solver to adopt: configuration,
    /// constructor registry, term arena, variable count, and constraints.
    ///
    /// [`Solver::from_problem`](crate::solver::Solver::from_problem) replays
    /// `vars` fresh-variable creations and then feeds the constraints
    /// through its own `add`, so solver-side bookkeeping (order assignment,
    /// oracle aliasing, `constraints_added`) happens exactly as if the
    /// generator had targeted the solver directly.
    pub fn into_parts(self) -> (SolverConfig, ConRegistry, TermArena, u32, Vec<(SetExpr, SetExpr)>) {
        (self.config, self.cons, self.terms, self.vars, self.constraints)
    }
}

impl ConstraintBuilder for Problem {
    fn register_con(&mut self, name: impl Into<String>, variances: Vec<Variance>) -> Con {
        self.cons.register(name, variances)
    }

    fn register_nullary(&mut self, name: impl Into<String>) -> Con {
        self.cons.register_nullary(name)
    }

    fn term(&mut self, con: Con, args: Vec<SetExpr>) -> TermId {
        self.terms.intern(&self.cons, con, args)
    }

    fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.vars as usize);
        self.vars += 1;
        v
    }

    fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>) {
        self.constraints.push((lhs.into(), rhs.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;

    fn record() -> (Problem, Var, TermId) {
        let mut p = Problem::new(SolverConfig::if_online());
        let c = p.register_nullary("c");
        let src = p.term(c, vec![]);
        let (x, y) = (p.fresh_var(), p.fresh_var());
        p.add(src, x);
        p.add(x, y);
        (p, y, src)
    }

    #[test]
    fn ids_match_a_live_solver() {
        let (p, y, src) = record();
        let mut s = Solver::new(SolverConfig::if_online());
        let c = ConstraintBuilder::register_nullary(&mut s, "c".to_string());
        let src2 = ConstraintBuilder::term(&mut s, c, vec![]);
        let _x = ConstraintBuilder::fresh_var(&mut s);
        let y2 = ConstraintBuilder::fresh_var(&mut s);
        assert_eq!(src, src2);
        assert_eq!(y, y2);
        assert_eq!(p.one_term(), s.one_term());
        assert_eq!(p.zero_term(), s.zero_term());
        assert_eq!(p.vars(), 2);
        assert_eq!(p.constraints().len(), 2);
    }

    #[test]
    fn replays_into_a_solver() {
        let (p, y, src) = record();
        let mut s = Solver::from_problem(p);
        assert_eq!(s.stats().constraints_added, 2);
        s.solve();
        let y = s.find(y);
        assert_eq!(s.least_solution().get(y), &[src]);
    }

    #[test]
    fn clone_feeds_multiple_engines_identically() {
        let (p, y, src) = record();
        let mut a = Solver::from_problem(p.clone());
        let mut b = Solver::from_problem(p);
        a.solve();
        b.solve();
        assert_eq!(a.stats(), b.stats());
        let (ya, yb) = (a.find(y), b.find(y));
        assert_eq!(a.least_solution().get(ya), &[src]);
        assert_eq!(b.least_solution().get(yb), &[src]);
    }
}
