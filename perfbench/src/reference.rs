//! The independent reference behind `failed` (the error count): a naive
//! worklist closure over a recorded constraint list.
//!
//! It applies the resolution rules of the paper's Figure 1 in standard
//! form, with no cycle elimination and no variable order: a source term
//! reaching `X` flows along every `X ⊆ Y` edge and meets every sink term of
//! `X`, and a term-term constraint decomposes by constructor variance. It
//! reads the constraint system (constructor variances, term arguments,
//! constraints) and shares no code with `bane-core`'s solver, so an answer
//! both agree on was computed twice, two different ways.

use std::collections::HashSet;

use bane_core::prelude::*;
use bane_util::idx::Idx;

/// The registration side of a constraint system: what every closure over
/// one of its constraint lists needs.
pub struct Universe {
    vars: usize,
    terms: usize,
    one: u32,
    zero: u32,
    /// Constructor of each term.
    term_con: Vec<u32>,
    /// Arguments of each term.
    term_args: Vec<Vec<SetExpr>>,
    /// Argument variances of each constructor.
    variances: Vec<Vec<Variance>>,
}

impl Universe {
    /// The universe of `problem` and its constraint list.
    pub fn of(problem: &Problem) -> (Universe, Vec<(SetExpr, SetExpr)>) {
        let (one, zero) = (problem.one_term().raw(), problem.zero_term().raw());
        let (_, cons, arena, vars, constraints) = problem.clone().into_parts();
        let variances = cons
            .iter()
            .map(|(_, sig)| sig.variances().to_vec())
            .collect();
        let (mut term_con, mut term_args) = (Vec::new(), Vec::new());
        for t in arena.ids() {
            let data = arena.data(t);
            term_con.push(data.con().raw());
            term_args.push(data.args().to_vec());
        }
        let universe = Universe {
            vars: vars as usize,
            terms: term_con.len(),
            one,
            zero,
            term_con,
            term_args,
            variances,
        };
        (universe, constraints)
    }
}

/// The least solution the reference computed: one bit row of source terms
/// per variable.
pub struct Solution {
    words: usize,
    rows: Vec<u64>,
}

impl Solution {
    fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..(v + 1) * self.words]
    }

    /// The sorted source terms of `v`.
    pub fn points_to(&self, v: Var) -> Vec<u32> {
        let mut out = Vec::new();
        for (w, &bits) in self.row(v.index()).iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                out.push((w * 64) as u32 + b.trailing_zeros());
                b &= b - 1;
            }
        }
        out
    }

    /// Whether the solutions of `a` and `b` share a term.
    pub fn alias(&self, a: Var, b: Var) -> bool {
        self.row(a.index())
            .iter()
            .zip(self.row(b.index()))
            .any(|(x, y)| x & y != 0)
    }
}

/// Closes `constraints` over `u` and returns the least solution.
pub fn close(u: &Universe, constraints: &[(SetExpr, SetExpr)]) -> Solution {
    let words = u.terms.div_ceil(64).max(1);
    let mut rows = vec![0u64; u.vars * words];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); u.vars];
    let mut sinks: Vec<Vec<u32>> = vec![Vec::new(); u.vars];
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    let mut sink_edges: HashSet<(u32, u32)> = HashSet::new();
    let mut work: Vec<(SetExpr, SetExpr)> = constraints.to_vec();
    let sources_of = |rows: &[u64], x: usize| -> Vec<u32> {
        let mut out = Vec::new();
        for (w, &bits) in rows[x * words..(x + 1) * words].iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                out.push((w * 64) as u32 + b.trailing_zeros());
                b &= b - 1;
            }
        }
        out
    };
    while let Some((lhs, rhs)) = work.pop() {
        // 0 ⊆ R and L ⊆ 1 hold trivially; a remaining 1 on the left or 0
        // on the right stands for the builtin nullary term.
        let lhs = match lhs {
            SetExpr::Zero => continue,
            SetExpr::One => SetExpr::Term(TermId::new(u.one as usize)),
            e => e,
        };
        let rhs = match rhs {
            SetExpr::One => continue,
            SetExpr::Zero => SetExpr::Term(TermId::new(u.zero as usize)),
            e => e,
        };
        match (lhs, rhs) {
            (SetExpr::Var(x), SetExpr::Var(y)) => {
                if x != y && edges.insert((x.raw(), y.raw())) {
                    succ[x.index()].push(y.raw());
                    for s in sources_of(&rows, x.index()) {
                        work.push((SetExpr::Term(TermId::new(s as usize)), rhs));
                    }
                }
            }
            (SetExpr::Var(x), SetExpr::Term(t)) => {
                if sink_edges.insert((x.raw(), t.raw())) {
                    sinks[x.index()].push(t.raw());
                    for s in sources_of(&rows, x.index()) {
                        work.push((SetExpr::Term(TermId::new(s as usize)), rhs));
                    }
                }
            }
            (SetExpr::Term(s), SetExpr::Var(y)) => {
                let (w, bit) = (y.index() * words + s.index() / 64, 1u64 << (s.index() % 64));
                if rows[w] & bit == 0 {
                    rows[w] |= bit;
                    for &z in &succ[y.index()] {
                        work.push((lhs, SetExpr::Var(Var::new(z as usize))));
                    }
                    for &t in &sinks[y.index()] {
                        work.push((lhs, SetExpr::Term(TermId::new(t as usize))));
                    }
                }
            }
            (SetExpr::Term(s), SetExpr::Term(t)) => {
                let (s, t) = (s.raw(), t.raw());
                // Equal terms, 0 ⊆ t and s ⊆ 1 hold; 1 ⊆ t, s ⊆ 0 and a
                // constructor mismatch are inconsistencies, which add no
                // source to any variable.
                if s == t || s == u.zero || t == u.one || s == u.one || t == u.zero {
                    continue;
                }
                let con = u.term_con[s as usize];
                if con != u.term_con[t as usize] {
                    continue;
                }
                let (a, b) = (&u.term_args[s as usize], &u.term_args[t as usize]);
                for (i, variance) in u.variances[con as usize].iter().enumerate() {
                    match variance {
                        Variance::Covariant => work.push((a[i], b[i])),
                        Variance::Contravariant => work.push((b[i], a[i])),
                    }
                }
            }
            _ => unreachable!("0 and 1 were rewritten above"),
        }
    }
    Solution { words, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closes_a_cycle_and_decomposes_terms() {
        let mut p = Problem::new(SolverConfig::if_online());
        let c = p.register_nullary("c");
        let src = p.term(c, vec![]);
        let (x, y, z) = (p.fresh_var(), p.fresh_var(), p.fresh_var());
        let r = p.register_con("r", vec![Variance::Covariant, Variance::Contravariant]);
        let rxy = p.term(r, vec![x.into(), y.into()]);
        let rzz = p.term(r, vec![z.into(), z.into()]);
        p.add(src, x);
        p.add(x, y);
        p.add(y, x);
        // r(x, y) ⊆ r(z, z): x ⊆ z and z ⊆ y.
        p.add(rxy, rzz);
        let (u, cs) = Universe::of(&p);
        let sol = close(&u, &cs);
        for v in [x, y, z] {
            assert_eq!(sol.points_to(v), vec![src.raw()]);
        }
        assert!(sol.alias(x, z));
    }
}
