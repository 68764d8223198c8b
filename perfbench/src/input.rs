//! Seeded inputs: suite programs, their Andersen constraint systems, and
//! query batches.

use bane_core::prelude::*;
use bane_util::rng::SplitMix64;

/// The suite entry named `name`.
pub fn entry(name: &str) -> &'static bane_synth::SuiteEntry {
    bane_synth::PAPER_SUITE
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is not a suite program"))
}

/// The suite program `name` at `scale`.
pub fn program(name: &str, scale: f64) -> bane_cfront::Program {
    bane_synth::suite_program(entry(name), scale)
}

/// The IF-Online Andersen constraint system of `program`, recorded, and
/// the contents variable of every abstract location: the variables a
/// points-to client asks about.
pub fn andersen_problem(program: &bane_cfront::Program) -> (Problem, Vec<Var>) {
    let mut problem = Problem::new(SolverConfig::if_online());
    let (locs, _) = bane_points_to::andersen::generate(program, &mut problem);
    let domain = locs.iter().map(|(_, loc)| loc.content).collect();
    (problem, domain)
}

/// One read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// The points-to set of a variable.
    PointsTo(Var),
    /// Whether two variables may alias.
    Alias(Var, Var),
}

impl Query {
    /// A seeded read over `domain`: three points-to reads to one alias read.
    pub fn draw(rng: &mut SplitMix64, domain: &[Var]) -> Query {
        let alias = rng.next_below(4) == 0;
        let mut pick = || domain[rng.next_below(domain.len() as u64) as usize];
        if alias {
            let a = pick();
            Query::Alias(a, pick())
        } else {
            Query::PointsTo(pick())
        }
    }

    /// The wire text of the read.
    pub fn text(self) -> String {
        match self {
            Query::PointsTo(v) => format!("points-to v{}", v.raw()),
            Query::Alias(a, b) => format!("alias v{} v{}", a.raw(), b.raw()),
        }
    }
}

/// A seeded batch of `n` reads over `domain`.
pub fn batch(rng: &mut SplitMix64, domain: &[Var], n: usize) -> Vec<Query> {
    (0..n).map(|_| Query::draw(rng, domain)).collect()
}

/// The wire text of a set expression.
pub fn expr_text(e: SetExpr) -> String {
    match e {
        SetExpr::Var(v) => format!("v{}", v.raw()),
        SetExpr::Term(t) => format!("t{}", t.raw()),
        SetExpr::One => "one".to_string(),
        SetExpr::Zero => "zero".to_string(),
    }
}

/// The wire text of a constraint list, skipping position `skip`.
pub fn constraints_text(cs: &[(SetExpr, SetExpr)], skip: Option<usize>) -> String {
    cs.iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != skip)
        .map(|(_, &(l, r))| format!("{} <= {}", expr_text(l), expr_text(r)))
        .collect::<Vec<_>>()
        .join("; ")
}
