//! C nested one level short of the parser's bound
//! ([`MAX_NESTING`](bane_cfront::parse::MAX_NESTING)) parses and runs
//! through constraint generation on a 2 MiB thread, the default size of a
//! spawned thread.

use bane_cfront::parse::{parse, MAX_NESTING};
use bane_core::prelude::*;
use bane_points_to::andersen;

#[test]
fn nesting_just_below_the_parser_bound_generates_constraints() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let n = MAX_NESTING - 1;
            let body = |ret: String| {
                format!(
                    "int *f(int *q) {{ return q; }}\n\
                     int main(void) {{ int a; int *p; p = &a; {ret} return 0; }}\n"
                )
            };
            let sources = [
                ("parens", body(format!("p = {}p{};", "(".repeat(n - 1), ")".repeat(n - 1)))),
                ("calls", body(format!("p = {}p{};", "f(".repeat(n - 1), ")".repeat(n - 1)))),
                ("braces", body(format!("{}p;{}", "{".repeat(n), "}".repeat(n)))),
            ];
            for (name, source) in sources {
                let program = parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
                let mut problem = Problem::new(SolverConfig::if_online());
                let (_, stats) = andersen::generate(&program, &mut problem);
                assert!(stats.constraints > 0, "{name}: no constraints");
                let mut solver = Solver::from_problem(problem);
                solver.solve();
                assert!(!solver.least_solution().is_empty(), "{name}");
            }
        })
        .expect("spawn test thread")
        .join()
        .expect("parse and generate must not crash");
}
