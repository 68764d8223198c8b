//! Deterministic parallel least-solution evaluation for the bane constraint
//! solver.
//!
//! The paper's closure is sequential and stays sequential: chain searches
//! visit about two nodes each, so there is nothing to parallelize there.
//! What this crate parallelizes is the pass after it — **without giving up
//! reproducibility**. Workers evaluate against frozen state and results are
//! committed sequentially in a fixed order, so the output is identical at
//! every thread count. A snapshot taken at `--threads 8` pins the same
//! numbers as one taken sequentially.
//!
//! - [`ParLeast`] (module [`least`]): SCC-level-parallel least-solution
//!   evaluation. The inductive-form invariant makes the canonical
//!   predecessor graph a DAG; its condensation levels are dependency-free
//!   batches whose variables workers evaluate concurrently. Output is
//!   **byte-identical** to `Solver::least_solution` (the `LeastSolution`
//!   `PartialEq` compares raw buffers, so tests pin exactly that).
//!   [`ParLeast::run_revalidate`] recomputes only the levels a serving
//!   `Delta` dirtied; [`least_solution`] is the one-call convenience.
//!
//! Worker scheduling is the deliberately boring [`pool`] module: scoped
//! threads, deterministic [`chunk_range`] partitioning, and a
//! single-threaded fast path that is a plain function call (and, once warm,
//! allocation-free — pinned by `bane-core`'s allocation test).
//!
//! See `docs/PARALLELISM.md` for the determinism argument.

#![deny(missing_docs)]

pub mod least;
pub mod pool;

pub use least::{least_solution, ParLeast, RevalidateOutcome};
pub use pool::{available_threads, chunk_range, Pool};
