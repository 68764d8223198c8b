//! `solve`: batch analysis through the paper's pipeline.
//!
//! One unit is one sample: each of the three largest suite programs goes
//! from C text through `cfront::parse` → `andersen::generate` → IF-Online
//! `Solver::solve` → `least_solution` → `snap::encode_solver` →
//! `QueryIndex::from_bytes`, then answers its seeded batch of points-to
//! and alias queries. The workload never calls `bane-serve`.

use std::hint::black_box;
use std::time::Instant;

use bane_core::prelude::*;
use bane_snap::{encode_solver, QueryIndex};
use bane_util::rng::SplitMix64;

use crate::input::{self, Query};
use crate::reference::{self, Universe};
use crate::stats::{alias_digest, digest, median, points_to_digest, ratio};
use crate::trace::{Summary, Tracer};
use crate::{Check, Meter, Metrics, Workload};

/// The analysed programs: the three largest of the suite.
pub const PROGRAMS: [&str; 3] = ["povray-2.2", "gawk-3.0.3", "espresso"];
/// Suite scale of the analysed programs.
pub const SCALE: f64 = 0.2;
/// Queries answered per program per sample.
const QUERIES: usize = 256;
/// Samples run before timing; their median wall is the set-up time.
const WARMUP: usize = 3;
/// Samples over which the heap high-water mark is taken.
const HEAP_SAMPLES: usize = 10;

/// One program: its C text, its query batch, and the reference digest of
/// every answer.
pub struct Program {
    text: String,
    ast_nodes: usize,
    queries: Vec<Query>,
    expected: Vec<u64>,
    /// Position of the first points-to query: the answer the checker's
    /// self-check corrupts.
    probe: usize,
}

/// The workload's inputs.
pub struct Inputs {
    programs: Vec<Program>,
}

/// Renders every program to C text, draws its queries from `seed`, and
/// answers them with the reference.
pub fn prepare(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let programs = PROGRAMS
        .iter()
        .map(|name| {
            let text = bane_cfront::program_to_c(&input::program(name, SCALE));
            // The reference analyses the AST the pipeline will parse.
            let parsed = bane_cfront::parse(&text).expect("rendered C parses");
            let (problem, domain) = input::andersen_problem(&parsed);
            let queries = input::batch(&mut rng, &domain, QUERIES);
            let (universe, constraints) = Universe::of(&problem);
            let sol = reference::close(&universe, &constraints);
            let expected = queries
                .iter()
                .map(|&q| match q {
                    Query::PointsTo(v) => digest(sol.points_to(v)),
                    Query::Alias(a, b) => alias_digest(sol.alias(a, b)),
                })
                .collect();
            let probe = queries
                .iter()
                .position(|q| matches!(q, Query::PointsTo(_)))
                .expect("a batch of 256 draws holds a points-to query");
            Program {
                text,
                ast_nodes: parsed.ast_nodes(),
                queries,
                expected,
                probe,
            }
        })
        .collect();
    Inputs { programs }
}

/// Exact per-sample counts, summed over the programs.
#[derive(Default, Clone, Copy)]
struct Counts {
    constraints: u64,
    work: u64,
    redundant: u64,
    vars_eliminated: u64,
    snapshot_bytes: u64,
}

/// The `solve` workload.
pub struct Solve<'a> {
    inputs: &'a Inputs,
    meter: Meter,
    setup_s: f64,
    counts: Counts,
    /// The answer to the first program's probe query.
    probe_answer: Vec<TermId>,
    /// Requests and failures of the warm-up samples.
    warmup: (u64, u64),
}

impl<'a> Solve<'a> {
    /// A fresh workload; runs the warm-up samples (the set-up).
    pub fn new(inputs: &'a Inputs) -> Self {
        let mut w = Solve {
            inputs,
            meter: Meter::default(),
            setup_s: 0.0,
            counts: Counts::default(),
            probe_answer: Vec::new(),
            warmup: (0, 0),
        };
        let mut warmups: Vec<f64> = (0..WARMUP)
            .map(|_| w.sample(&mut Tracer::off()) as f64 / 1e9)
            .collect();
        w.setup_s = median(&mut warmups);
        let warm = std::mem::take(&mut w.meter);
        w.warmup = (warm.requests, warm.failed);
        w
    }

    /// Runs one pass over every program; returns its wall in nanoseconds.
    fn sample(&mut self, tr: &mut Tracer) -> u64 {
        let mut counts = Counts::default();
        let inputs = self.inputs;
        let start = Instant::now();
        for (pi, p) in inputs.programs.iter().enumerate() {
            tr.next_request();
            self.meter.requests += 1;
            let program = tr.span("cfront.parse", || bane_cfront::parse(&p.text));
            let Ok(program) = program else {
                self.meter.failed += 1;
                continue;
            };
            let mut solver = Solver::new(SolverConfig::if_online());
            let (_, gen) = tr.span("points_to.generate", || {
                bane_points_to::andersen::generate(&program, &mut solver)
            });
            tr.span("core.solve", || solver.solve());
            black_box(tr.span("core.least", || solver.least_solution()));
            let Ok(bytes) = tr.span("snap.encode", || encode_solver(&mut solver)) else {
                self.meter.failed += 1;
                continue;
            };
            let Ok(index) = tr.span("snap.load", || QueryIndex::from_bytes(&bytes)) else {
                self.meter.failed += 1;
                continue;
            };
            for (qi, (&q, &want)) in p.queries.iter().zip(&p.expected).enumerate() {
                let clock = Instant::now();
                let got = match q {
                    Query::PointsTo(v) => {
                        let answer = tr.span("snap.query", || index.points_to(v));
                        self.meter
                            .queries_ns
                            .push(clock.elapsed().as_nanos() as f64);
                        if pi == 0 && qi == p.probe {
                            self.probe_answer = answer.to_vec();
                        }
                        points_to_digest(answer)
                    }
                    Query::Alias(a, b) => {
                        let answer = tr.span("snap.query", || index.alias(a, b));
                        self.meter
                            .queries_ns
                            .push(clock.elapsed().as_nanos() as f64);
                        alias_digest(answer)
                    }
                };
                self.meter.requests += 1;
                self.meter.failed += u64::from(got != want);
            }
            let stats = solver.stats();
            counts.constraints += gen.constraints;
            counts.work += stats.work;
            counts.redundant += stats.redundant;
            counts.vars_eliminated += stats.vars_eliminated;
            counts.snapshot_bytes += bytes.len() as u64;
        }
        let ns = start.elapsed().as_nanos() as u64;
        self.counts = counts;
        ns
    }
}

impl Workload for Solve<'_> {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn unit(&mut self, tr: &mut Tracer) {
        let ns = self.sample(tr);
        self.meter.busy_ns += ns;
        self.meter.updates_ns.push(ns as f64);
    }

    fn meter(&self) -> &Meter {
        &self.meter
    }

    fn heap_units(&self) -> usize {
        HEAP_SAMPLES
    }

    fn verify(&mut self) -> Check {
        // Every answer was compared with the reference as it arrived. The
        // self-check feeds the same comparison one real answer with a term
        // added: the clean answer must pass and the corrupted one fail.
        let p = &self.inputs.programs[0];
        let want = p.expected[p.probe];
        let mut corrupted = self.probe_answer.clone();
        corrupted.push(TermId::new(u32::MAX as usize - 1));
        Check {
            attempted: self.warmup.0 + self.meter.requests,
            failed: self.warmup.1 + self.meter.failed,
            caught: points_to_digest(&self.probe_answer) == want
                && points_to_digest(&corrupted) != want,
        }
    }

    fn layers(&mut self, s: &mut Summary, units: f64, out: &mut Metrics) {
        let ms = |ns: f64| ns / units / 1e6;
        let kast = self
            .inputs
            .programs
            .iter()
            .map(|p| p.ast_nodes)
            .sum::<usize>() as f64
            / 1e3;
        let parse_ms = ms(s.total_ns("cfront.parse"));
        out.insert("cfront.parse_ms", parse_ms);
        out.insert("cfront.kast_per_s", ratio(kast, parse_ms / 1e3));
        out.insert(
            "points_to.generate_ms",
            ms(s.total_ns("points_to.generate")),
        );
        out.insert("points_to.constraints", self.counts.constraints as f64);
        out.insert("core.solve_ms", ms(s.total_ns("core.solve")));
        out.insert("core.least_ms", ms(s.total_ns("core.least")));
        out.insert("core.work", self.counts.work as f64);
        out.insert("core.redundant", self.counts.redundant as f64);
        out.insert("core.vars_eliminated", self.counts.vars_eliminated as f64);
        out.insert(
            "core.useful_ratio",
            1.0 - ratio(self.counts.redundant as f64, self.counts.work as f64),
        );
        out.insert("snap.encode_ms", ms(s.total_ns("snap.encode")));
        out.insert("snap.load_ms", ms(s.total_ns("snap.load")));
        out.insert(
            "snap.bytes",
            self.counts.snapshot_bytes as f64 / self.inputs.programs.len() as f64,
        );
        out.insert("snap.query_ns", median(s.durations_of("snap.query")));
    }
}
