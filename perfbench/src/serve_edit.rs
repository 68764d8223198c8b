//! `serve-edit`: an editor's edit-and-undo loop on a live
//! `ApplyMode::Fast` session.
//!
//! One unit is one transaction on a seeded group: `edit g<i>` without one
//! seeded constraint, `commit`, a batch of reads, then `edit g<i>` back to
//! the original, `commit`, and another batch of reads. Every frame goes
//! through the full framed path (see [`crate::wire`]). Every commit is
//! non-monotone, so each one is served by provenance retraction plus
//! either in-place repair or the replay fallback. The workload never
//! parses C and never writes a snapshot.

use std::time::Instant;

use bane_core::prelude::*;
use bane_obs::Counter;
use bane_serve::proto::execute;
use bane_serve::{ApplyMode, Delta, GroupId, Session, SessionBuilder};
use bane_util::rng::SplitMix64;

use crate::input::{self, Query};
use crate::reference::{self, Universe};
use crate::stats::{digest_bytes, median, ratio};
use crate::trace::{Summary, Tracer};
use crate::wire::Wire;
use crate::{Check, Meter, Metrics, Workload};

/// The served program.
pub const PROGRAM: &str = "povray-2.2";
/// Its suite scale.
pub const SCALE: f64 = 0.1;
/// Contiguous constraint groups the session is split into.
pub const GROUPS: usize = 75;
/// Reads after each commit.
const READS: usize = 20;
/// Session builds per instance; their median is the set-up time.
const BUILDS: usize = 3;
/// Edited states checked against the reference per instance.
const EDITED_CHECKS: usize = 4;
/// Transactions over which the heap high-water mark is taken.
const HEAP_TXNS: usize = 10;

/// The workload's inputs.
pub struct Inputs {
    problem: Problem,
    domain: Vec<Var>,
    seed: u64,
}

/// Synthesizes the program's constraint system (no C text is involved).
pub fn prepare(seed: u64) -> Inputs {
    let (problem, domain) = input::andersen_problem(&input::program(PROGRAM, SCALE));
    Inputs {
        problem,
        domain,
        seed,
    }
}

/// One read and the digest of the response frame it got.
struct Read {
    /// 0 for the base state, `i + 1` for the edited state of transaction
    /// `i`.
    state: usize,
    query: Query,
    observed: u64,
}

/// How a commit was served, from the reply's `path=` field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    FastRepair,
    Replay,
    Other,
}

/// The `serve-edit` workload.
pub struct ServeEdit<'a> {
    inputs: &'a Inputs,
    session: Session,
    pending: Delta,
    /// The client's copy of every group: what it edits and restores.
    groups: Vec<Vec<(SetExpr, SetExpr)>>,
    rng: SplitMix64,
    wire: Wire,
    meter: Meter,
    setup_s: f64,
    build_ms: f64,
    /// `(group, skipped constraint)` of every transaction.
    txns: Vec<(usize, usize)>,
    reads: Vec<Read>,
    /// Path and `execute` time of every commit (times in traced runs only).
    commits: Vec<(Path, u64)>,
    /// Summed `reused` and `dirty-vars` fields of the commit replies.
    reuse: (u64, u64),
    /// The first base-state points-to response, for the self-check.
    probe: Option<(Query, String)>,
}

/// The text of a points-to response holding `terms`.
fn points_to_text(terms: &[u32]) -> String {
    let set: Vec<String> = terms.iter().map(|t| format!("t{t}")).collect();
    format!("ok {{{}}}", set.join(","))
}

/// The response text the reference expects for `q`.
fn expected_text(sol: &reference::Solution, q: Query) -> String {
    match q {
        Query::PointsTo(v) => points_to_text(&sol.points_to(v)),
        Query::Alias(a, b) => if sol.alias(a, b) { "ok yes" } else { "ok no" }.to_string(),
    }
}

/// Whether a response with digest `observed` is the reference's answer.
fn matches(sol: &reference::Solution, q: Query, observed: u64) -> bool {
    digest_bytes(expected_text(sol, q).as_bytes()) == observed
}

/// The value of `key=` in a commit reply.
fn field<'r>(reply: &'r str, key: &str) -> Option<&'r str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

impl<'a> ServeEdit<'a> {
    /// Builds the session [`BUILDS`] times (with `obs` recording the
    /// session's counters) and keeps the last one.
    pub fn new(inputs: &'a Inputs, obs: bool) -> Self {
        let builder = SessionBuilder::new().apply_mode(ApplyMode::Fast).obs(obs);
        let mut wire = Wire::default();
        let (mut setups, mut builds) = (Vec::new(), Vec::new());
        let mut kept = None;
        for _ in 0..BUILDS {
            drop(kept.take());
            let problem = inputs.problem.clone();
            let start = Instant::now();
            let mut session = builder.build_grouped(problem, GROUPS);
            builds.push(start.elapsed().as_secs_f64() * 1e3);
            let mut pending = Delta::new();
            let hello = wire.round_trip(&mut Tracer::off(), "hello 2", false, |req| {
                execute(&mut session, &mut pending, req)
            });
            setups.push(start.elapsed().as_secs_f64());
            assert!(
                hello.text.contains("mode=fast"),
                "unexpected hello reply: {}",
                hello.text
            );
            kept = Some(session);
        }
        let session = kept.expect("at least one build");
        let groups = (0..session.group_slots())
            .map(|g| {
                session
                    .group(GroupId::new(g as u32))
                    .expect("fresh groups are live")
                    .to_vec()
            })
            .collect();
        ServeEdit {
            inputs,
            session,
            pending: Delta::new(),
            groups,
            rng: SplitMix64::new(inputs.seed ^ 0x5e4e_ed17),
            wire,
            meter: Meter::default(),
            setup_s: median(&mut setups),
            build_ms: median(&mut builds),
            txns: Vec::new(),
            reads: Vec::new(),
            commits: Vec::new(),
            reuse: (0, 0),
            probe: None,
        }
    }

    /// Sends one request frame and returns the reply.
    fn request(&mut self, tr: &mut Tracer, text: &str) -> crate::wire::Reply {
        let (session, pending) = (&mut self.session, &mut self.pending);
        let reply = self
            .wire
            .round_trip(tr, text, false, |req| execute(session, pending, req));
        self.meter.requests += 1;
        if !reply.text.starts_with("ok") {
            self.meter.failed += 1;
        }
        reply
    }

    /// Stages `edit` and commits it, timing the pair as one update.
    fn update(&mut self, tr: &mut Tracer, edit: &str) {
        let start = Instant::now();
        self.request(tr, edit);
        let commit = self.request(tr, "commit");
        let ns = start.elapsed().as_nanos() as u64;
        self.meter.busy_ns += ns;
        self.meter.updates_ns.push(ns as f64);
        let path = match field(&commit.text, "path") {
            Some("fast-repair") => Path::FastRepair,
            Some("replay") => Path::Replay,
            _ => Path::Other,
        };
        self.commits.push((path, commit.execute_ns));
        let num = |key| {
            field(&commit.text, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        self.reuse.0 += num("reused");
        self.reuse.1 += num("dirty-vars");
    }

    /// Sends [`READS`] seeded reads at `state`.
    fn reads(&mut self, tr: &mut Tracer, state: usize) {
        let queries = input::batch(&mut self.rng, &self.inputs.domain, READS);
        let texts: Vec<String> = queries.iter().map(|q| q.text()).collect();
        let start = Instant::now();
        for (&query, text) in queries.iter().zip(&texts) {
            let clock = Instant::now();
            let reply = self.request(tr, text);
            self.meter
                .queries_ns
                .push(clock.elapsed().as_nanos() as f64);
            let observed = digest_bytes(reply.text.as_bytes());
            if state == 0 && self.probe.is_none() && matches!(query, Query::PointsTo(_)) {
                self.probe = Some((query, reply.text));
            }
            self.reads.push(Read {
                state,
                query,
                observed,
            });
        }
        self.meter.busy_ns += start.elapsed().as_nanos() as u64;
    }

    /// The live system with constraint `skip` of group `g` left out (the
    /// base system when `edit` is `None`).
    fn system(&self, edit: Option<(usize, usize)>) -> Vec<(SetExpr, SetExpr)> {
        let mut out = Vec::new();
        for (g, cs) in self.groups.iter().enumerate() {
            for (i, &c) in cs.iter().enumerate() {
                if edit != Some((g, i)) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Checks the reads made at `state` against `sol`, the reference
    /// solution of that state; returns `(checked, failed)`.
    fn check_reads(&self, sol: &reference::Solution, state: usize) -> (u64, u64) {
        let reads = self.reads.iter().filter(|r| r.state == state);
        let failed = reads
            .clone()
            .filter(|r| !matches(sol, r.query, r.observed))
            .count();
        (reads.count() as u64, failed as u64)
    }
}

impl Workload for ServeEdit<'_> {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn unit(&mut self, tr: &mut Tracer) {
        let g = self.rng.next_below(self.groups.len() as u64) as usize;
        let skip = self.rng.next_below(self.groups[g].len() as u64) as usize;
        self.txns.push((g, skip));
        let state = self.txns.len();
        let edit = format!(
            "edit g{g} {}",
            input::constraints_text(&self.groups[g], Some(skip))
        );
        let restore = format!(
            "edit g{g} {}",
            input::constraints_text(&self.groups[g], None)
        );
        self.update(tr, &edit);
        self.reads(tr, state);
        self.update(tr, &restore);
        self.reads(tr, 0);
    }

    fn meter(&self) -> &Meter {
        &self.meter
    }

    fn heap_units(&self) -> usize {
        HEAP_TXNS
    }

    fn verify(&mut self) -> Check {
        let (universe, _) = Universe::of(&self.inputs.problem);
        // Every read at the base state, plus the reads of a seeded subset
        // of the edited states (one reference closure each).
        let mut edited: Vec<usize> = (1..=self.txns.len()).collect();
        let mut rng = SplitMix64::new(self.inputs.seed ^ 0xc4ec_4ed5);
        bane_util::rng::shuffle(&mut edited, &mut rng);
        edited.truncate(EDITED_CHECKS);
        let base = reference::close(&universe, &self.system(None));
        let (mut checked, mut failed) = self.check_reads(&base, 0);
        for &state in &edited {
            let sol = reference::close(&universe, &self.system(Some(self.txns[state - 1])));
            let (c, f) = self.check_reads(&sol, state);
            checked += c;
            failed += f;
        }
        eprintln!(
            "serve-edit: checked {checked} of {} reads against the reference ({} states)",
            self.reads.len(),
            1 + edited.len()
        );
        // Self-check: a real base-state response must pass, and the same
        // response with one more term must be counted as an error.
        let caught = self.probe.as_ref().is_some_and(|(query, text)| {
            let corrupted = text.replacen('{', "{t4294967294,", 1);
            matches(&base, *query, digest_bytes(text.as_bytes()))
                && !matches(&base, *query, digest_bytes(corrupted.as_bytes()))
        });
        Check {
            attempted: self.meter.requests,
            failed: self.meter.failed + failed,
            caught,
        }
    }

    fn layers(&mut self, s: &mut Summary, units: f64, out: &mut Metrics) {
        let times = |want: Path| -> Vec<f64> {
            self.commits
                .iter()
                .filter(|c| c.0 == want)
                .map(|c| c.1 as f64)
                .collect()
        };
        let (mut fast, mut replay) = (times(Path::FastRepair), times(Path::Replay));
        let rec = self
            .session
            .recorder()
            .expect("traced sessions record counters");
        let retracted = rec.get(Counter::ServeFastRetractedEdges) as f64;
        out.insert(
            "serve.decode_us",
            median(s.durations_of("serve.proto.decode")) / 1e3,
        );
        out.insert(
            "serve.encode_us",
            median(s.durations_of("serve.proto.encode")) / 1e3,
        );
        out.insert(
            "serve.query_us",
            median(s.durations_of("serve.session.query")) / 1e3,
        );
        out.insert("serve.build_ms", self.build_ms);
        out.insert("serve.commit.fast_repair_ms", median(&mut fast) / 1e6);
        out.insert("serve.commit.replay_ms", median(&mut replay) / 1e6);
        out.insert("serve.fast.retracted_edges", retracted / units);
        out.insert(
            "serve.fast.fallback_ratio",
            ratio(replay.len() as f64, (fast.len() + replay.len()) as f64),
        );
        out.insert(
            "serve.reuse_ratio",
            ratio(self.reuse.0 as f64, (self.reuse.0 + self.reuse.1) as f64),
        );
    }
}
