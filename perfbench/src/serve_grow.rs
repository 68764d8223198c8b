//! `serve-grow`: a hot-republish server.
//!
//! A default (`Exact`) `ShardManager` of width 1 is loaded with half of a
//! program's constraint groups (the set-up, with the first `publish_all`).
//! One unit is one stream step: the client re-adds one held-back group
//! with a `group` + `commit` frame pair through `execute_fleet`, every
//! [`PUBLISH_EVERY`]th commit republishes every shard into a
//! `SnapshotHub`, and readers then answer [`READS`] reads from a `HubView`
//! of the last publication. Writes are monotone, so no provenance and no
//! retraction is involved; reads come from published snapshots, not from
//! the live session. A round ends when every held-back group is back; the
//! next unit then loads a fresh fleet.
//!
//! Width 1: a real program's Andersen groups span variables of every
//! residue class, so any wider fleet rejects them as `CrossShard`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bane_core::prelude::*;
use bane_obs::Counter;
use bane_serve::proto::execute_fleet;
use bane_serve::{Delta, SessionBuilder, ShardManager};
use bane_snap::{HubView, SnapshotHub};
use bane_util::idx::Idx;
use bane_util::rng::SplitMix64;

use crate::input::{self, Query};
use crate::reference::{self, Universe};
use crate::stats::{alias_digest, digest, median, points_to_digest, ratio};
use crate::trace::{Summary, Tracer};
use crate::wire::Wire;
use crate::{Check, Meter, Metrics, Workload};

/// The served program.
pub const PROGRAM: &str = "povray-2.2";
/// Its suite scale.
pub const SCALE: f64 = 0.1;
/// Contiguous constraint groups the program is split into.
pub const GROUPS: usize = 600;
/// Groups held back at each round's set-up and re-added by its stream.
const HELD: usize = GROUPS / 2;
/// Rounds over which the heap high-water mark is taken.
const HEAP_ROUNDS: usize = 1;
/// Commits between publications.
pub const PUBLISH_EVERY: usize = 8;
/// Hub reads after each commit.
const READS: usize = 50;
/// Intermediate states of the first round checked against the reference.
const STATE_CHECKS: usize = 2;

/// The workload's inputs.
pub struct Inputs {
    /// Constructors after the two builtins: name and variances.
    cons: Vec<(String, Vec<Variance>)>,
    /// Terms after the two builtins: constructor and arguments.
    terms: Vec<(Con, Vec<SetExpr>)>,
    vars: u32,
    groups: Vec<Vec<(SetExpr, SetExpr)>>,
    domain: Vec<Var>,
    universe: Universe,
    /// Reference digest of every variable's solution with every group
    /// present: the state each round ends in.
    full: Vec<u64>,
    seed: u64,
}

/// Splits the program into groups and solves the complete system with
/// the reference.
pub fn prepare(seed: u64) -> Inputs {
    let (problem, domain) = input::andersen_problem(&input::program(PROGRAM, SCALE));
    let (universe, constraints) = Universe::of(&problem);
    let (_, cons, arena, vars, _) = problem.into_parts();
    let cons = cons
        .iter()
        .skip(2)
        .map(|(_, s)| (s.name().to_string(), s.variances().to_vec()));
    let terms = arena
        .ids()
        .skip(2)
        .map(|t| (arena.data(t).con(), arena.data(t).args().to_vec()));
    let n = constraints.len();
    let groups: Vec<Vec<(SetExpr, SetExpr)>> = (0..GROUPS)
        .map(|g| constraints[g * n / GROUPS..(g + 1) * n / GROUPS].to_vec())
        .collect();
    let sol = reference::close(&universe, &constraints);
    let full = (0..vars as usize)
        .map(|v| digest(sol.points_to(Var::new(v))))
        .collect();
    Inputs {
        cons: cons.collect(),
        terms: terms.collect(),
        vars,
        groups,
        domain,
        universe,
        full,
        seed,
    }
}

/// Draws the reads until the next publication and records the live
/// fleet's answer to each: hub reads of this generation must match.
fn plan_reads(rng: &mut SplitMix64, domain: &[Var], round: &mut Round) {
    round.plan.clear();
    round.read_pos = 0;
    for _ in 0..PUBLISH_EVERY * READS {
        let q = Query::draw(rng, domain);
        let want = match q {
            Query::PointsTo(v) => points_to_digest(round.fleet.points_to(v)),
            Query::Alias(a, b) => alias_digest(round.fleet.alias(a, b)),
        };
        round.plan.push((q, want));
    }
}

/// One loaded fleet and its hub.
struct Round {
    /// Groups loaded at set-up, in program order.
    kept: Vec<usize>,
    /// Held-back groups, in the seeded order the stream re-adds them.
    held: Vec<usize>,
    fleet: ShardManager,
    /// The server loop's staged delta.
    pending: Delta,
    hub: SnapshotHub,
    view: HubView,
    /// Held-back groups re-added so far.
    next: usize,
    /// The reads until the next publication, each with the answer the
    /// live fleet gave when the hub's snapshot was published.
    plan: Vec<(Query, u64)>,
    read_pos: usize,
}

/// A state digest recorded mid-round: the groups present and every
/// variable's answer.
struct StateProbe {
    present: Vec<usize>,
    digests: Vec<u64>,
}

/// The `serve-grow` workload.
pub struct ServeGrow<'a> {
    inputs: &'a Inputs,
    obs: bool,
    dir: &'a Path,
    round: Option<Round>,
    rounds: usize,
    rng: SplitMix64,
    wire: Wire,
    meter: Meter,
    setups: Vec<f64>,
    /// Commit positions of the first round at which the state is probed.
    checkpoints: Vec<usize>,
    probes: Vec<StateProbe>,
    /// State probes compared inline (final states) and their failures.
    state_checks: (u64, u64),
    /// A final-state answer, for the self-check.
    final_answer: Option<(Var, Vec<TermId>)>,
    /// `execute` time of every commit (traced runs only).
    commits_ns: Vec<f64>,
    /// Summed reused and dirty variables of every commit.
    reuse: (u64, u64),
    /// `fleet.delta.routed` of finished rounds.
    routed: u64,
    snapshot_bytes: Vec<u64>,
}

impl<'a> ServeGrow<'a> {
    /// A fresh workload with its first round loaded; `obs` records the
    /// fleet's counters and `dir` receives the snapshot files.
    pub fn new(inputs: &'a Inputs, obs: bool, dir: &'a Path) -> Self {
        let mut rng = SplitMix64::new(inputs.seed ^ 0x62_0417);
        let checkpoints = (0..STATE_CHECKS)
            .map(|_| 1 + rng.next_below(HELD as u64 - 1) as usize)
            .collect();
        let mut w = ServeGrow {
            inputs,
            obs,
            dir,
            round: None,
            rounds: 0,
            rng,
            wire: Wire::default(),
            meter: Meter::default(),
            setups: Vec::new(),
            checkpoints,
            probes: Vec::new(),
            state_checks: (0, 0),
            final_answer: None,
            commits_ns: Vec::new(),
            reuse: (0, 0),
            routed: 0,
            snapshot_bytes: Vec::new(),
        };
        w.load();
        w
    }

    /// Draws a fresh seeded half of the groups to hold back, loads a fresh
    /// fleet with the other half and publishes it (timed as one set-up).
    fn load(&mut self) {
        if let Some(old) = self.round.take() {
            self.routed += old
                .fleet
                .recorder()
                .map_or(0, |r| r.get(Counter::FleetDeltaRouted));
        }
        let inputs = self.inputs;
        let mut order: Vec<usize> = (0..GROUPS).collect();
        bane_util::rng::shuffle(&mut order, &mut self.rng);
        let held = order[..HELD].to_vec();
        let mut kept = order[HELD..].to_vec();
        kept.sort_unstable();
        let builder = SessionBuilder::new().obs(self.obs);
        let start = Instant::now();
        let mut fleet = ShardManager::new(&builder, 1);
        for _ in 0..inputs.vars {
            fleet.fresh_var();
        }
        for (name, variances) in &inputs.cons {
            fleet.register_con(name.as_str(), variances.clone());
        }
        for (con, args) in &inputs.terms {
            fleet.term(*con, args.clone());
        }
        let mut delta = Delta::new();
        for &g in &kept {
            delta.add_group(inputs.groups[g].clone());
        }
        fleet
            .apply(delta)
            .expect("a 1-shard fleet routes every group");
        let hub = SnapshotHub::new(1);
        let bytes = fleet
            .publish_all(self.dir, &hub)
            .expect("snapshot directory is writable");
        let view = hub.view();
        self.setups.push(start.elapsed().as_secs_f64());
        self.snapshot_bytes.extend(bytes);
        let mut round = Round {
            kept,
            held,
            fleet,
            pending: Delta::new(),
            hub,
            view,
            next: 0,
            plan: Vec::new(),
            read_pos: 0,
        };
        plan_reads(&mut self.rng, &inputs.domain, &mut round);
        self.round = Some(round);
        self.rounds += 1;
    }

    /// Sends one request frame to the fleet.
    fn request(&mut self, tr: &mut Tracer, text: &str) -> crate::wire::Reply {
        let round = self.round.as_mut().expect("a round is loaded");
        let (fleet, pending) = (&mut round.fleet, &mut round.pending);
        let reply = self
            .wire
            .round_trip(tr, text, true, |req| execute_fleet(fleet, pending, req));
        self.meter.requests += 1;
        reply
    }

    /// Checks every variable of the finished round against the reference.
    fn check_final(&mut self) {
        let round = self.round.as_mut().expect("a round is loaded");
        let (mut checked, mut failed) = (0, 0);
        for v in 0..self.inputs.vars as usize {
            let answer = round.fleet.points_to(Var::new(v));
            checked += 1;
            failed += u64::from(points_to_digest(answer) != self.inputs.full[v]);
            if self.final_answer.is_none() && !answer.is_empty() {
                self.final_answer = Some((Var::new(v), answer.to_vec()));
            }
        }
        self.state_checks.0 += checked;
        self.state_checks.1 += failed;
    }
}

impl Workload for ServeGrow<'_> {
    fn setup_s(&self) -> f64 {
        let mut setups = self.setups.clone();
        median(&mut setups)
    }

    fn unit(&mut self, tr: &mut Tracer) {
        if self.at_boundary() {
            self.load();
        }
        let inputs = self.inputs;
        let round = self.round.as_ref().expect("a round is loaded");
        let group = format!(
            "group {}",
            input::constraints_text(&inputs.groups[round.held[round.next]], None)
        );

        let start = Instant::now();
        let staged = self.request(tr, &group);
        let commit = self.request(tr, "commit");
        let ns = start.elapsed().as_nanos() as u64;
        self.meter.busy_ns += ns;
        self.meter.updates_ns.push(ns as f64);
        if !staged.text.starts_with("ok staged")
            || !commit.text.starts_with("ok committed path=monotone")
        {
            self.meter.failed += 1;
        }
        self.commits_ns.push(commit.execute_ns as f64);

        let round = self.round.as_mut().expect("a round is loaded");
        let outcome = round.fleet.session(0).last_outcome();
        self.reuse.0 += outcome.reused_vars as u64;
        self.reuse.1 += outcome.dirty_vars as u64;
        round.next += 1;
        if round.next.is_multiple_of(PUBLISH_EVERY) {
            let start = Instant::now();
            let bytes = tr
                .span("serve.fleet.publish_all", || {
                    round.fleet.publish_all(self.dir, &round.hub)
                })
                .expect("snapshot directory is writable");
            round.view = tr.span("snap.hub_view", || round.hub.view());
            black_box(tr.span("snap.hub_query", || {
                round.view.points_to(inputs.domain[0]).len()
            }));
            let ns = start.elapsed().as_nanos() as u64;
            self.meter.busy_ns += ns;
            self.meter.publishes_ns.push(ns as f64);
            self.snapshot_bytes.extend(bytes);
            plan_reads(&mut self.rng, &inputs.domain, round);
        }

        let start = Instant::now();
        for _ in 0..READS {
            let (q, want) = round.plan[round.read_pos];
            round.read_pos += 1;
            let clock = Instant::now();
            let got = match q {
                Query::PointsTo(v) => {
                    let answer = tr.span("snap.hub_query", || round.view.points_to(v));
                    self.meter
                        .queries_ns
                        .push(clock.elapsed().as_nanos() as f64);
                    points_to_digest(answer)
                }
                Query::Alias(a, b) => {
                    let answer = tr.span("snap.hub_query", || round.view.alias(a, b));
                    self.meter
                        .queries_ns
                        .push(clock.elapsed().as_nanos() as f64);
                    alias_digest(answer)
                }
            };
            self.meter.requests += 1;
            self.meter.failed += u64::from(got != want);
        }
        self.meter.busy_ns += start.elapsed().as_nanos() as u64;

        if self.rounds == 1 && self.checkpoints.contains(&round.next) {
            let present = round
                .kept
                .iter()
                .chain(&round.held[..round.next])
                .copied()
                .collect();
            let digests = (0..inputs.vars as usize)
                .map(|v| points_to_digest(round.fleet.points_to(Var::new(v))))
                .collect();
            self.probes.push(StateProbe { present, digests });
        }
        if round.next == HELD {
            self.check_final();
        }
    }

    fn at_boundary(&self) -> bool {
        self.round.as_ref().is_none_or(|r| r.next == HELD)
    }

    fn meter(&self) -> &Meter {
        &self.meter
    }

    fn heap_units(&self) -> usize {
        HEAP_ROUNDS * HELD
    }

    fn verify(&mut self) -> Check {
        let mut checked = self.state_checks.0;
        let mut failed = self.state_checks.1;
        for probe in &self.probes {
            let constraints: Vec<(SetExpr, SetExpr)> = probe
                .present
                .iter()
                .flat_map(|&g| self.inputs.groups[g].iter().copied())
                .collect();
            let sol = reference::close(&self.inputs.universe, &constraints);
            for (v, &observed) in probe.digests.iter().enumerate() {
                checked += 1;
                failed += u64::from(digest(sol.points_to(Var::new(v))) != observed);
            }
        }
        eprintln!(
            "serve-grow: {} hub reads checked against the live fleet; {checked} state probes against the reference",
            self.meter.requests
        );
        let caught = self.final_answer.as_ref().is_some_and(|(v, answer)| {
            let want = self.inputs.full[v.index()];
            let mut corrupted = answer.clone();
            corrupted.push(TermId::new(u32::MAX as usize - 1));
            points_to_digest(answer) == want && points_to_digest(&corrupted) != want
        });
        Check {
            attempted: self.meter.requests + checked,
            failed: self.meter.failed + failed,
            caught,
        }
    }

    fn layers(&mut self, s: &mut Summary, units: f64, out: &mut Metrics) {
        let routed = self.routed
            + self
                .round
                .as_ref()
                .and_then(|r| r.fleet.recorder())
                .map_or(0, |r| r.get(Counter::FleetDeltaRouted));
        out.insert(
            "serve.decode_us",
            median(s.durations_of("serve.proto.decode")) / 1e3,
        );
        out.insert(
            "serve.encode_us",
            median(s.durations_of("serve.proto.encode")) / 1e3,
        );
        out.insert(
            "serve.commit.monotone_ms",
            median(&mut self.commits_ns) / 1e6,
        );
        out.insert(
            "serve.reuse_ratio",
            ratio(self.reuse.0 as f64, (self.reuse.0 + self.reuse.1) as f64),
        );
        out.insert(
            "fleet.publish_all_ms",
            median(s.durations_of("serve.fleet.publish_all")) / 1e6,
        );
        out.insert("fleet.delta.routed", routed as f64 / units);
        out.insert(
            "snap.hub_query_ns",
            median(s.durations_of("snap.hub_query")),
        );
        let bytes: u64 = self.snapshot_bytes.iter().sum();
        out.insert(
            "snap.bytes",
            ratio(bytes as f64, self.snapshot_bytes.len() as f64),
        );
    }
}
