//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <solve|serve-edit|serve-grow> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! One process, one thread, a closed loop with a single client. With
//! `--trace 0` the workload runs untraced for `--seconds` of busy time and
//! reports the end-to-end metrics. With `--trace 1` it runs untraced for
//! half the time, then runs the same units again with every call into a
//! layer wrapped in a span, and reports the per-layer metrics, including
//! the tracing overhead (traced wall minus untraced wall). Every answer is
//! checked against an independent reference. The metrics are printed by
//! name and unit on standard error; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `README.md` next to this package defines every workload and metric.

mod alloc;
mod input;
mod reference;
mod serve_edit;
mod serve_grow;
mod solve;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{quantile, ratio};
use trace::{Summary, Tracer};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by untraced runs: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("update_ms.p50", "ms"),
    ("update_ms.p90", "ms"),
    ("query_us.p50", "us"),
    ("query_us.p99", "us"),
    ("requests_per_s", "1/s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs: name and unit. A workload
/// that bypasses a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.units", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("layer.cfront_ms", "ms"),
    ("layer.points_to_ms", "ms"),
    ("layer.core_ms", "ms"),
    ("layer.snap_ms", "ms"),
    ("layer.serve_ms", "ms"),
    ("layer.unattributed_ms", "ms"),
    ("serve.proto_ms", "ms"),
    ("serve.session_ms", "ms"),
    ("serve.fleet_ms", "ms"),
    ("cfront.parse_ms", "ms"),
    ("cfront.kast_per_s", "kAST/s"),
    ("points_to.generate_ms", "ms"),
    ("points_to.constraints", "count"),
    ("core.solve_ms", "ms"),
    ("core.least_ms", "ms"),
    ("core.work", "count"),
    ("core.redundant", "count"),
    ("core.vars_eliminated", "count"),
    ("core.useful_ratio", "ratio"),
    ("snap.encode_ms", "ms"),
    ("snap.load_ms", "ms"),
    ("snap.bytes", "bytes"),
    ("snap.query_ns", "ns"),
    ("snap.hub_query_ns", "ns"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.query_us", "us"),
    ("serve.build_ms", "ms"),
    ("serve.commit.fast_repair_ms", "ms"),
    ("serve.commit.replay_ms", "ms"),
    ("serve.commit.monotone_ms", "ms"),
    ("serve.fast.retracted_edges", "count"),
    ("serve.fast.fallback_ratio", "ratio"),
    ("serve.reuse_ratio", "ratio"),
    ("fleet.publish_all_ms", "ms"),
    ("fleet.delta.routed", "count"),
    ("publish_ms.p50", "ms"),
];

/// Each layer (the first part of a span name) and its self-time metric.
const LAYERS: [(&str, &str); 5] = [
    ("cfront", "layer.cfront_ms"),
    ("points_to", "layer.points_to_ms"),
    ("core", "layer.core_ms"),
    ("snap", "layer.snap_ms"),
    ("serve", "layer.serve_ms"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload measured in its timed units.
#[derive(Default)]
pub struct Meter {
    /// Busy wall time of every unit: the timed part of the closed loop.
    pub busy_ns: u64,
    /// Requests answered in timed units.
    pub requests: u64,
    /// Requests answered `err`, or answered wrongly as far as checked so
    /// far.
    pub failed: u64,
    /// One entry per update: an analysis sample or a commit transaction.
    pub updates_ns: Vec<f64>,
    /// One entry per read.
    pub queries_ns: Vec<f64>,
    /// One entry per snapshot publication, until readers see it.
    pub publishes_ns: Vec<f64>,
}

/// The checker's verdict over one workload instance.
pub struct Check {
    /// Requests and state probes checked or attempted.
    pub attempted: u64,
    /// Those answered `err` or disagreeing with the reference.
    pub failed: u64,
    /// Whether the self-check passed: a clean answer was accepted and the
    /// same answer, corrupted, was counted as an error.
    pub caught: bool,
}

/// One workload: a set-up (done on construction) and a stream of units.
pub trait Workload {
    /// Median set-up time of this instance, in seconds.
    fn setup_s(&self) -> f64;
    /// Runs one timed unit, adding its busy time and samples to the meter.
    fn unit(&mut self, tr: &mut Tracer);
    /// Whether the unit stream may stop here.
    fn at_boundary(&self) -> bool {
        true
    }
    /// Units over which `peak_heap_mib` is taken: a fixed amount of work,
    /// so the figure does not depend on how many units the host managed.
    fn heap_units(&self) -> usize;
    /// The samples so far.
    fn meter(&self) -> &Meter;
    /// Checks every recorded answer that was not checked as it arrived.
    fn verify(&mut self) -> Check;
    /// Adds the workload's per-layer metrics from a traced phase of
    /// `units` units.
    fn layers(&mut self, summary: &mut Summary, units: f64, out: &mut Metrics);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <solve|serve-edit|serve-grow> --seed <n> \
                     --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench-run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Runs units until `done(units run, workload)`. Returns the number of
/// units and the heap high-water mark over the first `heap_units()` of
/// them (or over all, if fewer ran).
fn run(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    done: impl Fn(usize, &dyn Workload) -> bool,
) -> (usize, usize) {
    let (mut n, mut heap) = (0, None);
    while !done(n, w) {
        w.unit(tr);
        n += 1;
        if n == w.heap_units() {
            heap = Some(alloc::peak_bytes());
        }
    }
    (n, heap.unwrap_or_else(alloc::peak_bytes))
}

/// Stops once `seconds` of busy time have passed at a unit boundary.
fn for_seconds(seconds: f64) -> impl Fn(usize, &dyn Workload) -> bool {
    let target = (seconds * 1e9) as u64;
    move |_, w| w.meter().busy_ns >= target && w.at_boundary()
}

/// The end-to-end metrics of an untraced run of `seconds`.
fn untraced(w: &mut dyn Workload, seconds: f64) -> Metrics {
    alloc::reset_peak();
    let (_, peak) = run(w, &mut Tracer::off(), for_seconds(seconds));
    let m = w.meter();
    let mut updates = m.updates_ns.clone();
    let mut queries = m.queries_ns.clone();
    let mut out = Metrics::new();
    out.insert("setup_s", w.setup_s());
    out.insert("update_ms.p50", quantile(&mut updates, 0.5) / 1e6);
    out.insert("update_ms.p90", quantile(&mut updates, 0.9) / 1e6);
    out.insert("query_us.p50", quantile(&mut queries, 0.5) / 1e3);
    out.insert("query_us.p99", quantile(&mut queries, 0.99) / 1e3);
    out.insert(
        "requests_per_s",
        ratio(m.requests as f64, m.busy_ns as f64 / 1e9),
    );
    out.insert("peak_heap_mib", peak as f64 / (1u64 << 20) as f64);
    out
}

/// The per-layer metrics: `seconds / 2` untraced on one instance, then
/// the same number of units traced on a fresh (observed) instance.
fn traced<'a>(
    mut make: impl FnMut(bool) -> Box<dyn Workload + 'a>,
    seconds: f64,
    spans_path: &std::path::Path,
) -> (Metrics, Check) {
    let mut plain = make(false);
    let (units, _) = run(
        plain.as_mut(),
        &mut Tracer::off(),
        for_seconds(seconds / 2.0),
    );
    let mut observed = make(true);
    let mut tr = Tracer::on();
    run(observed.as_mut(), &mut tr, |n, _| n == units);
    let mut s = tr.summary();
    let n = units as f64;
    let wall = observed.meter().busy_ns as f64;
    let per_unit_ms = |ns: f64| ns / n / 1e6;
    let mut out = Metrics::new();
    out.insert("trace.units", n);
    out.insert("trace.wall_ms", per_unit_ms(wall));
    for (layer, name) in LAYERS {
        out.insert(name, per_unit_ms(s.layer_ns(layer) as f64));
    }
    out.insert(
        "layer.unattributed_ms",
        per_unit_ms(wall - s.covered_ns as f64),
    );
    out.insert(
        "serve.proto_ms",
        per_unit_ms(s.area_ns("serve.proto") as f64),
    );
    out.insert(
        "serve.session_ms",
        per_unit_ms(s.area_ns("serve.session") as f64),
    );
    out.insert(
        "serve.fleet_ms",
        per_unit_ms(s.area_ns("serve.fleet") as f64),
    );
    let wall_plain = plain.meter().busy_ns as f64;
    out.insert("trace.overhead_ms", per_unit_ms(wall - wall_plain));
    out.insert(
        "trace.overhead_pct",
        100.0 * ratio(wall - wall_plain, wall_plain),
    );
    let mut publishes = plain.meter().publishes_ns.clone();
    out.insert("publish_ms.p50", quantile(&mut publishes, 0.5) / 1e6);
    observed.layers(&mut s, n, &mut out);

    let layers_sum: u64 = s.layer_self_ns.values().sum();
    eprintln!(
        "trace: {units} units; layer self times {:.3} ms + unattributed {:.3} ms = traced wall {:.3} ms",
        layers_sum as f64 / 1e6,
        (wall - s.covered_ns as f64) / 1e6,
        wall / 1e6,
    );
    if let Err(e) = tr.write_tsv(spans_path) {
        eprintln!("warning: could not write {}: {e}", spans_path.display());
    } else {
        eprintln!("trace: spans written to {}", spans_path.display());
    }
    let (a, b) = (plain.verify(), observed.verify());
    let check = Check {
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        caught: a.caught && b.caught,
    };
    (out, check)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let snap_dir = args
        .out_dir
        .join(format!("snapshots-{}", std::process::id()));
    let (metrics, check) = match args.workload.as_str() {
        "solve" => {
            let inputs = solve::prepare(args.seed);
            let make = |_obs: bool| Box::new(solve::Solve::new(&inputs)) as Box<dyn Workload>;
            measure(make, &args, &spans_path)
        }
        "serve-edit" => {
            let inputs = serve_edit::prepare(args.seed);
            let make =
                |obs: bool| Box::new(serve_edit::ServeEdit::new(&inputs, obs)) as Box<dyn Workload>;
            measure(make, &args, &spans_path)
        }
        "serve-grow" => {
            if let Err(e) = std::fs::create_dir_all(&snap_dir) {
                eprintln!("perfbench: cannot create {}: {e}", snap_dir.display());
                return ExitCode::FAILURE;
            }
            let inputs = serve_grow::prepare(args.seed);
            let make = |obs: bool| {
                Box::new(serve_grow::ServeGrow::new(&inputs, obs, &snap_dir)) as Box<dyn Workload>
            };
            let out = measure(make, &args, &spans_path);
            let _ = std::fs::remove_dir_all(&snap_dir);
            out
        }
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report(&args, &metrics, &check)
}

/// Runs the requested kind of run over workload instances from `make`.
fn measure<'a>(
    mut make: impl FnMut(bool) -> Box<dyn Workload + 'a>,
    args: &Args,
    spans_path: &std::path::Path,
) -> (Metrics, Check) {
    if args.trace {
        traced(make, args.seconds, spans_path)
    } else {
        let mut w = make(false);
        let metrics = untraced(w.as_mut(), args.seconds);
        (metrics, w.verify())
    }
}

/// Prints the metrics by name and unit, then the JSON result line.
fn report(args: &Args, metrics: &Metrics, check: &Check) -> ExitCode {
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for name in metrics.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "undeclared metric {name}"
        );
    }
    let correct = check.failed == 0 && check.caught;
    eprintln!(
        "{} seed={} trace={}: attempted={} failed={} error_rate={} self-check={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        check.attempted,
        check.failed,
        ratio(check.failed as f64, check.attempted as f64),
        if check.caught {
            "caught the corrupted answer"
        } else {
            "FAILED"
        },
    );
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<30} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted,
        check.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
