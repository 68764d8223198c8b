//! The serving lifecycle end to end: solve → snapshot → drop the solver →
//! cold-load a read-only `QueryIndex` → answer alias queries from many
//! threads with no locks. This is the runnable companion to
//! `docs/SERVING.md`; the on-disk bytes are specified in
//! `docs/SNAPSHOT_FORMAT.md`.
//!
//! Run the walkthrough with `cargo run --release --example alias_server`.
//!
//! With `--check` the example becomes a verification gate (used by CI's
//! snap-roundtrip job): it writes a povray-2.2 snapshot, reloads it cold,
//! diffs **all** query answers —
//! `points_to` and `reachable_sources` for every variable, `alias` over a
//! sample grid — against the live solver's least solution, and exits
//! nonzero on any mismatch. `--scale <f>` adjusts the synthetic suite
//! scale (default 0.2 for `--check`, 0.05 for the walkthrough).
//!
//! With `--reload` the example demonstrates **hot republish**: a live
//! incremental session grows the system and republishes the snapshot while
//! reader threads keep answering queries through a one-slot
//! `bane::snap::SnapshotHub` — a watcher thread detects the new snapshot
//! by mtime and calls `publish_path`, which loads the fresh index *outside*
//! the slot lock and swaps only the `Arc` pointer, so readers never block
//! on the reload. The same hub scales to N slots for a sharded fleet (see
//! `docs/SERVING.md`'s "Fleet" section).

use bane::core::prelude::*;
use bane::obs::Recorder;
use bane::par::{chunk_range, Pool};
use bane::points_to::andersen;
use bane::snap::{write_solver, LoadMode, QueryIndex, QueryScratch};
use bane::synth::suite::{suite_program, PAPER_SUITE};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

fn main() {
    let mut check = false;
    let mut reload = false;
    let mut scale: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--reload" => reload = true,
            "--scale" => {
                scale = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale expects a float")),
                )
            }
            "--help" | "-h" => die("usage: alias_server [--check] [--reload] [--scale <f>]"),
            other => die(&format!("unknown argument {other}")),
        }
    }
    if check {
        run_check(scale.unwrap_or(0.2));
    } else if reload {
        run_reload(scale.unwrap_or(0.05));
    } else {
        run_walkthrough(scale.unwrap_or(0.05));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The povray-2.2 stand-in from the synthetic paper suite — the same
/// workload the bench harness and the acceptance tests serve.
fn povray(scale: f64) -> bane::cfront::ast::Program {
    let entry = PAPER_SUITE.iter().find(|e| e.name == "povray-2.2").expect("suite entry");
    suite_program(entry, scale)
}

fn snapshot_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bane-alias-server");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("povray-{tag}-{}.snap", std::process::id()))
}

/// The demo: narrated steps, a handful of printed answers and
/// a small multi-threaded throughput figure.
fn run_walkthrough(scale: f64) {
    println!("== 1. solve ==");
    let program = povray(scale);
    let start = Instant::now();
    let mut analysis = andersen::analyze(&program, SolverConfig::if_online());
    println!(
        "povray-2.2 @ scale {scale}: {} AST nodes, {} set variables, solved in {:?}",
        program.ast_nodes(),
        analysis.solver.vars_created(),
        start.elapsed()
    );

    println!("\n== 2. snapshot ==");
    let path = snapshot_path("demo");
    let start = Instant::now();
    let bytes = write_solver(&mut analysis.solver, &path, None).expect("write snapshot");
    println!("wrote {bytes} bytes to {} in {:?}", path.display(), start.elapsed());

    // The point of the exercise: from here on there is no solver at all.
    let live = analysis.solver.least_solution();
    drop(analysis);

    println!("\n== 3. cold load ==");
    let rec = Recorder::new();
    let start = Instant::now();
    let index = QueryIndex::load_with(&path, LoadMode::Auto, Some(&rec)).expect("load snapshot");
    println!(
        "loaded + validated in {:?} ({} vars, {} terms, mmap={})",
        start.elapsed(),
        index.var_count(),
        index.term_count(),
        index.is_mapped()
    );

    println!("\n== 4. query ==");
    let shown = (0..index.var_count())
        .map(Var::new)
        .filter(|&v| !index.points_to(v).is_empty())
        .take(3)
        .collect::<Vec<_>>();
    for &v in &shown {
        let terms = index.points_to(v);
        let rendered = terms
            .iter()
            .take(4)
            .map(|&t| index.display_term(t))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  points_to({v}) = {{{rendered}{}}}", if terms.len() > 4 { ", …" } else { "" });
    }
    if let [a, b, ..] = shown[..] {
        println!("  alias({a}, {b}) = {}", index.alias(a, b));
    }

    println!("\n== 5. serve from 4 threads ==");
    let threads = 4;
    let n = index.var_count();
    let pool = Pool::new(threads);
    let hits = AtomicUsize::new(0);
    let (index_ref, hits_ref) = (&index, &hits);
    let start = Instant::now();
    pool.broadcast(|w| {
        let (lo, hi) = chunk_range(n, threads, w);
        let mut local = 0;
        for i in lo..hi {
            let v = Var::new(i);
            let partner = Var::new((i * 7919 + w) % n);
            if index_ref.alias(v, partner) {
                local += 1;
            }
        }
        hits_ref.fetch_add(local, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    println!(
        "{n} alias queries across {threads} threads in {elapsed:?} ({} aliased pairs)",
        hits.load(Ordering::Relaxed)
    );

    // A spot check against the live least solution we kept around.
    let sample = Var::new(shown.first().map_or(0, |v| v.raw() as usize));
    assert_eq!(index.points_to(sample), live.get(sample));
    println!("\nspot check vs live least solution: ok");
    let _ = std::fs::remove_file(&path);
}

/// Hot republish: a live incremental session republishes the snapshot; a
/// watcher republishes it into a one-slot `SnapshotHub` while reader
/// threads keep serving off `Arc` clones of the current index.
fn run_reload(scale: f64) {
    use bane::serve::{Delta, SessionBuilder};
    use bane::snap::SnapshotHub;
    use std::sync::Arc;
    use std::time::{Duration, SystemTime};

    println!("== 1. initial solve + publish ==");
    let program = povray(scale);
    let mut problem = Problem::new(SolverConfig::if_online());
    andersen::generate(&program, &mut problem);
    let mut session = SessionBuilder::new().threads(4).build_grouped(problem, 16);
    let path = snapshot_path("reload");
    let bytes = session.publish_snapshot(&path).expect("publish snapshot");
    println!("published {bytes} bytes to {}", path.display());

    // One hub slot = one shard; `ShardManager::publish_all` feeds the same
    // hub one slot per shard.
    let hub = Arc::new(SnapshotHub::new(1));
    hub.publish_path(0, &path).expect("load snapshot");
    let n1 = hub.get(0).expect("published").var_count();
    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicUsize::new(0));

    // Watcher: poll the snapshot's mtime; on change, republish the slot.
    // The hub loads the fresh index *outside* the slot lock and swaps only
    // the pointer, so readers never wait on the load.
    let mtime = |p: &std::path::Path| -> SystemTime {
        std::fs::metadata(p).and_then(|m| m.modified()).unwrap_or(SystemTime::UNIX_EPOCH)
    };
    let watcher = {
        let (hub, stop, path) = (hub.clone(), stop.clone(), path.clone());
        let mut last = mtime(&path);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                let now = mtime(&path);
                if now != last {
                    last = now;
                    hub.publish_path(0, &path).expect("reload snapshot");
                }
            }
        })
    };

    // Readers: clone the slot's Arc, then query lock-free.
    let readers: Vec<_> = (0..2)
        .map(|w| {
            let (hub, stop, queries) = (hub.clone(), stop.clone(), queries.clone());
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let index = hub.get(0).expect("slot published");
                    let n = index.var_count();
                    for _ in 0..256 {
                        let v = Var::new(i % n);
                        let partner = Var::new((i * 7919 + w) % n);
                        std::hint::black_box(index.alias(v, partner));
                        i += 1;
                    }
                    queries.fetch_add(256, Ordering::Relaxed);
                }
            })
        })
        .collect();

    println!("\n== 2. grow the system and republish ==");
    // One new variable downstream of an existing group's first endpoint.
    let seed = session.group(bane::serve::GroupId::new(0)).expect("live group")[0].0;
    let base = session.solver().vars_created() as usize;
    let mut delta = Delta::new();
    delta.add_vars(1);
    delta.add_group(vec![(seed, Var::new(base).into())]);
    let report = session.apply(delta);
    println!(
        "applied delta: path={}, dirty levels {}/{}",
        if report.monotone { "monotone" } else { "replay" },
        report.outcome.dirty_levels,
        report.outcome.total_levels
    );
    session.publish_snapshot(&path).expect("republish snapshot");

    // Wait for the watcher to swap the grown index in (the slot's
    // generation bumps on every publish).
    let deadline = Instant::now() + Duration::from_secs(10);
    let n2 = loop {
        let n = hub.get(0).expect("slot published").var_count();
        if n > n1 {
            break n;
        }
        assert!(Instant::now() < deadline, "reload not observed within 10s");
        std::thread::sleep(Duration::from_millis(5));
    };

    stop.store(true, Ordering::Relaxed);
    watcher.join().expect("watcher thread");
    for r in readers {
        r.join().expect("reader thread");
    }
    println!(
        "\nreload observed: {n1} -> {n2} vars; {} queries served across the swap",
        queries.load(Ordering::Relaxed)
    );
    let _ = std::fs::remove_file(&path);
}

/// The gate: full query diff vs the live solver, nonzero exit on any
/// divergence.
fn run_check(scale: f64) {
    let program = povray(scale);
    let mut analysis = andersen::analyze(&program, SolverConfig::if_online());
    let live = analysis.solver.least_solution();
    let path = snapshot_path("check");
    write_solver(&mut analysis.solver, &path, None).expect("write snapshot");
    drop(analysis);

    let index = QueryIndex::load_with(&path, LoadMode::Auto, None).expect("load snapshot");
    let n = index.var_count();
    assert_eq!(n, live.len(), "variable counts diverged");
    let mismatches = AtomicUsize::new(0);
    let threads = 4;
    let pool = Pool::new(threads);
    let (index, live, mismatches) = (&index, &live, &mismatches);
    pool.broadcast(|w| {
        let (lo, hi) = chunk_range(n, threads, w);
        let mut scratch = QueryScratch::new();
        let mut reach = Vec::new();
        for i in lo..hi {
            let v = Var::new(i);
            let want = live.get(v);
            if index.points_to(v) != want {
                mismatches.fetch_add(1, Ordering::Relaxed);
            }
            index.reachable_sources_with(v, &mut scratch, &mut reach);
            if reach != want {
                mismatches.fetch_add(1, Ordering::Relaxed);
            }
            let partner = Var::new((i * 7919 + w) % n);
            let live_alias =
                want.iter().any(|t| live.get(partner).binary_search(t).is_ok());
            if index.alias(v, partner) != live_alias {
                mismatches.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let failures = mismatches.load(Ordering::Relaxed);
    println!(
        "check: {n} vars × (points_to + reachable_sources + alias) — {}",
        if failures == 0 { "ok".to_string() } else { format!("{failures} MISMATCHES") }
    );
    let _ = std::fs::remove_file(&path);
    if failures > 0 {
        eprintln!("alias_server --check: {failures} mismatches");
        std::process::exit(1);
    }
    println!("alias_server --check: all snapshot answers match the live solver");
}
