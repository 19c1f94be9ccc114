//! PR 10 acceptance numbers: the threaded shard topology over a
//! tenants × shards × run-mode grid, up to 100 000 concurrent tenants.
//! Emits `BENCH_PR10.json`.
//!
//! `cargo run --release -p ctk-bench --bin bench_pr10 [--small] [--out FILE]`
//!
//! Every cell is compared per-tenant (`UrReport::same_outcome`) against
//! the single-threaded event-mode, single-shard reference for its tenant
//! count — the threaded topology's core claim is that worker threads are
//! invisible in the results. Beside the timings this records the
//! coordinator's barrier economics: stall time (coordinator blocked on
//! an empty request channel), channel message counts, and the deepest
//! observed request backlog.
//!
//! The ">= 2x at 4 shards" acceptance assertion compares threaded
//! against single-threaded event mode at the largest tenant count and
//! arms only on hosts with >= 4 cores — on smaller hosts the numbers
//! are still reported, honestly, as what a core-starved machine does.

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrReport};
use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::UncertainTable;
use ctk_service::{RunMode, SessionSpec, TopKService};
use ctk_tpo::build::{Engine, McConfig};
use std::time::Instant;

struct Grid {
    tenants: Vec<usize>,
    shards: Vec<usize>,
    tuples: usize,
    worlds: usize,
    budget: usize,
}

fn full() -> Grid {
    Grid {
        tenants: vec![1_000, 10_000, 100_000],
        shards: vec![1, 2, 4],
        tuples: 8,
        worlds: 256,
        budget: 4,
    }
}

fn small() -> Grid {
    Grid {
        tenants: vec![48],
        shards: vec![1, 2],
        tuples: 8,
        worlds: 256,
        budget: 3,
    }
}

/// Mixed per-tenant workloads, cheap enough that a 100k-tenant cell is
/// dominated by the serving loop rather than the submit-time TPO builds.
fn tenant_config(tenant: usize, worlds: usize, budget: usize) -> SessionConfig {
    let algorithm = match tenant % 4 {
        0 | 1 => Algorithm::T1On,
        2 => Algorithm::TbOff,
        _ => Algorithm::Incr {
            questions_per_round: 2,
        },
    };
    SessionConfig {
        k: 2 + tenant % 2,
        budget,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(worlds, 17 + (tenant % 4) as u64)),
        seed: (tenant % 16) as u64,
        uncertainty_target: None,
    }
}

fn mode_str(mode: RunMode) -> &'static str {
    match mode {
        RunMode::Event => "event",
        RunMode::EventThreaded => "event_threaded",
    }
}

struct Cell {
    tenants: usize,
    shards: usize,
    mode: RunMode,
    elapsed_ms: f64,
    purchase_ms: f64,
    stall_ms: f64,
    messages: u64,
    backlog: u64,
    rounds: u64,
    answers_served: u64,
    cache_hits: u64,
    events: u64,
    budget_granted: u64,
    shard_imbalance: f64,
}

fn run_cell(
    table: &UncertainTable,
    truth: &GroundTruth,
    grid: &Grid,
    tenants: usize,
    shards: usize,
    mode: RunMode,
) -> (Cell, Vec<UrReport>) {
    let crowd = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 10_000_000)
        .expect("valid vote policy");
    let mut service = TopKService::new(crowd)
        .with_shards(shards)
        .expect("topology set before any submit")
        .with_run_mode(mode)
        .with_fanout(64);
    let ids: Vec<_> = (0..tenants)
        .map(|t| {
            service
                .submit(
                    table,
                    SessionSpec::new(tenant_config(t, grid.worlds, grid.budget)),
                )
                .expect("valid tenant config")
        })
        .collect();
    // Time only the serving loop: session construction (TPO build) is
    // submit-time work, identical across shards and run modes.
    let t0 = Instant::now();
    let metrics = service.run_to_completion().clone();
    let elapsed = t0.elapsed();
    assert_eq!(
        metrics.completed as usize, tenants,
        "every tenant completes"
    );
    assert_eq!(metrics.failed, 0);
    let reports: Vec<UrReport> = ids
        .iter()
        .map(|id| service.report(*id).expect("done").clone())
        .collect();
    (
        Cell {
            tenants,
            shards,
            mode,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            purchase_ms: metrics.purchase_time.as_secs_f64() * 1e3,
            stall_ms: metrics.coordinator_stall.as_secs_f64() * 1e3,
            messages: metrics.channel_messages,
            backlog: metrics.channel_backlog_max,
            rounds: metrics.rounds,
            answers_served: metrics.answers_served,
            cache_hits: metrics.cache_hits,
            events: metrics.events_processed,
            budget_granted: metrics.budget_granted,
            shard_imbalance: metrics.shard_imbalance(),
        },
        reports,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small_mode = args.iter().any(|a| a == "--small");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let grid = if small_mode { small() } else { full() };
    let cores = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    eprintln!(
        "# threaded shard topology: tenants {:?} x shards {:?} x modes [event, event_threaded] (n={}, worlds={}, budget={}, {} cores){}",
        grid.tenants,
        grid.shards,
        grid.tuples,
        grid.worlds,
        grid.budget,
        cores,
        if small_mode { " [small]" } else { "" }
    );

    let table = generate(&DatasetSpec::paper_default(grid.tuples, 0.4, 7)).expect("valid spec");
    let truth = GroundTruth::sample(&table, 4242);

    let mut cells: Vec<Cell> = Vec::new();
    for &tenants in &grid.tenants {
        // The row anchor: single-threaded event mode at one shard.
        let (anchor, reference) = run_cell(&table, &truth, &grid, tenants, 1, RunMode::Event);
        print_cell(&anchor);
        cells.push(anchor);
        for &shards in &grid.shards {
            for mode in [RunMode::Event, RunMode::EventThreaded] {
                if shards == 1 && mode == RunMode::Event {
                    continue; // the anchor itself
                }
                let (cell, reports) = run_cell(&table, &truth, &grid, tenants, shards, mode);
                for (t, (a, b)) in reference.iter().zip(&reports).enumerate() {
                    assert!(
                        a.same_outcome(b),
                        "tenant {t} diverged at {tenants} tenants / {shards} shards / {mode:?}"
                    );
                }
                print_cell(&cell);
                cells.push(cell);
            }
        }
    }

    // PR acceptance: at the largest tenant count, the threaded topology
    // at 4 shards beats single-threaded event mode at 4 shards >= 2x on
    // serving time. A core-starved host cannot show a parallel speedup
    // (the same workers time-slice one core and pay the channel tax on
    // top), so the assertion arms on >= 4 cores only — the JSON carries
    // the honest numbers either way.
    let top_tenants = *grid.tenants.iter().max().unwrap_or(&0);
    let top = |mode: RunMode| {
        cells
            .iter()
            .find(|c| c.tenants == top_tenants && c.shards == 4 && c.mode == mode)
            .map(|c| c.elapsed_ms)
    };
    if let (Some(event_ms), Some(threaded_ms)) = (top(RunMode::Event), top(RunMode::EventThreaded))
    {
        let speedup = event_ms / threaded_ms.max(1e-9);
        eprintln!(
            "# 4-shard speedup at {top_tenants} tenants: {speedup:.2}x (event {event_ms:.1} ms vs threaded {threaded_ms:.1} ms)"
        );
        if cores >= 4 {
            assert!(
                speedup >= 2.0,
                "threaded 4-shard speedup {speedup:.2}x below the 2x acceptance bar"
            );
        } else {
            eprintln!("# {cores} core(s): the 2x acceptance assertion arms on >= 4 cores");
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"bench_pr10\",\n  \"mode\": \"{}\",\n  \"cores\": {},\n  \"config\": {{ \"tuples\": {}, \"worlds\": {}, \"budget\": {}, \"fanout\": 64 }},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if small_mode { "small" } else { "full" },
        cores,
        grid.tuples,
        grid.worlds,
        grid.budget,
        cells
            .iter()
            .map(|c| format!(
                "    {{ \"tenants\": {}, \"shards\": {}, \"run_mode\": \"{}\", \"elapsed_ms\": {:.1}, \"purchase_ms\": {:.1}, \"stall_ms\": {:.1}, \"messages\": {}, \"backlog\": {}, \"rounds\": {}, \"answers_served\": {}, \"cache_hits\": {}, \"events\": {}, \"budget_granted\": {}, \"shard_imbalance\": {:.3} }}",
                c.tenants,
                c.shards,
                mode_str(c.mode),
                c.elapsed_ms,
                c.purchase_ms,
                c.stall_ms,
                c.messages,
                c.backlog,
                c.rounds,
                c.answers_served,
                c.cache_hits,
                c.events,
                c.budget_granted,
                c.shard_imbalance,
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_PR10.json");
    eprintln!("# wrote {out}");
}

fn print_cell(cell: &Cell) {
    eprintln!(
        "# tenants {:>6} shards {:>2} {:<14}: {:>9.1} ms total, {:>8.1} ms purchase, {:>7.1} ms stall, {:>8} msgs, backlog {:>3}, {:>5} rounds, {:>7} answers ({} cached), imbalance {:.3}",
        cell.tenants,
        cell.shards,
        mode_str(cell.mode),
        cell.elapsed_ms,
        cell.purchase_ms,
        cell.stall_ms,
        cell.messages,
        cell.backlog,
        cell.rounds,
        cell.answers_served,
        cell.cache_hits,
        cell.shard_imbalance,
    );
}
