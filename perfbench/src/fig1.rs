//! `paper-fig1`: the paper's own scale (Fig. 1: n = 20, K = 5, U_Hw,
//! budget 15, 5 000 Monte-Carlo worlds) served by one closed-loop client.
//!
//! A pass runs each algorithm of the mix once, one session after another,
//! through `UrSession::run_with_truth` with a perfect crowd. Query `slot`
//! of the pass runs on the fig1 harness's table `scenarios::fig1(slot)`
//! with the harness's world sample (engine seed = slot); the seed draws each
//! table's true world and the selectors' randomness. Passes repeat until
//! the run time is spent, and every pass must reproduce the first one.

use crate::check::{fold, report_digest, report_is_valid};
use crate::crowd::{derive, MeteredCrowd};
use crate::drive::{drive, DriverTimes, LayerTimes, SessionInput};
use crate::stats::{mean, median, peak_rss_mb, quantile};
use crate::trace::Recorder;
use crate::{prepare_table, Args, Outcome, PreparedTable, SetupClock, SETUP_WINDOW};
use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrReport, UrSession};
use ctk_crowd::{Answer, CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::scenarios;
use ctk_rank::RankList;
use ctk_tpo::build::{Engine, McConfig};
use std::time::{Duration, Instant};

const K: usize = 5;
const BUDGET: usize = 15;
const WORLDS: usize = 5_000;

/// The algorithm mix in pass order; query `slot` runs on `fig1(slot)`.
/// C-off comes first, on the harness's first table: its cost grows
/// steeply with the TPO, and on the larger harness tables one C-off query
/// alone takes several seconds, which would leave too few passes per run
/// to take medians over.
fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::COff,
        Algorithm::Naive,
        Algorithm::TbOff,
        Algorithm::T1On,
        Algorithm::Incr {
            questions_per_round: 5,
        },
    ]
}

struct Query {
    prepared: PreparedTable,
    truth: GroundTruth,
    top: RankList,
    config: SessionConfig,
}

fn make_inputs(seed: u64, rec: &mut Recorder) -> Vec<Query> {
    algorithms()
        .into_iter()
        .enumerate()
        .map(|(slot, algorithm)| {
            let slot = slot as u64;
            let scenario = scenarios::fig1(slot);
            let truth = GroundTruth::sample(&scenario.table, derive(seed, 1, slot));
            Query {
                prepared: prepare_table(scenario.table, &[K], rec),
                top: truth.top_k(K),
                truth,
                config: SessionConfig {
                    k: K,
                    budget: BUDGET,
                    measure: MeasureKind::WeightedEntropy,
                    algorithm,
                    engine: Engine::MonteCarlo(McConfig::fixed(WORLDS, slot)),
                    seed: derive(seed, 3, slot),
                    uncertainty_target: None,
                },
            }
        })
        .collect()
}

/// One query's outcome in a pass.
struct Done {
    report: Option<UrReport>,
    wall: Duration,
    /// Until the session first consulted the crowd: the session build.
    submit: Duration,
    times: Option<DriverTimes>,
}

/// Runs one pass; traced passes go through the span-recording driver loop.
fn pass(queries: &[Query], mut rec: Option<&mut Recorder>) -> (Vec<Done>, Duration) {
    let t_pass = Instant::now();
    let mut out = Vec::with_capacity(queries.len());
    for (q, query) in queries.iter().enumerate() {
        let sim = CrowdSimulator::new(
            query.truth.clone(),
            PerfectWorker,
            VotePolicy::Single,
            BUDGET,
        )
        .expect("single-vote policy is valid");
        let mut crowd = MeteredCrowd::new(sim, false);
        let t0 = Instant::now();
        let (report, times) = match rec.as_deref_mut() {
            None => (
                UrSession::new(query.config.clone())
                    .and_then(|s| {
                        s.run_with_truth(&query.prepared.table, &mut crowd, Some(&query.top))
                    })
                    .ok(),
                None,
            ),
            Some(rec) => {
                let input = SessionInput {
                    config: query.config.clone(),
                    table: &query.prepared.table,
                    truth: Some(&query.top),
                    pairwise: query.prepared.pairwise.clone(),
                    bounds: Some(query.prepared.bounds(K)),
                };
                match drive(input, &mut crowd, rec, q as u64) {
                    Ok((r, t)) => (Some(r), Some(t)),
                    Err(_) => (None, None),
                }
            }
        };
        let wall = t0.elapsed();
        let submit = crowd
            .first_consulted
            .get()
            .map_or(wall, |t| t.saturating_duration_since(t0));
        out.push(Done {
            report,
            wall,
            submit,
            times,
        });
    }
    (out, t_pass.elapsed())
}

/// Checks one pass against the crowd and against the first pass; returns
/// the number of failed queries.
fn check_pass(queries: &[Query], done: &[Done], first: &[Option<UrReport>]) -> u64 {
    let mut failed = 0;
    for ((query, d), reference) in queries.iter().zip(done).zip(first) {
        let answer = |q| Answer {
            question: q,
            yes: query.truth.true_answer(&q),
        };
        let ok = match (&d.report, reference) {
            (Some(r), Some(reference)) => {
                report_is_valid(r, K, query.prepared.table.len(), BUDGET, answer)
                    && r.same_outcome(reference)
            }
            _ => false,
        };
        failed += u64::from(!ok);
    }
    failed
}

/// Per slot, the median over passes of `f`.
fn slot_medians(passes: &[(Vec<Done>, Duration)], f: fn(&Done) -> f64) -> Vec<f64> {
    (0..passes[0].0.len())
        .map(|s| median(&passes.iter().map(|(d, _)| f(&d[s])).collect::<Vec<_>>()))
        .collect()
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut setup_rec = Recorder::new();
    let (mut setup, queries) = SetupClock::first(|last| {
        let mut scratch = Recorder::new();
        make_inputs(args.seed, if last { &mut setup_rec } else { &mut scratch })
    });
    let mut rec = setup_rec;

    let start = Instant::now();
    let first = pass(&queries, None);
    let reference: Vec<Option<UrReport>> = first.0.iter().map(|d| d.report.clone()).collect();
    out.attempted += queries.len() as u64;
    out.failed += check_pass(&queries, &first.0, &reference);
    out.check_digest(
        args,
        "*",
        fold(
            reference
                .iter()
                .map(|r| r.as_ref().map_or(0, report_digest)),
        ),
        queries.len() as u64,
    );
    if args.record {
        return;
    }

    let mut untraced = vec![first];
    let mut traced: Vec<(Vec<Done>, Duration)> = Vec::new();
    while start.elapsed().as_secs_f64() < args.seconds as f64 || (args.trace && traced.is_empty()) {
        let (done, _) = if args.trace && traced.len() < untraced.len() {
            traced.push(pass(&queries, Some(&mut rec)));
            traced.last().expect("just pushed")
        } else {
            untraced.push(pass(&queries, None));
            untraced.last().expect("just pushed")
        };
        out.attempted += done.len() as u64;
        out.failed += check_pass(&queries, done, &reference);
        setup.sample(SETUP_WINDOW, || {
            make_inputs(args.seed, &mut Recorder::new())
        });
    }
    out.set("setup_s", setup.value());

    // Every pass does identical work, so per-slot medians over passes keep
    // one disturbed pass from moving the throughput, and the percentiles
    // of all passes' query times fall inside one algorithm's group of
    // values (p50: TB-off, p90: C-off) rather than between two.
    let walls = slot_medians(&untraced, |d| d.wall.as_secs_f64());
    out.set(
        "queries_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    let all: Vec<f64> = untraced
        .iter()
        .flat_map(|(d, _)| d.iter().map(|d| d.wall.as_secs_f64()))
        .collect();
    out.set("query_s_p50", quantile(&all, 0.5));
    out.set("query_s_p90", quantile(&all, 0.9));
    out.set(
        "submit_us_per_query",
        mean(&slot_medians(&untraced, |d| d.submit.as_secs_f64() * 1e6)),
    );
    out.set("result_ms_p50", quantile(&all, 0.5) * 1e3);
    out.set("result_ms_p90", quantile(&all, 0.9) * 1e3);
    let reports: Vec<&UrReport> = reference.iter().flatten().collect();
    let asks = reports.iter().map(|r| r.steps.len() as u64).sum();
    out.quality(&reports, asks);
    out.set("peak_rss_mb", peak_rss_mb());
    for (query, wall) in queries.iter().zip(&walls) {
        eprintln!(
            "#   {:8} median query {wall:.4} s",
            query.config.algorithm.name()
        );
    }

    if args.trace {
        layer_metrics(&queries, &untraced, &traced, &rec, out);
        out.write_trace(args, &rec);
    }
}

fn layer_metrics(
    queries: &[Query],
    untraced: &[(Vec<Done>, Duration)],
    traced: &[(Vec<Done>, Duration)],
    rec: &Recorder,
    out: &mut Outcome,
) {
    // Times pool every traced pass; work counters cover one pass (every
    // pass does identical work).
    let mut times = LayerTimes::default();
    for (done, _) in traced {
        for (query, d) in queries.iter().zip(done) {
            if let Some(t) = &d.times {
                times.add(&query.config.algorithm, t);
            }
        }
    }
    times.write(out);
    let one: Vec<&DriverTimes> = traced[0]
        .0
        .iter()
        .filter_map(|d| d.times.as_ref())
        .collect();
    out.layer(
        "select.calls",
        one.iter().map(|t| t.select_calls).sum::<u64>() as f64,
    );
    out.layer("crowd.asks", one.iter().map(|t| t.asks).sum::<u64>() as f64);
    out.layer(
        "tpo.worlds_drawn",
        traced[0]
            .0
            .iter()
            .filter_map(|d| d.report.as_ref())
            .map(|r| r.worlds_drawn as f64)
            .sum(),
    );
    let t = &times.total;
    out.layer(
        "crowd.us_per_ask",
        t.crowd.as_secs_f64() * 1e6 / t.asks.max(1) as f64,
    );
    out.prob_layers(rec);
    let med = |passes: &[(Vec<Done>, Duration)]| {
        median(
            &passes
                .iter()
                .map(|(_, w)| w.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.layer(
        "trace.overhead_pct",
        (med(traced) / med(untraced) - 1.0) * 100.0,
    );
}
