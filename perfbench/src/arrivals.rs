//! `fleet-arrivals`: an open loop of queries arriving at a fixed rate on
//! the fig1 table, served by the single-threaded event loop (`submit` and
//! `pump`).
//!
//! Every query has its own engine seed, so no build product can be shared;
//! priorities cycle through {0, 1, 2} and algorithms through naive and
//! incr. The crowd is noisy ([`NoisyCrowd`]: accuracy below 1, so answers
//! take the Bayesian update path) and timing-independent, so every query's
//! report is the same whatever the arrival schedule. Each query is timed
//! from the moment it was due to the sweep after which the benchmark sees
//! it finished.
//!
//! Traced runs also serve every query at once on the threaded topology
//! (`THREADED_SHARDS` shards, one worker thread each), check the reports
//! against the open loop's, and report its `topology.*` figures.

use crate::check::{fold, report_digest, report_is_valid};
use crate::crowd::{derive, MeteredCrowd, NoisyCrowd};
use crate::drive::{self, LayerTimes, SessionInput};
use crate::stats::{mean, peak_rss_mb, quantile, rss_kb};
use crate::trace::{begin_opt, end_opt, Recorder};
use crate::{prepare_table, Args, Outcome, PreparedTable, SetupClock};
use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrReport};
use ctk_crowd::GroundTruth;
use ctk_datagen::scenarios;
use ctk_rank::RankList;
use ctk_service::{RunMode, ServiceMetrics, SessionId, SessionSpec, SessionState, TopKService};
use ctk_tpo::build::{Engine, McConfig};
use std::time::{Duration, Instant};

/// Arrivals per second: a sixth of the loop's capacity on a 2-vCPU host,
/// so it stays below the knee when the host runs 1.5x slower, as it did at
/// times while this was tuned (at 200/s the p90 spread reached 0.6).
const RATE: f64 = 100.0;
const K: usize = 5;
const TUPLES: usize = 20;
const BUDGET: usize = 5;
const WORLDS: usize = 256;
const ACCURACY: f64 = 0.8;
const FANOUT: usize = 64;
const THREADED_SHARDS: usize = 2;
/// Set-up is timed (see [`SetupClock`]) for `IDLE_SETUP_WINDOW` in an
/// idle gap of the open loop that leaves at least `IDLE_GAP` before the
/// next arrival, at most once per `IDLE_EVERY`, so that it never delays an
/// arrival and runs before one query in a hundred.
const IDLE_GAP: Duration = Duration::from_millis(3);
const IDLE_EVERY: Duration = Duration::from_secs(1);
const IDLE_SETUP_WINDOW: Duration = Duration::from_micros(500);
/// The fig1 harness table the queries run on; the seed draws the true
/// world, the per-query world samples and the crowd's noise.
const TABLE_SLOT: u64 = 0;

struct Inputs {
    prepared: PreparedTable,
    truth: GroundTruth,
    top: RankList,
    crowd_seed: u64,
    specs: Vec<SessionSpec>,
}

fn query_spec(seed: u64, i: usize) -> SessionSpec {
    let algorithm = if i.is_multiple_of(2) {
        Algorithm::Naive
    } else {
        Algorithm::Incr {
            questions_per_round: 1,
        }
    };
    SessionSpec::new(SessionConfig {
        k: K,
        budget: BUDGET,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(WORLDS, derive(seed, 9, i as u64))),
        seed: derive(seed, 10, i as u64),
        uncertainty_target: None,
    })
    .with_priority((i % 3) as u8)
}

fn make_inputs(seed: u64, queries: usize, rec: &mut Recorder) -> Inputs {
    let scenario = scenarios::fig1(TABLE_SLOT);
    let truth = GroundTruth::sample(&scenario.table, derive(seed, 11, 0));
    let top = truth.top_k(K);
    Inputs {
        prepared: prepare_table(scenario.table, &[K], rec),
        truth,
        top,
        crowd_seed: derive(seed, 12, 0),
        specs: (0..queries).map(|i| query_spec(seed, i)).collect(),
    }
}

impl Inputs {
    fn crowd(&self, budget: usize) -> NoisyCrowd {
        NoisyCrowd::new(self.truth.clone(), self.crowd_seed, ACCURACY, budget)
    }
}

type Service = TopKService<MeteredCrowd<NoisyCrowd>>;

fn service(inputs: &Inputs, keep_intervals: bool) -> Service {
    TopKService::new(MeteredCrowd::new(
        inputs.crowd(usize::MAX / 2),
        keep_intervals,
    ))
    .with_run_mode(RunMode::Event)
    .with_fanout(FANOUT)
    .with_threads(1)
}

/// One served schedule.
struct Served {
    service: Service,
    ids: Vec<SessionId>,
    /// Per query: due to seen, and enqueue to done (registry latency).
    result_ms: Vec<f64>,
    query_s: Vec<f64>,
    submit_time: Duration,
    pump_time: Duration,
    late_max: Duration,
    rss_delta_kb: f64,
    /// Per sweep: queries the scheduler picked.
    scheduled: Vec<usize>,
    metrics: ServiceMetrics,
}

/// Serves every query of `inputs`, query `i` due at `i / rate` seconds
/// (`rate = None`: all due at once), recording `service.*` spans when a
/// recorder is given. `idle`, when given, runs in an idle gap of at least
/// `IDLE_GAP`, at most once per `IDLE_EVERY`.
fn serve(
    inputs: &Inputs,
    rate: Option<f64>,
    mut rec: Option<&mut Recorder>,
    mut idle: Option<&mut dyn FnMut()>,
) -> Served {
    let mut service = service(inputs, rec.is_some());
    let n = inputs.specs.len();
    let due = |i: usize| rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(i as f64 / r));
    let mut ids = Vec::with_capacity(n);
    let mut result_ms = vec![0.0; n];
    let mut outstanding: Vec<(usize, SessionId)> = Vec::new();
    let (mut submit_time, mut pump_time, mut late_max) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut scheduled = Vec::new();
    let rss0 = rss_kb();
    let start = Instant::now();
    let mut last_idle = start;
    loop {
        let now = start.elapsed();
        while ids.len() < n && due(ids.len()) <= now {
            let i = ids.len();
            late_max = late_max.max(start.elapsed().saturating_sub(due(i)));
            let span = begin_opt(&mut rec, "service.submit", Some(i as u64));
            let t0 = Instant::now();
            let id = service
                .submit_with_truth(
                    &inputs.prepared.table,
                    inputs.specs[i].clone(),
                    Some(&inputs.top),
                )
                .expect("query configs are valid");
            submit_time += t0.elapsed();
            end_opt(&mut rec, span);
            ids.push(id);
            outstanding.push((i, id));
        }
        if outstanding.is_empty() {
            if ids.len() == n {
                break;
            }
            if let Some(idle) = idle.as_deref_mut() {
                let gap = due(ids.len()).saturating_sub(start.elapsed());
                if gap >= IDLE_GAP && last_idle.elapsed() >= IDLE_EVERY {
                    idle();
                    last_idle = Instant::now();
                }
            }
            wait_until(start, due(ids.len()));
            continue;
        }
        let span = begin_opt(&mut rec, "service.sweep", None);
        let t0 = Instant::now();
        let round = service.pump();
        pump_time += t0.elapsed();
        end_opt(&mut rec, span);
        scheduled.push(round.scheduled);
        let seen = start.elapsed();
        outstanding.retain(|&(i, id)| match service.state(id) {
            Some(SessionState::Done | SessionState::Failed) => {
                result_ms[i] = seen.saturating_sub(due(i)).as_secs_f64() * 1e3;
                false
            }
            _ => true,
        });
        if !round.progressed() && ids.len() == n {
            // Nothing can move any more: leave the rest unfinished (they
            // fail their checks).
            break;
        }
    }
    let rss_delta_kb = rss_kb() - rss0;
    if let Some(r) = rec {
        r.attach_within("crowd.ask", &service.crowd().intervals, "service.sweep");
    }
    let view = service.registry();
    let query_s = ids
        .iter()
        .map(|id| view.latency(*id).map_or(0.0, |l| l.as_secs_f64()))
        .collect();
    let metrics = service.metrics().clone();
    Served {
        service,
        ids,
        result_ms,
        query_s,
        submit_time,
        pump_time,
        late_max,
        rss_delta_kb,
        scheduled,
        metrics,
    }
}

/// Waits until `at` after `start` by spinning. Sleeping between arrivals
/// let the vCPU go idle, and the next query then ran on caches the host had
/// given to other work (see README.md).
fn wait_until(start: Instant, at: Duration) {
    while start.elapsed() < at {
        std::hint::spin_loop();
    }
}

/// Per-query digests (0 for a query without a valid report) and the
/// number of queries that failed their checks, which include differing
/// from `reference` when given.
fn check(
    inputs: &Inputs,
    service: &Service,
    ids: &[SessionId],
    reference: Option<&[u64]>,
) -> (Vec<u64>, u64) {
    let crowd = inputs.crowd(0);
    let mut failed = 0;
    let digests = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let report = match (service.state(*id), service.report(*id)) {
                (Some(SessionState::Done), Some(r))
                    if report_is_valid(r, K, TUPLES, BUDGET, |q| crowd.answer(q)) =>
                {
                    Some(r)
                }
                _ => None,
            };
            let d = report.map_or(0, report_digest);
            failed += u64::from(report.is_none() || reference.is_some_and(|r| r[i] != d));
            d
        })
        .collect();
    (digests, failed)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let queries = (RATE * args.seconds as f64).round().max(1.0) as usize;
    let mut setup_rec = Recorder::new();
    let (mut setup, inputs) = SetupClock::first(|last| {
        let mut scratch = Recorder::new();
        make_inputs(
            args.seed,
            queries,
            if last { &mut setup_rec } else { &mut scratch },
        )
    });
    let mut rec = setup_rec;
    let seconds = args.seconds.to_string();

    let mut time_setup = || {
        setup.sample(IDLE_SETUP_WINDOW, || {
            make_inputs(args.seed, queries, &mut Recorder::new())
        })
    };
    let served = serve(
        &inputs,
        (!args.record).then_some(RATE),
        None,
        Some(&mut time_setup),
    );
    let (digests, failed) = check(&inputs, &served.service, &served.ids, None);
    out.attempted += queries as u64;
    out.failed += failed;
    out.check_digest(
        args,
        &seconds,
        fold(digests.iter().copied()),
        queries as u64,
    );
    if args.record {
        return;
    }
    out.set("setup_s", setup.value());
    out.set(
        "queries_per_s",
        queries as f64 / (served.submit_time + served.pump_time).as_secs_f64(),
    );
    out.set("query_s_p50", quantile(&served.query_s, 0.5));
    out.set("query_s_p90", quantile(&served.query_s, 0.9));
    out.set(
        "submit_us_per_query",
        served.submit_time.as_secs_f64() * 1e6 / queries as f64,
    );
    out.set("result_ms_p50", quantile(&served.result_ms, 0.5));
    out.set("result_ms_p90", quantile(&served.result_ms, 0.9));
    let reports: Vec<&UrReport> = served
        .ids
        .iter()
        .filter_map(|id| served.service.report(*id))
        .collect();
    out.quality(&reports, served.service.crowd().asks);
    out.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "#   generator ran at most {:.3} ms late",
        served.late_max.as_secs_f64() * 1e3
    );

    if args.trace {
        let traced = serve(&inputs, Some(RATE), Some(&mut rec), None);
        let (_, failed) = check(&inputs, &traced.service, &traced.ids, Some(&digests));
        out.attempted += queries as u64;
        out.failed += failed;
        let (times, failed) = replay(&inputs, &traced, &mut rec);
        out.attempted += queries as u64;
        out.failed += failed;
        let busy = |s: &Served| (s.submit_time + s.pump_time).as_secs_f64();
        let overhead = (busy(&traced) / busy(&served) - 1.0) * 100.0;
        let (topology, failed) = threaded(&inputs, &digests);
        out.attempted += queries as u64;
        out.failed += failed;
        layer_metrics(&traced, &times, &topology, overhead, &rec, out);
        out.write_trace(args, &rec);
    }
}

/// Serves every query at once on the threaded topology and returns its
/// metrics and the number of queries whose report is invalid or differs
/// from `reference` (the open loop's digests).
fn threaded(inputs: &Inputs, reference: &[u64]) -> (ServiceMetrics, u64) {
    let mut service = TopKService::new(MeteredCrowd::new(inputs.crowd(usize::MAX / 2), false))
        .with_shards(THREADED_SHARDS)
        .expect("topology is set before any submit")
        .with_run_mode(RunMode::EventThreaded)
        .with_fanout(FANOUT)
        .with_threads(1);
    let ids: Vec<SessionId> = inputs
        .specs
        .iter()
        .map(|spec| {
            service
                .submit_with_truth(&inputs.prepared.table, spec.clone(), Some(&inputs.top))
                .expect("query configs are valid")
        })
        .collect();
    let t0 = Instant::now();
    let metrics = service.run_to_completion().clone();
    eprintln!(
        "#   threaded topology serve of all queries: {:.3} s",
        t0.elapsed().as_secs_f64()
    );
    let (_, failed) = check(inputs, &service, &ids, Some(reference));
    (metrics, failed)
}

/// Replays every query on a standalone driver against the same answer
/// model (see [`crate::drive::replay`]).
fn replay(inputs: &Inputs, s: &Served, rec: &mut Recorder) -> (LayerTimes, u64) {
    let sessions = s.ids.iter().zip(&inputs.specs).map(|(id, spec)| {
        let input = SessionInput {
            config: spec.config.clone(),
            table: &inputs.prepared.table,
            truth: Some(&inputs.top),
            pairwise: inputs.prepared.pairwise.clone(),
            bounds: Some(inputs.prepared.bounds(K)),
        };
        (
            input,
            inputs.crowd(spec.config.budget),
            s.service.report(*id),
        )
    });
    drive::replay(sessions, rec)
}

fn layer_metrics(
    s: &Served,
    times: &LayerTimes,
    threaded: &ServiceMetrics,
    overhead_pct: f64,
    rec: &Recorder,
    out: &mut Outcome,
) {
    let n = s.ids.len().max(1) as f64;
    let m = &s.metrics;
    times.write(out);
    out.layer("select.calls", times.total.select_calls as f64);
    out.layer("tpo.worlds_drawn", m.worlds_drawn as f64);
    out.prob_layers(rec);
    out.layer("service.submit_us", s.submit_time.as_secs_f64() * 1e6 / n);
    let sweeps = rec.durations_ms("service.sweep");
    out.layer("service.sweeps", sweeps.len() as f64);
    out.layer("service.sweep_ms_p50", quantile(&sweeps, 0.5));
    out.layer("service.sweep_ms_p90", quantile(&sweeps, 0.9));
    out.layer(
        "service.scheduled_per_sweep",
        mean(&s.scheduled.iter().map(|&x| x as f64).collect::<Vec<_>>()),
    );
    out.layer("service.kb_per_query", s.rss_delta_kb / n);
    out.layer(
        "service.bookkeeping_s",
        s.pump_time.as_secs_f64() - times.total.driver_time().as_secs_f64(),
    );
    out.layer("service.purchase_ms", m.purchase_time.as_secs_f64() * 1e3);
    out.layer("service.cache_hit_ratio", m.cache_hit_rate());
    let crowd = s.service.crowd();
    out.layer("crowd.asks", crowd.asks as f64);
    out.layer(
        "crowd.us_per_ask",
        crowd.ask_time.as_secs_f64() * 1e6 / crowd.asks.max(1) as f64,
    );
    out.layer(
        "topology.coordinator_stall_s",
        threaded.coordinator_stall.as_secs_f64(),
    );
    out.layer(
        "topology.channel_messages",
        threaded.channel_messages as f64,
    );
    out.layer("topology.backlog_max", threaded.channel_backlog_max as f64);
    out.layer("topology.shard_imbalance", threaded.shard_imbalance());
    out.layer("gen.late_ms_max", s.late_max.as_secs_f64() * 1e3);
    out.layer("trace.overhead_pct", overhead_pct);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The answer model makes outcomes independent of timing: a burst
    /// schedule and a rate schedule of the same seed give identical
    /// per-query reports.
    #[test]
    fn burst_and_rate_schedules_agree() {
        let inputs = make_inputs(7, 60, &mut Recorder::new());
        let burst = serve(&inputs, None, None, None);
        let paced = serve(&inputs, Some(400.0), None, None);
        assert_eq!(check(&inputs, &burst.service, &burst.ids, None).1, 0);
        assert_eq!(check(&inputs, &paced.service, &paced.ids, None).1, 0);
        for (a, b) in burst.ids.iter().zip(&paced.ids) {
            let (a, b) = (burst.service.report(*a), paced.service.report(*b));
            assert!(a.expect("done").same_outcome(b.expect("done")));
        }
        assert!(burst.metrics.cache_hits > 0, "queries share answers");
    }
}
