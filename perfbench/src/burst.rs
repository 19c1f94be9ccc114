//! `fleet-burst`: tens of thousands of cheap tenants submitted at once and
//! served with `run_to_completion`.
//!
//! Every tenant queries one shared table (n = 8, 256 worlds, budget 4)
//! with one of 8 (k, engine seed) configurations and a mix of T1-on,
//! TB-off and incr, over a perfect crowd. The service runs 2 shards with
//! fanout 64. Bursts repeat, each on a fresh service, until the run time is
//! spent; every burst must reproduce the first one exactly.
//!
//! The timed bursts run the event loop on the calling thread. On the
//! threaded topology (one worker thread per shard) a burst makes ~110 000
//! channel round trips between coordinator and workers, and on a 2-vCPU
//! virtual machine their wake-up latency made serve time swing up to 2.5x
//! between runs of identical work, more than any bounded metric can carry.
//! Traced runs serve one more burst on the threaded topology, check it
//! against the event loop's reports, and report its `topology.*` figures.

use crate::check::{fold, report_digest, report_is_valid};
use crate::crowd::{derive, MeteredCrowd};
use crate::drive::{self, LayerTimes, SessionInput};
use crate::stats::{median, peak_rss_mb, quantile, rss_kb};
use crate::trace::{begin_opt, end_opt, Recorder};
use crate::{prepare_table, Args, Outcome, PreparedTable, SetupClock, SETUP_WINDOW};
use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrReport};
use ctk_crowd::{Answer, CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::{generate, DatasetSpec};
use ctk_rank::RankList;
use ctk_service::{RunMode, ServiceMetrics, SessionSpec, SessionState, TopKService};
use ctk_tpo::build::{Engine, McConfig};
use std::time::{Duration, Instant};

const TENANTS: usize = 20_000;
const TUPLES: usize = 8;
const WORLDS: usize = 256;
const BUDGET: usize = 4;
const SHARDS: usize = 2;
const FANOUT: usize = 64;
/// Distinct (k, engine seed) configurations.
const CONFIGS: usize = 8;
const DEPTHS: [usize; 2] = [2, 3];
/// The shared table is BENCH_PR10's; the seed draws the true world, the
/// world samples and the selectors' randomness.
const TABLE_SEED: u64 = 7;

struct Inputs {
    prepared: PreparedTable,
    truth: GroundTruth,
    tops: Vec<(usize, RankList)>,
    specs: Vec<SessionSpec>,
}

impl Inputs {
    fn top(&self, k: usize) -> &RankList {
        &self
            .tops
            .iter()
            .find(|(d, _)| *d == k)
            .expect("top-K for every depth")
            .1
    }
}

fn tenant_config(seed: u64, tenant: usize) -> SessionConfig {
    let c = tenant % CONFIGS;
    let algorithm = match tenant % 4 {
        0 | 1 => Algorithm::T1On,
        2 => Algorithm::TbOff,
        _ => Algorithm::Incr {
            questions_per_round: 2,
        },
    };
    SessionConfig {
        k: DEPTHS[c % 2],
        budget: BUDGET,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(WORLDS, derive(seed, 4, c as u64))),
        seed: derive(seed, 5, (tenant % 16) as u64),
        uncertainty_target: None,
    }
}

fn make_inputs(seed: u64, rec: &mut Recorder) -> Inputs {
    let table = generate(&DatasetSpec::paper_default(TUPLES, 0.4, TABLE_SEED))
        .expect("static dataset spec is valid");
    let truth = GroundTruth::sample(&table, derive(seed, 7, 0));
    let tops = DEPTHS.iter().map(|&k| (k, truth.top_k(k))).collect();
    let specs = (0..TENANTS)
        .map(|t| SessionSpec::new(tenant_config(seed, t)))
        .collect();
    Inputs {
        prepared: prepare_table(table, &DEPTHS, rec),
        truth,
        tops,
        specs,
    }
}

type Crowd = MeteredCrowd<CrowdSimulator<PerfectWorker>>;

/// One burst's measurements; the service is kept for checks and replay.
struct Burst {
    service: TopKService<Crowd>,
    ids: Vec<ctk_service::SessionId>,
    submit: Duration,
    serve: Duration,
    /// Per tenant: enqueue-to-done latency, and burst start to done.
    query_s: Vec<f64>,
    result_ms: Vec<f64>,
    rss_delta_kb: f64,
    metrics: ServiceMetrics,
}

fn burst(inputs: &Inputs, mode: RunMode, mut rec: Option<&mut Recorder>) -> Burst {
    let sim = CrowdSimulator::new(
        inputs.truth.clone(),
        PerfectWorker,
        VotePolicy::Single,
        10_000_000,
    )
    .expect("single-vote policy is valid");
    let mut service = TopKService::new(MeteredCrowd::new(sim, rec.is_some()))
        .with_shards(SHARDS)
        .expect("topology is set before any submit")
        .with_run_mode(mode)
        .with_fanout(FANOUT)
        .with_threads(1);
    let rss0 = rss_kb();
    let t0 = Instant::now();
    let mut submitted_at = Vec::with_capacity(TENANTS);
    let mut ids = Vec::with_capacity(TENANTS);
    for spec in &inputs.specs {
        let span = begin_opt(&mut rec, "service.submit", Some(ids.len() as u64));
        let id = service
            .submit_with_truth(
                &inputs.prepared.table,
                spec.clone(),
                Some(inputs.top(spec.config.k)),
            )
            .expect("tenant configs are valid");
        end_opt(&mut rec, span);
        submitted_at.push(t0.elapsed());
        ids.push(id);
    }
    let submit = t0.elapsed();
    let rss_delta_kb = rss_kb() - rss0;
    let span = begin_opt(&mut rec, "service.run", None);
    let t1 = Instant::now();
    let metrics = service.run_to_completion().clone();
    let serve = t1.elapsed();
    end_opt(&mut rec, span);
    if let Some(r) = rec {
        r.attach_within("crowd.ask", &service.crowd().intervals, "service.run");
    }
    let view = service.registry();
    let mut query_s = Vec::with_capacity(TENANTS);
    let mut result_ms = Vec::with_capacity(TENANTS);
    for (id, at) in ids.iter().zip(&submitted_at) {
        let latency = view.latency(*id).unwrap_or(submit + serve);
        query_s.push(latency.as_secs_f64());
        result_ms.push((*at + latency).as_secs_f64() * 1e3);
    }
    Burst {
        service,
        ids,
        submit,
        serve,
        query_s,
        result_ms,
        rss_delta_kb,
        metrics,
    }
}

/// Per-tenant digests of a finished burst (0 for a tenant without a valid
/// report), and the number of tenants that failed their checks, which
/// include differing from `reference` (the first burst) when given.
fn check_burst(inputs: &Inputs, b: &Burst, reference: Option<&[u64]>) -> (Vec<u64>, u64) {
    let truth = &inputs.truth;
    let answer = |q| Answer {
        question: q,
        yes: truth.true_answer(&q),
    };
    let mut failed = 0;
    let mut digests = Vec::with_capacity(b.ids.len());
    // Tenants with one full configuration (tenant mod 16) must agree.
    let mut class_digest: [Option<u64>; 16] = [None; 16];
    for (t, (id, spec)) in b.ids.iter().zip(&inputs.specs).enumerate() {
        let report = match (b.service.state(*id), b.service.report(*id)) {
            (Some(SessionState::Done), Some(r))
                if report_is_valid(r, spec.config.k, TUPLES, BUDGET, answer) =>
            {
                Some(r)
            }
            _ => None,
        };
        let d = report.map_or(0, report_digest);
        let class = class_digest[t % 16].get_or_insert(d);
        if report.is_none() || *class != d || reference.is_some_and(|r| r[t] != d) {
            failed += 1;
        }
        digests.push(d);
    }
    (digests, failed)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut setup_rec = Recorder::new();
    let (mut setup, inputs) = SetupClock::first(|last| {
        let mut scratch = Recorder::new();
        make_inputs(args.seed, if last { &mut setup_rec } else { &mut scratch })
    });
    let mut rec = setup_rec;

    let start = Instant::now();
    let first = burst(&inputs, RunMode::Event, None);
    let (reference, failed) = check_burst(&inputs, &first, None);
    out.attempted += TENANTS as u64;
    out.failed += failed;
    out.check_digest(args, "*", fold(reference.iter().copied()), TENANTS as u64);
    if args.record {
        return;
    }
    let reports: Vec<&UrReport> = first
        .ids
        .iter()
        .filter_map(|id| first.service.report(*id))
        .collect();
    out.quality(&reports, first.service.crowd().asks);
    drop(reports);

    let mut untraced = vec![summary(first)];
    let mut traced = Vec::new();
    let mut layers = None;
    while start.elapsed().as_secs_f64() < args.seconds as f64 || (args.trace && traced.is_empty()) {
        setup.sample(SETUP_WINDOW, || {
            make_inputs(args.seed, &mut Recorder::new())
        });
        let tracing = args.trace && traced.len() < untraced.len();
        let b = burst(&inputs, RunMode::Event, tracing.then_some(&mut rec));
        let (_, failed) = check_burst(&inputs, &b, Some(&reference));
        out.attempted += TENANTS as u64;
        out.failed += failed;
        if tracing && layers.is_none() {
            let (times, failed) = replay(&inputs, &b, &mut rec);
            out.attempted += TENANTS as u64;
            out.failed += failed;
            layers = Some(Traced {
                times,
                serve: b.serve,
                metrics: b.metrics.clone(),
                rss_delta_kb: b.rss_delta_kb,
                ask_time: b.service.crowd().ask_time,
                asks: b.service.crowd().asks,
            });
        }
        if tracing {
            traced.push(summary(b));
        } else {
            untraced.push(summary(b));
        }
    }

    out.set("setup_s", setup.value());
    let med = |f: fn(&Summary) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    out.set(
        "queries_per_s",
        med(|s| TENANTS as f64 / (s.submit + s.serve).as_secs_f64()),
    );
    out.set("query_s_p50", med(|s| s.query_s_p50));
    out.set("query_s_p90", med(|s| s.query_s_p90));
    out.set(
        "submit_us_per_query",
        med(|s| s.submit.as_secs_f64() * 1e6 / TENANTS as f64),
    );
    out.set("result_ms_p50", med(|s| s.result_ms_p50));
    out.set("result_ms_p90", med(|s| s.result_ms_p90));
    out.set("peak_rss_mb", peak_rss_mb());

    if let Some(t) = layers {
        let threaded = burst(&inputs, RunMode::EventThreaded, None);
        eprintln!(
            "#   threaded topology burst: submit {:.3} s, serve {:.3} s",
            threaded.submit.as_secs_f64(),
            threaded.serve.as_secs_f64()
        );
        let (_, failed) = check_burst(&inputs, &threaded, Some(&reference));
        out.attempted += TENANTS as u64;
        out.failed += failed;
        let wall = |v: &[Summary]| {
            median(
                &v.iter()
                    .map(|s| (s.submit + s.serve).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = (wall(&traced) / wall(&untraced) - 1.0) * 100.0;
        layer_metrics(&t, &threaded.metrics, overhead, &rec, out);
        out.write_trace(args, &rec);
    }
}

/// The traced burst's service-side measurements and its replay's times.
struct Traced {
    times: LayerTimes,
    serve: Duration,
    metrics: ServiceMetrics,
    rss_delta_kb: f64,
    ask_time: Duration,
    asks: u64,
}

/// What is kept of a burst once its checks are done.
struct Summary {
    submit: Duration,
    serve: Duration,
    query_s_p50: f64,
    query_s_p90: f64,
    result_ms_p50: f64,
    result_ms_p90: f64,
}

fn summary(b: Burst) -> Summary {
    eprintln!(
        "#   burst: submit {:.3} s, serve {:.3} s",
        b.submit.as_secs_f64(),
        b.serve.as_secs_f64()
    );
    Summary {
        submit: b.submit,
        serve: b.serve,
        query_s_p50: quantile(&b.query_s, 0.5),
        query_s_p90: quantile(&b.query_s, 0.9),
        result_ms_p50: quantile(&b.result_ms, 0.5),
        result_ms_p90: quantile(&b.result_ms, 0.9),
    }
}

/// Replays every tenant of `b` on a standalone driver (see
/// [`crate::drive::replay`]).
fn replay(inputs: &Inputs, b: &Burst, rec: &mut Recorder) -> (LayerTimes, u64) {
    let sessions = b.ids.iter().zip(&inputs.specs).map(|(id, spec)| {
        let k = spec.config.k;
        let crowd = CrowdSimulator::new(
            inputs.truth.clone(),
            PerfectWorker,
            VotePolicy::Single,
            BUDGET,
        )
        .expect("single-vote policy is valid");
        let input = SessionInput {
            config: spec.config.clone(),
            table: &inputs.prepared.table,
            truth: Some(inputs.top(k)),
            pairwise: inputs.prepared.pairwise.clone(),
            bounds: Some(inputs.prepared.bounds(k)),
        };
        (input, crowd, b.service.report(*id))
    });
    drive::replay(sessions, rec)
}

fn layer_metrics(
    t: &Traced,
    threaded: &ServiceMetrics,
    overhead_pct: f64,
    rec: &Recorder,
    out: &mut Outcome,
) {
    let m = &t.metrics;
    t.times.write(out);
    out.layer("select.calls", t.times.total.select_calls as f64);
    out.layer("tpo.worlds_drawn", m.worlds_drawn as f64);
    out.prob_layers(rec);
    let submit = rec
        .totals()
        .get("service.submit")
        .copied()
        .unwrap_or_default();
    out.layer(
        "service.submit_us",
        submit.total.as_secs_f64() * 1e6 / submit.count.max(1) as f64,
    );
    out.layer("service.sweeps", m.rounds as f64);
    out.layer("service.kb_per_query", t.rss_delta_kb / TENANTS as f64);
    out.layer(
        "service.bookkeeping_s",
        t.serve.as_secs_f64() - t.times.total.driver_time().as_secs_f64(),
    );
    out.layer("service.purchase_ms", m.purchase_time.as_secs_f64() * 1e3);
    out.layer("service.cache_hit_ratio", m.cache_hit_rate());
    out.layer("crowd.asks", t.asks as f64);
    out.layer(
        "crowd.us_per_ask",
        t.ask_time.as_secs_f64() * 1e6 / t.asks.max(1) as f64,
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
    out.layer("trace.overhead_pct", overhead_pct);
}
