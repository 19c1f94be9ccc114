//! A standalone session, driven through `SessionDriver` the way
//! `UrSession::run_with_truth` drives it, with a span around every call
//! into a layer: `tpo.build` (`new_shared`), `select` (`next_batch`),
//! `crowd.ask` and `update.hard` / `update.bayes` (`feed`).
//!
//! The fig1 client uses it for its traced passes; the fleet workloads use
//! it to replay every query the service served, which both checks the
//! service's reports (`same_outcome`) and attributes driver time.

use crate::trace::Recorder;
use crate::Outcome;
use ctk_core::driver::{DriverStatus, SessionDriver, RELIABLE_ACCURACY};
use ctk_core::session::{Algorithm, SessionConfig, UrReport};
use ctk_core::Result;
use ctk_crowd::Crowd;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_rank::RankList;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time and work one driven session spent per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverTimes {
    pub build: Duration,
    pub select: Duration,
    pub select_calls: u64,
    pub questions: u64,
    pub update: Duration,
    pub answers: u64,
    /// True when answers went through the Bayesian (noisy) update.
    pub bayes: bool,
    pub crowd: Duration,
    pub asks: u64,
}

impl DriverTimes {
    /// Time spent inside the driver (selection and updates).
    pub fn driver_time(&self) -> Duration {
        self.select + self.update
    }

    pub fn add(&mut self, o: &DriverTimes) {
        self.build += o.build;
        self.select += o.select;
        self.select_calls += o.select_calls;
        self.questions += o.questions;
        self.update += o.update;
        self.answers += o.answers;
        self.bayes |= o.bayes;
        self.crowd += o.crowd;
        self.asks += o.asks;
    }
}

/// Everything a session needs besides its crowd.
pub struct SessionInput<'a> {
    pub config: SessionConfig,
    pub table: &'a UncertainTable,
    pub truth: Option<&'a RankList>,
    pub pairwise: Arc<PairwiseMatrix>,
    pub bounds: Option<Arc<TopKBounds>>,
}

fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    query: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let id = rec.begin(name, Some(query));
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed();
    rec.end(id);
    (out, took)
}

/// Runs one session to completion against `crowd`, recording spans under a
/// `query` span.
pub fn drive<C: Crowd>(
    input: SessionInput<'_>,
    crowd: &mut C,
    rec: &mut Recorder,
    query: u64,
) -> Result<(UrReport, DriverTimes)> {
    let span = rec.begin("query", Some(query));
    let mut t = DriverTimes::default();
    let report = run(input, crowd, rec, query, &mut t);
    rec.end(span);
    Ok((report?, t))
}

fn run<C: Crowd>(
    input: SessionInput<'_>,
    crowd: &mut C,
    rec: &mut Recorder,
    query: u64,
    t: &mut DriverTimes,
) -> Result<UrReport> {
    let SessionInput {
        config,
        table,
        truth,
        pairwise,
        bounds,
    } = input;
    let (driver, took) = timed(rec, "tpo.build", query, || {
        SessionDriver::new_shared(config, table, truth, pairwise, bounds)
    });
    t.build = took;
    let mut driver = driver?;
    let accuracy = crowd.answer_accuracy();
    t.bayes = accuracy < RELIABLE_ACCURACY;
    let update_span = if t.bayes {
        "update.bayes"
    } else {
        "update.hard"
    };
    loop {
        let remaining = crowd.remaining();
        let (batch, took) = timed(rec, "select", query, || driver.next_batch(remaining));
        let batch = batch?;
        t.select += took;
        t.select_calls += 1;
        t.questions += batch.len() as u64;
        if batch.is_empty() {
            break;
        }
        let mut answers = Vec::with_capacity(batch.len());
        for q in &batch {
            let (answer, took) = timed(rec, "crowd.ask", query, || crowd.ask(*q));
            t.crowd += took;
            t.asks += 1;
            match answer {
                Some(a) => answers.push(a),
                None => break,
            }
        }
        let (status, took) = timed(rec, update_span, query, || driver.feed(&answers, accuracy));
        t.update += took;
        t.answers += answers.len() as u64;
        if status? == DriverStatus::Done {
            break;
        }
    }
    driver.finish()
}

/// The per-algorithm metric key (`select.<key>.ms_per_question`).
pub fn alg_key(a: &Algorithm) -> &'static str {
    match a {
        Algorithm::Naive => "naive",
        Algorithm::TbOff => "tb_off",
        Algorithm::T1On => "t1_on",
        Algorithm::Incr { .. } => "incr",
        Algorithm::COff => "c_off",
        Algorithm::Random => "random",
        Algorithm::AStarOff { .. } => "astar_off",
        Algorithm::AStarOn { .. } => "astar_on",
    }
}

/// Driver times of many driven sessions, in total and per algorithm.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub total: DriverTimes,
    pub per_alg: BTreeMap<&'static str, DriverTimes>,
    pub sessions: u64,
}

impl LayerTimes {
    pub fn add(&mut self, algorithm: &Algorithm, t: &DriverTimes) {
        self.total.add(t);
        self.per_alg.entry(alg_key(algorithm)).or_default().add(t);
        self.sessions += 1;
    }

    /// `select.*`, `tpo.build_ms` and the `update.*` metric of the answers'
    /// kind. `select.calls` is left to the caller, which knows the unit.
    pub fn write(&self, out: &mut Outcome) {
        let per_question =
            |t: &DriverTimes| t.select.as_secs_f64() * 1e3 / t.questions.max(1) as f64;
        out.layer("select.ms_per_question", per_question(&self.total));
        for (key, t) in &self.per_alg {
            out.layer_owned(format!("select.{key}.ms_per_question"), per_question(t));
        }
        let t = &self.total;
        out.layer(
            "tpo.build_ms",
            t.build.as_secs_f64() * 1e3 / self.sessions.max(1) as f64,
        );
        out.layer(
            if t.bayes {
                "update.bayes.us_per_answer"
            } else {
                "update.hard.us_per_answer"
            },
            t.update.as_secs_f64() * 1e6 / t.answers.max(1) as f64,
        );
    }
}

/// Replays sessions a service served on standalone drivers, each against a
/// fresh crowd that answers as the service's did. Returns the driver times
/// and how many replays were not `same_outcome` with the served report.
pub fn replay<'a, C: Crowd>(
    sessions: impl IntoIterator<Item = (SessionInput<'a>, C, Option<&'a UrReport>)>,
    rec: &mut Recorder,
) -> (LayerTimes, u64) {
    let mut times = LayerTimes::default();
    let mut failed = 0;
    for (q, (input, mut crowd, served)) in sessions.into_iter().enumerate() {
        let algorithm = input.config.algorithm.clone();
        let same = match (drive(input, &mut crowd, rec, q as u64), served) {
            (Ok((replayed, t)), Some(served)) => {
                times.add(&algorithm, &t);
                replayed.same_outcome(served)
            }
            _ => false,
        };
        failed += u64::from(!same);
    }
    (times, failed)
}
