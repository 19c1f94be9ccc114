//! The repository's benchmark: three workloads over the public API of the
//! crowd top-K query path, each checked for correct outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-fig1 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` it has every per-layer metric,
//! derived from spans recorded around each call the benchmark makes into a
//! layer (written to `.bench_out/trace-<workload>.jsonl`). `--record`
//! prints the workload's output digest instead, in the format of
//! `expected_digests.txt`. See README.md for the workloads and metrics.

mod arrivals;
mod burst;
mod check;
mod crowd;
mod drive;
mod fig1;
mod stats;
mod trace;

use check::Expected;
use ctk_core::session::UrReport;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;

/// Every end-to-end metric: (name, unit). Each workload reports all of them.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_s_p50", "s"),
    ("query_s_p90", "s"),
    ("submit_us_per_query", "us"),
    ("result_ms_p50", "ms"),
    ("result_ms_p90", "ms"),
    ("crowd_questions_per_query", "count"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric: (name, unit, the end-to-end metric it should
/// move, the workload it should move it on). A layer that is not on a
/// workload's path reports 0 there.
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, &str, &str); 30] = [
    ("select.ms_per_question", "ms", "query_s_*, queries_per_s", "paper-fig1"),
    ("select.naive.ms_per_question", "ms", "query_s_*, queries_per_s", "paper-fig1"),
    ("select.tb_off.ms_per_question", "ms", "query_s_*, queries_per_s", "paper-fig1"),
    ("select.t1_on.ms_per_question", "ms", "query_s_*, queries_per_s", "paper-fig1"),
    ("select.incr.ms_per_question", "ms", "query_s_*, queries_per_s", "paper-fig1"),
    ("select.c_off.ms_per_question", "ms", "query_s_*, queries_per_s", "paper-fig1"),
    ("select.calls", "count", "query_s_*, crowd_questions_per_query", "paper-fig1"),
    ("tpo.build_ms", "ms", "submit_us_per_query", "fleet-burst"),
    ("tpo.worlds_drawn", "count", "submit_us_per_query", "fleet-burst"),
    ("prob.pairwise_ms", "ms", "setup_s", "all"),
    ("prob.bounds_ms", "ms", "setup_s", "all"),
    ("update.hard.us_per_answer", "us", "query_s_*", "paper-fig1"),
    ("update.bayes.us_per_answer", "us", "result_ms_*", "fleet-arrivals"),
    ("service.submit_us", "us", "submit_us_per_query", "fleet-burst, fleet-arrivals"),
    ("service.sweeps", "count", "queries_per_s, result_ms_*", "fleet-burst, fleet-arrivals"),
    ("service.sweep_ms_p50", "ms", "result_ms_*", "fleet-arrivals"),
    ("service.sweep_ms_p90", "ms", "result_ms_*", "fleet-arrivals"),
    ("service.scheduled_per_sweep", "count", "result_ms_*", "fleet-arrivals"),
    ("service.kb_per_query", "kB", "peak_rss_mb", "fleet-burst, fleet-arrivals"),
    ("service.bookkeeping_s", "s", "queries_per_s, result_ms_*", "fleet-burst, fleet-arrivals"),
    ("service.purchase_ms", "ms", "queries_per_s, result_ms_*", "fleet-burst, fleet-arrivals"),
    ("service.cache_hit_ratio", "ratio", "crowd_asks_per_query (printed)", "fleet-burst, fleet-arrivals"),
    ("crowd.asks", "count", "crowd_asks_per_query (printed)", "all"),
    ("crowd.us_per_ask", "us", "query_s_*, result_ms_*", "all"),
    ("topology.coordinator_stall_s", "s", "threaded serve time (traced runs)", "fleet-arrivals, fleet-burst"),
    ("topology.channel_messages", "count", "threaded serve time (traced runs)", "fleet-arrivals, fleet-burst"),
    ("topology.backlog_max", "count", "threaded serve time (traced runs)", "fleet-arrivals, fleet-burst"),
    ("topology.shard_imbalance", "ratio", "threaded serve time (traced runs)", "fleet-arrivals, fleet-burst"),
    ("gen.late_ms_max", "ms", "result_ms_* (open-loop validity)", "fleet-arrivals"),
    ("trace.overhead_pct", "%", "traced vs untraced end-to-end time", "all"),
];

const WORKLOADS: [&str; 3] = ["paper-fig1", "fleet-burst", "fleet-arrivals"];

/// Set-up repeats in windows of this length before the run and between
/// fig1 passes and bursts (see [`SetupClock`]).
pub const SETUP_WINDOW: Duration = Duration::from_millis(100);
const SETUP_FIRST_WINDOWS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// A table with its derived state: the pairwise matrix and the top-K
/// bounds for each query depth served over it.
pub struct PreparedTable {
    pub table: UncertainTable,
    pub pairwise: Arc<PairwiseMatrix>,
    pub bounds: Vec<(usize, Arc<TopKBounds>)>,
}

impl PreparedTable {
    pub fn bounds(&self, k: usize) -> Arc<TopKBounds> {
        self.bounds
            .iter()
            .find(|(depth, _)| *depth == k)
            .map(|(_, b)| b.clone())
            .expect("bounds prepared for every depth the workload serves")
    }
}

/// The `prob` layer: pairwise matrix and certain/possible bounds of a table.
pub fn prepare_table(table: UncertainTable, ks: &[usize], rec: &mut Recorder) -> PreparedTable {
    let span = rec.begin("prob.pairwise", None);
    let pairwise = Arc::new(PairwiseMatrix::compute(&table));
    rec.end(span);
    let bounds = ks
        .iter()
        .map(|&k| {
            let span = rec.begin("prob.bounds", None);
            let b = TopKBounds::from_matrix(&pairwise, k).expect("k is within the table");
            rec.end(span);
            (k, Arc::new(b))
        })
        .collect();
    PreparedTable {
        table,
        pairwise,
        bounds,
    }
}

/// Set-up times, sampled in windows before the run and spread over it
/// (after each fig1 pass, between bursts, once a second in an idle gap
/// of the open loop). Each window gives its median repetition; `setup_s`
/// is the mean of the middle half of the windows.
///
/// Set-up takes 30 to 500 µs. On a 2-vCPU share of a host the same set-up
/// code read 40 µs in some runs and 70 µs in others, for seconds at a time,
/// so set-up timed once before the run caught one speed at random, and the
/// medians of two ten-run sets differed by 55%. Windows spread over the run
/// see the host over the same span as the other metrics, and the mean of
/// their middle half moves smoothly with the share of each speed, where a
/// median of bimodal samples jumps from one to the other.
pub struct SetupClock {
    windows: Vec<f64>,
}

impl SetupClock {
    /// Times the set-up in `SETUP_FIRST_WINDOWS` windows and returns the
    /// clock and the output of one more run, made with `last = true`.
    pub fn first<T>(mut make: impl FnMut(bool) -> T) -> (Self, T) {
        let mut clock = Self {
            windows: Vec::new(),
        };
        for _ in 0..SETUP_FIRST_WINDOWS {
            clock.sample(SETUP_WINDOW, || make(false));
        }
        (clock, make(true))
    }

    /// Times `make` repeatedly for `window` (at least once) and records the
    /// median repetition.
    pub fn sample<T>(&mut self, window: Duration, mut make: impl FnMut() -> T) {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.is_empty() || start.elapsed() < window {
            let t0 = Instant::now();
            let made = make();
            times.push(t0.elapsed().as_secs_f64());
            drop(made);
        }
        self.windows.push(stats::median(&times));
    }

    /// `setup_s`: the mean of the middle half of the windows.
    pub fn value(&self) -> f64 {
        stats::interquartile_mean(&self.windows)
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    metrics: BTreeMap<String, f64>,
    /// Figures printed with the metrics but not bounded: (name, value, unit).
    notes: Vec<(&'static str, f64, &'static str)>,
    recorded: Vec<String>,
    expected: Expected,
}

impl Outcome {
    fn new(expected: Expected) -> Self {
        Self {
            correct: true,
            expected,
            ..Self::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.metrics.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer_owned(name.to_string(), value);
    }

    pub fn layer_owned(&mut self, name: String, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.metrics.insert(name, value);
    }

    /// `crowd_questions_per_query` (questions each query asked, answered
    /// by the crowd backend or the service's answer cache), plus two
    /// seed-determined figures that the output check pins exactly and that
    /// are printed, not bounded: the mean final D(ω_r, T_K) and the asks
    /// that reached the crowd backend per query.
    pub fn quality(&mut self, reports: &[&UrReport], backend_asks: u64) {
        let n = reports.len().max(1) as f64;
        let steps: usize = reports.iter().map(|r| r.steps.len()).sum();
        self.set("crowd_questions_per_query", steps as f64 / n);
        let distances: Vec<f64> = reports.iter().filter_map(|r| r.final_distance()).collect();
        self.notes
            .push(("topk_distance", stats::mean(&distances), "distance"));
        self.notes
            .push(("crowd_asks_per_query", backend_asks as f64 / n, "count"));
    }

    /// Compares a workload digest with the recorded one (or, with
    /// `--record`, prints it). A mismatch fails every checked query.
    pub fn check_digest(&mut self, args: &Args, seconds: &str, digest: u64, queries: u64) {
        if args.record {
            self.recorded.push(check::record_line(
                &args.workload,
                args.seed,
                seconds,
                digest,
            ));
            return;
        }
        match self.expected.get(&args.workload, args.seed, seconds) {
            Some(want) if want == digest => {}
            Some(want) => {
                eprintln!("output digest {digest:016x} != recorded {want:016x}");
                self.correct = false;
                self.failed += queries;
            }
            None => eprintln!(
                "note: no recorded digest for {} seed {} ({}); per-query checks only",
                args.workload, args.seed, seconds
            ),
        }
    }

    /// `prob.*` per-table means from the set-up spans.
    pub fn prob_layers(&mut self, rec: &Recorder) {
        let totals = rec.totals();
        for (span, metric) in [
            ("prob.pairwise", "prob.pairwise_ms"),
            ("prob.bounds", "prob.bounds_ms"),
        ] {
            let t = totals.get(span).copied().unwrap_or_default();
            self.layer(metric, t.total.as_secs_f64() * 1e3 / t.count.max(1) as f64);
        }
    }

    /// Writes the spans out and prints each span name's total and self
    /// time (its duration minus its child spans).
    pub fn write_trace(&self, args: &Args, rec: &Recorder) {
        let path =
            std::path::Path::new(".bench_out").join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        for (name, t) in rec.totals() {
            eprintln!(
                "#   span {name:16} {:>8} calls {:>12.3} ms total {:>12.3} ms self",
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
    }

    /// The result line: every metric of the catalog the run mode asks for.
    fn json(&self, trace: bool) -> String {
        let catalog: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|(n, u, ..)| (*n, *u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    fn print_table(&self, args: &Args) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        eprintln!(
            "# {} seed {} seconds {} trace {} ({cores} cores)",
            args.workload, args.seed, args.seconds, args.trace
        );
        eprintln!(
            "#   failed_share {} ({} of {} queries)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        if args.trace {
            for (name, unit, moves, on) in PER_LAYER {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                eprintln!("#   {name:32} {v:>14.4} {unit:6} moves {moves} on {on}");
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                eprintln!("#   {name:32} {v:>14.6} {unit}");
            }
            for (name, v, unit) in &self.notes {
                eprintln!("#   {name:32} {v:>14.6} {unit} (printed, not bounded)");
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let expected = match Expected::parse(include_str!("../expected_digests.txt")) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: expected_digests.txt: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new(expected);
    match args.workload.as_str() {
        "paper-fig1" => fig1::run(&args, &mut out),
        "fleet-burst" => burst::run(&args, &mut out),
        _ => arrivals::run(&args, &mut out),
    }
    if args.record {
        for line in &out.recorded {
            println!("{line}");
        }
        return;
    }
    out.print_table(&args);
    println!("{}", out.json(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalog and BENCHMARK.json name the same metrics, and
    /// every workload BENCHMARK.json lists is one of `WORKLOADS`.
    #[test]
    fn catalog_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let entries = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|(n, u, ..)| (*n, *u)));
        for (name, unit) in entries {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = WORKLOADS
            .iter()
            .filter(|w| json.contains(&format!("{{\"name\": \"{w}\", \"why\"")))
            .count();
        assert_eq!(
            json.matches("\"name\":").count(),
            listed + END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(json.matches("\"why\":").count(), listed);
    }
}
