//! Table-preparation speedup report (PR 5 acceptance numbers).
//!
//! Times the analytic/sweep-line pairwise matrix and the partial-selection
//! Monte-Carlo builder against the pre-PR 5 reference paths at the
//! BENCH_PR3 configuration (n = 200 tuples, M = 10 000 worlds, K = 5),
//! all single-threaded, and emits `BENCH_PR5.json`. The `cold_start` cell
//! measures the full table-preparation pipeline a `TopKService` session
//! cold start waits on (pairwise matrix + MC path set); the absolute
//! wall time of a real `TopKService::submit` on a fresh service (which
//! runs exactly that pipeline plus driver bookkeeping) is reported
//! alongside as `service_submit_ns`.
//!
//! The run doubles as the drift gate: every pair of a mixed-family zoo
//! table (all seven `ScoreDist` kinds) is checked against a
//! high-resolution reference quadrature and the binary fails if any pair
//! drifts beyond 1e-6 — CI runs `--small` mode, which keeps the drift
//! gate at full strength while shrinking the timing sizes.
//!
//! `cargo run --release -p ctk-bench --bin bench_pr5 [--small] [--out FILE]`

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig};
use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::compare::{pr_greater, pr_greater_reference_res, PairwiseMatrix};
use ctk_prob::{ScoreDist, UncertainTable};
use ctk_service::{SessionSpec, TopKService};
use ctk_tpo::build::{build_mc_reference, build_mc_with_threads, Engine, McConfig};
use ctk_tpo::PathSet;
use std::hint::black_box;
use std::time::Instant;

struct Sizes {
    worlds: usize,
    n: usize,
    k: usize,
    reps: usize,
}

const FULL: Sizes = Sizes {
    worlds: ctk_tpo::DEFAULT_WORLDS,
    n: 200,
    k: 5,
    reps: 3,
};

const SMALL: Sizes = Sizes {
    worlds: 2_000,
    n: 40,
    k: 4,
    reps: 3,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small" || a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR5.json".to_string());
    let sz = if small { SMALL } else { FULL };
    eprintln!(
        "# table preparation: M={} n={} K={} (single-thread){}",
        sz.worlds,
        sz.n,
        sz.k,
        if small { " [small]" } else { "" }
    );

    // The drift gate runs in every mode: the analytic fast path must stay
    // within 1e-6 of a converged reference quadrature on every family
    // pair, atoms and mixtures included.
    let drift = max_drift(&zoo_table());
    eprintln!("# max |fast - reference| over the family zoo: {drift:.3e}");
    assert!(
        drift <= 1e-6,
        "pairwise fast path drifted {drift:.3e} from the reference quadrature (> 1e-6)"
    );

    // Same table family as BENCH_PR3: width-0.4 uniforms, seed 3.
    let table = generate(&DatasetSpec::paper_default(sz.n, 0.4, 3)).expect("valid spec");

    // --- pairwise matrix -------------------------------------------------
    let new_t = time_ns(sz.reps, || PairwiseMatrix::compute_sequential(&table).len());
    let ref_t = time_ns(sz.reps, || PairwiseMatrix::compute_reference(&table).len());
    let fast = PairwiseMatrix::compute_sequential(&table);
    let reference = PairwiseMatrix::compute_reference(&table);
    let mut max_cell = 0.0f64;
    for i in 0..table.len() {
        for j in 0..table.len() {
            max_cell = max_cell.max((fast.pr(i, j) - reference.pr(i, j)).abs());
        }
    }
    eprintln!("# max matrix cell |fast - reference|: {max_cell:.3e}");
    assert!(
        max_cell <= 1e-5,
        "matrix drifted {max_cell:.3e} from the production-resolution reference"
    );
    let pairwise = Entry::new("pairwise_compute", ref_t, new_t);

    // --- Monte-Carlo build -----------------------------------------------
    let cfg = McConfig::fixed(sz.worlds, 5);
    let mc_new = time_ns(sz.reps, || {
        build_mc_with_threads(&table, sz.k, &cfg, 1).unwrap().len()
    });
    let mc_ref = time_ns(sz.reps, || {
        build_mc_reference(&table, sz.k, sz.worlds, 5)
            .unwrap()
            .len()
    });
    assert!(
        path_sets_identical(
            &build_mc_reference(&table, sz.k, sz.worlds, 5).unwrap(),
            &build_mc_with_threads(&table, sz.k, &cfg, 1).unwrap(),
        ),
        "partial-selection build diverged from the full-sort reference"
    );
    let build = Entry::new("build_mc", mc_ref, mc_new);

    // --- cold start (the table-prep pipeline a session submit pays) -----
    let cold_new = time_ns(sz.reps, || {
        let pw = PairwiseMatrix::compute_sequential(&table);
        let ps = build_mc_with_threads(&table, sz.k, &cfg, 1).unwrap();
        pw.len() + ps.len()
    });
    let cold_ref = time_ns(sz.reps, || {
        let pw = PairwiseMatrix::compute_reference(&table);
        let ps = build_mc_reference(&table, sz.k, sz.worlds, 5).unwrap();
        pw.len() + ps.len()
    });
    let cold = Entry::new("cold_start", cold_ref, cold_new);

    // Absolute cost of a real TopKService cold start on the new paths
    // (pairwise + driver construction incl. the MC build).
    let truth = GroundTruth::sample(&table, 0x5EED);
    let submit_ns = time_ns(sz.reps, || {
        let crowd = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 1_000)
            .expect("valid vote policy");
        let mut svc = TopKService::new(crowd).with_threads(1);
        svc.submit(
            &table,
            SessionSpec::new(SessionConfig {
                k: sz.k,
                budget: 10,
                measure: MeasureKind::WeightedEntropy,
                algorithm: Algorithm::T1On,
                engine: Engine::MonteCarlo(cfg),
                seed: 1,
                uncertainty_target: None,
            }),
        )
        .expect("valid session spec")
    });
    eprintln!("# TopKService submit (fresh service, new paths): {submit_ns:.0} ns");

    let entries = [&pairwise, &build, &cold];
    for e in &entries {
        eprintln!(
            "# {:20} reference {:>12.0} ns   new {:>12.0} ns   speedup {:>8.2}x",
            e.name, e.reference_ns, e.new_ns, e.speedup
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"table_preparation\",\n  \"mode\": \"{}\",\n  \"config\": {{ \"worlds\": {}, \"n\": {}, \"k\": {}, \"threads\": 1 }},\n  \"max_pairwise_drift\": {:.3e},\n  \"service_submit_ns\": {:.0},\n{}\n}}\n",
        if small { "small" } else { "full" },
        sz.worlds,
        sz.n,
        sz.k,
        drift,
        submit_ns,
        entries
            .iter()
            .map(|e| e.json())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_PR5.json");
    eprintln!("# wrote {out}");

    if !small {
        // PR 5 acceptance: >= 5x pairwise, >= 1.5x build, nothing below 1x.
        assert!(
            pairwise.speedup >= 5.0,
            "pairwise_compute speedup {:.2}x below the 5x acceptance bar",
            pairwise.speedup
        );
        assert!(
            build.speedup >= 1.5,
            "build_mc speedup {:.2}x below the 1.5x acceptance bar",
            build.speedup
        );
        for e in &entries {
            assert!(e.speedup >= 1.0, "{} regressed: {:.2}x", e.name, e.speedup);
        }
    }
}

/// Every `ScoreDist` kind with overlapping, touching and disjoint supports
/// — the drift-gate surface.
fn zoo_table() -> UncertainTable {
    UncertainTable::new(vec![
        ScoreDist::uniform(0.0, 1.0).unwrap(),
        ScoreDist::uniform(0.9, 1.1).unwrap(),
        ScoreDist::uniform(2.0, 3.0).unwrap(),
        ScoreDist::gaussian(0.4, 0.2).unwrap(),
        ScoreDist::gaussian(1.0, 0.05).unwrap(),
        ScoreDist::discrete(&[(0.1, 0.4), (0.9, 0.6)]).unwrap(),
        ScoreDist::histogram(&[0.0, 0.4, 1.0], &[2.0, 1.0]).unwrap(),
        ScoreDist::histogram(&[-1.0, -0.5, 0.2, 0.8], &[1.0, 0.5, 2.0]).unwrap(),
        ScoreDist::triangular(0.0, 0.7, 1.0).unwrap(),
        ScoreDist::piecewise(&[(0.2, 0.1), (0.5, 2.0), (0.6, 0.3), (1.2, 1.0)]).unwrap(),
        ScoreDist::point(0.45),
        ScoreDist::point(1.0),
        ScoreDist::bimodal(
            0.4,
            ScoreDist::uniform(0.0, 0.3).unwrap(),
            0.6,
            ScoreDist::gaussian(0.7, 0.05).unwrap(),
        )
        .unwrap(),
        ScoreDist::bimodal(
            0.5,
            ScoreDist::point(0.9),
            0.5,
            ScoreDist::uniform(0.0, 0.5).unwrap(),
        )
        .unwrap(),
        // Strict-disjoint early-out cases (Gaussian tail / ulp-short
        // mixture weight sum) — must resolve to bit-exact 0/1.
        ScoreDist::gaussian(8.2, 0.01).unwrap(),
        ScoreDist::mixture(vec![
            (0.1, ScoreDist::uniform(0.0, 1.0).unwrap()),
            (0.3, ScoreDist::uniform(0.2, 0.8).unwrap()),
        ])
        .unwrap(),
    ])
    .unwrap()
}

/// Max |fast − high-resolution reference| over every ordered pair.
fn max_drift(table: &UncertainTable) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..table.len() {
        for j in 0..table.len() {
            if i == j {
                continue;
            }
            let fast = pr_greater(table.dist_at(i), table.dist_at(j));
            let slow = pr_greater_reference_res(table.dist_at(i), table.dist_at(j), 16_384);
            worst = worst.max((fast - slow).abs());
        }
    }
    worst
}

struct Entry {
    name: &'static str,
    reference_ns: f64,
    new_ns: f64,
    speedup: f64,
}

impl Entry {
    fn new(name: &'static str, reference_ns: f64, new_ns: f64) -> Self {
        Self {
            name,
            reference_ns,
            new_ns,
            speedup: reference_ns / new_ns.max(1e-9),
        }
    }

    fn json(&self) -> String {
        format!(
            "  \"{}\": {{ \"reference_ns\": {:.0}, \"new_ns\": {:.0}, \"speedup\": {:.3} }}",
            self.name, self.reference_ns, self.new_ns, self.speedup
        )
    }
}

/// Wall-clock nanoseconds per repetition (simple mean over `reps` after one
/// untimed warm-up call).
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn path_sets_identical(a: &PathSet, b: &PathSet) -> bool {
    a.len() == b.len()
        && a.paths()
            .iter()
            .zip(b.paths())
            .all(|(x, y)| x.items == y.items && x.prob.to_bits() == y.prob.to_bits())
}
