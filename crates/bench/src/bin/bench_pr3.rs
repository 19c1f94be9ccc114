//! Belief/residual hot-path speedup report (PR 3 acceptance numbers).
//!
//! Times the indexed/cached/parallel implementations against the
//! pre-rewrite reference code paths at the acceptance sizes (M = 10 000
//! worlds, n = 200 tuples, K = 5; the residual entries use their own
//! n = 20 fixture) and emits `BENCH_PR3.json` — the first
//! data point of the repo's performance trajectory. Also re-asserts that
//! the parallel builders are bit-identical to their sequential references
//! (belt and braces; the real pins live in the test suites).
//!
//! `cargo run --release -p ctk-bench --bin bench_pr3 [--smoke] [--out FILE]`
//!
//! `--smoke` shrinks every size so the binary finishes in a couple of
//! seconds (used by the CI bench-smoke step).

use ctk_bench::reference::{apply_hard_scan, apply_noisy_scan, pr_precedes_scan};
use ctk_core::measures::MeasureKind;
use ctk_core::residual::{AnswerPartition, ResidualCtx};
use ctk_core::select::relevant_questions;
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::compare::PairwiseMatrix;
use ctk_tpo::build::{build_mc_with_threads, McConfig};
use ctk_tpo::{PathSet, WorldModel};
use std::hint::black_box;
use std::time::Instant;

struct Sizes {
    worlds: usize,
    n: usize,
    k: usize,
}

const FULL: Sizes = Sizes {
    worlds: ctk_tpo::DEFAULT_WORLDS,
    n: 200,
    k: 5,
};

const SMOKE: Sizes = Sizes {
    worlds: 2_000,
    n: 40,
    k: 4,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR3.json".to_string());
    let sz = if smoke { SMOKE } else { FULL };
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    eprintln!(
        "# belief hot paths: M={} n={} K={} ({} threads){}",
        sz.worlds,
        sz.n,
        sz.k,
        threads,
        if smoke { " [smoke]" } else { "" }
    );

    let table = generate(&DatasetSpec::paper_default(sz.n, 0.4, 3)).expect("valid spec");
    let wm = WorldModel::sample(&table, sz.worlds, 7).expect("worlds > 0");
    let pairs: Vec<(u32, u32)> = (0..16u32)
        .map(|d| (d * 11 % sz.n as u32, (d * 11 + 1) % sz.n as u32))
        .collect();

    // --- pr_precedes -----------------------------------------------------
    let reps = if smoke { 20 } else { 50 };
    let indexed = time_ns(reps, || {
        pairs
            .iter()
            .map(|&(i, j)| wm.pr_precedes(i, j))
            .sum::<f64>()
    }) / pairs.len() as f64;
    let scan = time_ns(reps, || {
        pairs
            .iter()
            .map(|&(i, j)| pr_precedes_scan(&wm, i, j))
            .sum::<f64>()
    }) / pairs.len() as f64;
    let pr = Entry::new("pr_precedes", scan, indexed);

    // --- apply_answer_noisy ----------------------------------------------
    let mut model = wm.clone();
    let noisy_indexed = time_ns(reps, || {
        for &(i, j) in &pairs {
            model.apply_answer_noisy(i, j, true, 0.8).unwrap();
        }
        model.total_weight()
    }) / pairs.len() as f64;
    let mut weights: Vec<f64> = (0..wm.num_worlds()).map(|w| wm.weight(w)).collect();
    let noisy_scan = time_ns(reps, || {
        for &(i, j) in &pairs {
            apply_noisy_scan(&wm, &mut weights, i, j, true, 0.8);
        }
        weights.iter().sum::<f64>()
    }) / pairs.len() as f64;
    let noisy = Entry::new("apply_answer_noisy", noisy_scan, noisy_indexed);

    // --- apply_answer_hard -----------------------------------------------
    // Both sides are warmed by `time_ns`'s untimed first call, so every
    // timed rep re-applies the same answer to an *identically filtered*
    // belief (survivor check + zeroing pass over the same survivor set) —
    // an apples-to-apples per-call cost, not first-call vs steady-state.
    let mut model = wm.clone();
    let (hi, hj) = pairs[0];
    let hard_indexed = time_ns(reps, || {
        let _ = model.apply_answer_hard(hi, hj, true);
        model.effective_worlds()
    });
    let mut hard_weights: Vec<f64> = (0..wm.num_worlds()).map(|w| wm.weight(w)).collect();
    let hard_scan = time_ns(reps, || {
        apply_hard_scan(&wm, &mut hard_weights, hi, hj, true);
        hard_weights.iter().filter(|&&w| w > 0.0).count()
    });
    let hard = Entry::new("apply_answer_hard", hard_scan, hard_indexed);

    // --- path_set --------------------------------------------------------
    let mut cached_model = wm.clone();
    cached_model.path_set_cached(sz.k).unwrap();
    let cached = time_ns(reps, || cached_model.path_set_cached(sz.k).unwrap().len());
    let rebuild = time_ns(reps, || wm.path_set(sz.k).unwrap().len());
    let path_set = Entry::new("path_set", rebuild, cached);

    // --- pairwise matrix -------------------------------------------------
    let preps = if smoke { 3 } else { 2 };
    let par = time_ns(preps, || PairwiseMatrix::compute(&table).len());
    let seq = time_ns(preps, || PairwiseMatrix::compute_sequential(&table).len());
    assert!(
        pairwise_identical(
            &PairwiseMatrix::compute_sequential(&table),
            &PairwiseMatrix::compute(&table),
        ),
        "parallel pairwise matrix diverged from sequential"
    );
    let pairwise = Entry::new("pairwise_compute", seq, par);

    // --- build_mc --------------------------------------------------------
    let cfg = McConfig::fixed(sz.worlds * 2, 5);
    let bk = sz.k.min(table.len());
    let mc_par = time_ns(preps, || {
        build_mc_with_threads(&table, bk, &cfg, 0).unwrap().len()
    });
    let mc_seq = time_ns(preps, || {
        build_mc_with_threads(&table, bk, &cfg, 1).unwrap().len()
    });
    assert!(
        path_sets_identical(
            &build_mc_with_threads(&table, bk, &cfg, 1).unwrap(),
            &build_mc_with_threads(&table, bk, &cfg, 0).unwrap(),
        ),
        "parallel build_mc diverged from sequential"
    );
    let build = Entry::new("build_mc", mc_seq, mc_par);

    // --- residual partition ----------------------------------------------
    let rtable = generate(&DatasetSpec::paper_default(20, 0.4, 3)).expect("valid spec");
    let rpw = PairwiseMatrix::compute(&rtable);
    let measure = MeasureKind::WeightedEntropy.build();
    let ctx = ResidualCtx {
        measure: measure.as_ref(),
        pairwise: &rpw,
    };
    let ps = build_mc_with_threads(
        &rtable,
        4,
        &McConfig::fixed(if smoke { 1000 } else { 4000 }, 2),
        0,
    )
    .unwrap();
    let qs: Vec<_> = relevant_questions(&ps, &ctx).into_iter().take(3).collect();
    let scratch_t = time_ns(reps, || {
        let mut part = AnswerPartition::root(&ps);
        let mut acc = 0.0;
        for q in &qs {
            acc += part.expected_with_question(q, &ctx);
            part.refine(q, &ctx);
        }
        acc + part.expected_uncertainty(ctx.measure)
    });
    let reference_t = time_ns(reps, || {
        let mut part = AnswerPartition::root(&ps);
        let mut acc = 0.0;
        for q in &qs {
            part.refine(q, &ctx);
            acc += part.expected_uncertainty_reference(ctx.measure);
        }
        acc + part.expected_uncertainty_reference(ctx.measure)
    });
    let residual = Entry::new("residual_partition", reference_t, scratch_t);

    // --- residual lookahead ----------------------------------------------
    // Every relevant candidate scored from the root: the prefix-mass
    // lookahead against materializing each split and evaluating it with
    // the reference path. Both must agree within 1e-12.
    let pool = relevant_questions(&ps, &ctx);
    let lookahead = || -> Vec<f64> {
        let mut part = AnswerPartition::root(&ps);
        pool.iter()
            .map(|q| part.expected_with_question(q, &ctx))
            .collect()
    };
    let materialized = || -> Vec<f64> {
        pool.iter()
            .map(|q| {
                let mut part = AnswerPartition::root(&ps);
                part.refine(q, &ctx);
                part.expected_uncertainty_reference(ctx.measure)
            })
            .collect()
    };
    let fast = lookahead();
    for ((q, f), r) in pool.iter().zip(&fast).zip(materialized()) {
        assert!(
            (f - r).abs() < 1e-12,
            "lookahead {f} vs reference {r} for {q}"
        );
    }
    let lookahead_t = time_ns(reps, lookahead);
    let materialized_t = time_ns(reps, materialized);
    let lookahead = Entry::new("residual_lookahead", materialized_t, lookahead_t);

    let entries = [
        &pr, &noisy, &hard, &path_set, &pairwise, &build, &residual, &lookahead,
    ];
    for e in &entries {
        eprintln!(
            "# {:24} reference {:>12.0} ns   new {:>12.0} ns   speedup {:>7.2}x",
            e.name, e.reference_ns, e.new_ns, e.speedup
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"belief_hot_paths\",\n  \"mode\": \"{}\",\n  \"config\": {{ \"worlds\": {}, \"n\": {}, \"k\": {}, \"threads\": {} }},\n{}\n}}\n",
        if smoke { "smoke" } else { "full" },
        sz.worlds,
        sz.n,
        sz.k,
        threads,
        entries
            .iter()
            .map(|e| e.json())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_PR3.json");
    eprintln!("# wrote {out}");

    if !smoke {
        // PR acceptance: >= 3x on the belief hot paths at M=10k, n=200.
        for e in [&pr, &noisy, &hard] {
            assert!(
                e.speedup >= 3.0,
                "{} speedup {:.2}x below the 3x acceptance bar",
                e.name,
                e.speedup
            );
        }
    }
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

/// Wall-clock nanoseconds per repetition (median-free: the bin reports a
/// simple mean over `reps` after one warm-up call).
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn pairwise_identical(a: &PairwiseMatrix, b: &PairwiseMatrix) -> bool {
    a.len() == b.len()
        && (0..a.len()).all(|i| (0..a.len()).all(|j| a.pr(i, j).to_bits() == b.pr(i, j).to_bits()))
}

fn path_sets_identical(a: &PathSet, b: &PathSet) -> bool {
    a.len() == b.len()
        && a.paths()
            .iter()
            .zip(b.paths())
            .all(|(x, y)| x.items == y.items && x.prob.to_bits() == y.prob.to_bits())
}
