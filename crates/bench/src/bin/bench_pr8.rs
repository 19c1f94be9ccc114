//! Adaptive-precision acceptance report (PR 8 numbers).
//!
//! Compares the fixed-budget Monte-Carlo build (`DEFAULT_WORLDS` worlds,
//! the pre-PR 8 behaviour) against the adaptive `(epsilon, delta)` build
//! on two table profiles:
//!
//! * **mostly decided** — a staircase whose supports barely overlap; the
//!   certain/possible bounds decide almost every pair and the sampler's
//!   variance-adaptive bound converges after a few small batches;
//! * **hard** — the paper-style generator with wide overlap; the sampler
//!   keeps doubling until the empirical-Bernstein bound clears the target.
//!
//! Three gates, enforced by assertion on the mostly-decided profile:
//!
//! 1. **Fewer worlds** — the adaptive build must draw strictly fewer
//!    worlds than `DEFAULT_WORLDS`.
//! 2. **No quality loss** — its top-K distance to a converged reference
//!    (orders of magnitude more worlds) must be no worse than the fixed
//!    build's, and its worst per-path probability drift must stay within
//!    the requested `epsilon`.
//! 3. **Bit identity** — `PrecisionTarget::FixedWorlds(m)` must replay
//!    the historical fixed-`m` pipeline bit for bit on both profiles.
//!
//! Hard-table numbers are reported (worlds drawn, drift, speedup) but not
//! asserted: wide overlap legitimately needs world counts near or above the
//! old default.
//!
//! Emits `BENCH_PR8.json`. CI runs `--small` mode: smaller tables and
//! reference, same gates.
//!
//! `cargo run --release -p ctk-bench --bin bench_pr8 [--small] [--out FILE]`

use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{ScoreDist, TopKBounds, UncertainTable};
use ctk_rank::topk::topk_distance;
use ctk_tpo::build::{build_mc_bounded, build_mc_reference, McConfig};
use ctk_tpo::{PathSet, PrecisionReport, DEFAULT_WORLDS};
use std::collections::HashMap;
use std::time::Instant;

struct Sizes {
    n: usize,
    k: usize,
    reference_worlds: usize,
}

const FULL: Sizes = Sizes {
    n: 40,
    k: 5,
    reference_worlds: 200_000,
};

const SMALL: Sizes = Sizes {
    n: 15,
    k: 4,
    reference_worlds: 30_000,
};

const EPSILON: f64 = 0.02;
const DELTA: f64 = 0.05;
const SEED: u64 = 7;

struct Profile {
    name: &'static str,
    table: UncertainTable,
}

struct Row {
    profile: &'static str,
    fixed_ms: f64,
    adaptive_ms: f64,
    worlds_drawn: usize,
    achieved_epsilon: Option<f64>,
    stop_reason: &'static str,
    fixed_distance: f64,
    adaptive_distance: f64,
    fixed_drift: f64,
    adaptive_drift: f64,
    bit_identical: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small" || a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());
    let sz = if small { SMALL } else { FULL };
    eprintln!(
        "# adaptive precision: n={} K={} eps={EPSILON} delta={DELTA} reference={} worlds{}",
        sz.n,
        sz.k,
        sz.reference_worlds,
        if small { " [small]" } else { "" }
    );

    let profiles = [
        Profile {
            name: "mostly_decided",
            table: staircase(sz.n, 1.05),
        },
        Profile {
            name: "hard",
            table: ctk_datagen::generate(&ctk_datagen::DatasetSpec::paper_default(sz.n, 0.9, 21))
                .expect("valid spec"),
        },
    ];

    let rows: Vec<Row> = profiles.iter().map(|p| measure(p, &sz)).collect();
    for r in &rows {
        eprintln!(
            "# {:>14}: fixed {:.1}ms vs adaptive {:.1}ms ({:.1}x), {} worlds drawn, \
             eps {} ({}), D_ref fixed {:.4} adaptive {:.4}, drift fixed {:.4} adaptive {:.4}, \
             bit-identical {}",
            r.profile,
            r.fixed_ms,
            r.adaptive_ms,
            r.fixed_ms / r.adaptive_ms.max(1e-9),
            r.worlds_drawn,
            r.achieved_epsilon
                .map_or_else(|| "n/a".to_string(), |e| format!("{e:.4}")),
            r.stop_reason,
            r.fixed_distance,
            r.adaptive_distance,
            r.fixed_drift,
            r.adaptive_drift,
            r.bit_identical,
        );
    }

    write_json(&out, &rows, &sz, small);
    eprintln!("# wrote {out}");

    // --- gates (mostly-decided profile) ----------------------------------
    let easy = &rows[0];
    assert!(
        easy.worlds_drawn < DEFAULT_WORLDS,
        "adaptive must undercut the fixed default on a mostly-decided table: \
         drew {} vs {DEFAULT_WORLDS}",
        easy.worlds_drawn
    );
    assert!(
        easy.adaptive_distance <= easy.fixed_distance,
        "adaptive top-K distance to the converged reference regressed: \
         {:.4} vs fixed {:.4}",
        easy.adaptive_distance,
        easy.fixed_distance
    );
    assert!(
        easy.adaptive_drift <= EPSILON,
        "adaptive path-probability drift {:.4} exceeds requested epsilon {EPSILON}",
        easy.adaptive_drift
    );
    for r in &rows {
        assert!(
            r.bit_identical,
            "{}: FixedWorlds diverged from the historical fixed pipeline",
            r.profile
        );
    }
}

/// Staircase table: unit spacing, `width` supports — `width` slightly
/// above 1.0 leaves a sliver of neighbor overlap, so the table is almost
/// but not entirely decided by its bounds.
fn staircase(n: usize, width: f64) -> UncertainTable {
    UncertainTable::new(
        (0..n)
            .map(|i| ScoreDist::uniform_centered(i as f64, width).expect("valid width"))
            .collect(),
    )
    .expect("non-empty table")
}

fn measure(p: &Profile, sz: &Sizes) -> Row {
    let pairwise = PairwiseMatrix::compute(&p.table);
    let bounds = TopKBounds::from_matrix(&pairwise, sz.k).expect("valid k");

    let t0 = Instant::now();
    let (fixed_ps, _) = build_mc_bounded(
        &p.table,
        sz.k,
        &McConfig::fixed(DEFAULT_WORLDS, SEED),
        Some(&bounds),
    )
    .expect("fixed build");
    let fixed_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let (adaptive_ps, report) = build_mc_bounded(
        &p.table,
        sz.k,
        &McConfig::adaptive(EPSILON, DELTA, SEED),
        Some(&bounds),
    )
    .expect("adaptive build");
    let adaptive_ms = t1.elapsed().as_secs_f64() * 1e3;

    let reference = build_mc_reference(&p.table, sz.k, sz.reference_worlds, SEED ^ 0xC0FFEE)
        .expect("reference");
    let ref_top = reference.most_probable().rank_list();

    Row {
        profile: p.name,
        fixed_ms,
        adaptive_ms,
        worlds_drawn: report.worlds_drawn,
        achieved_epsilon: report.epsilon,
        stop_reason: report.reason.name(),
        fixed_distance: topk_distance(&fixed_ps.most_probable().rank_list(), &ref_top),
        adaptive_distance: topk_distance(&adaptive_ps.most_probable().rank_list(), &ref_top),
        fixed_drift: max_drift(&fixed_ps, &reference),
        adaptive_drift: max_drift(&adaptive_ps, &reference),
        bit_identical: fixed_worlds_bit_identity(&p.table, sz.k),
    }
}

/// Worst absolute per-path probability difference between two path sets
/// (paths missing from one side count their full mass on the other).
fn max_drift(a: &PathSet, b: &PathSet) -> f64 {
    let index: HashMap<&[u32], f64> = b.paths().iter().map(|p| (&p.items[..], p.prob)).collect();
    let mut drift: f64 = 0.0;
    let mut seen = 0usize;
    for path in a.paths() {
        match index.get(&path.items[..]) {
            Some(&q) => {
                drift = drift.max((path.prob - q).abs());
                seen += 1;
            }
            None => drift = drift.max(path.prob),
        }
    }
    if seen < index.len() {
        for path in b.paths() {
            if !a.paths().iter().any(|p| p.items == path.items) {
                drift = drift.max(path.prob);
            }
        }
    }
    drift
}

/// Gate 3: `FixedWorlds(m)` must replay the historical fixed-`m` pipeline
/// bit for bit (same orderings, same probability bits).
fn fixed_worlds_bit_identity(table: &UncertainTable, k: usize) -> bool {
    let m = 4000;
    let (new_ps, report) =
        build_mc_bounded(table, k, &McConfig::fixed(m, SEED), None).expect("fixed build");
    let old_ps = build_mc_reference(table, k, m, SEED).expect("reference build");
    report.same_outcome(&PrecisionReport::fixed(m)) && bit_identical(&new_ps, &old_ps)
}

fn bit_identical(a: &PathSet, b: &PathSet) -> bool {
    a.paths().len() == b.paths().len()
        && a.paths()
            .iter()
            .zip(b.paths())
            .all(|(x, y)| x.items == y.items && x.prob.to_bits() == y.prob.to_bits())
}

fn write_json(out: &str, rows: &[Row], sz: &Sizes, small: bool) {
    let mut profiles = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            profiles.push_str(",\n");
        }
        profiles.push_str(&format!(
            "    {{ \"profile\": \"{}\", \"fixed_ms\": {:.3}, \"adaptive_ms\": {:.3}, \
             \"speedup\": {:.3}, \"worlds_drawn\": {}, \"achieved_epsilon\": {}, \
             \"stop_reason\": \"{}\", \"fixed_topk_distance\": {:.6}, \
             \"adaptive_topk_distance\": {:.6}, \"fixed_drift\": {:.6}, \
             \"adaptive_drift\": {:.6}, \"fixed_worlds_bit_identical\": {} }}",
            r.profile,
            r.fixed_ms,
            r.adaptive_ms,
            r.fixed_ms / r.adaptive_ms.max(1e-9),
            r.worlds_drawn,
            r.achieved_epsilon
                .map_or_else(|| "null".to_string(), |e| format!("{e:.6}")),
            r.stop_reason,
            r.fixed_distance,
            r.adaptive_distance,
            r.fixed_drift,
            r.adaptive_drift,
            r.bit_identical,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"adaptive_precision\",\n  \"mode\": \"{}\",\n  \"config\": {{ \"n\": {}, \"k\": {}, \"epsilon\": {}, \"delta\": {}, \"default_worlds\": {}, \"reference_worlds\": {} }},\n  \"profiles\": [\n{}\n  ]\n}}\n",
        if small { "small" } else { "full" },
        sz.n,
        sz.k,
        EPSILON,
        DELTA,
        DEFAULT_WORLDS,
        sz.reference_worlds,
        profiles,
    );
    std::fs::write(out, &json).expect("write BENCH_PR8.json");
}
