//! Property-based tests for measures, residual uncertainty and selection.

use ctk_core::measures::{MeasureKind, UncertaintyMeasure};
use ctk_core::residual::{
    answer_probability, expected_residual_set, expected_residual_set_bruteforce,
    expected_residual_single, AnswerPartition, ResidualCtx,
};
use ctk_core::select::OnlineSelector;
use ctk_core::select::{
    all_tree_pairs, relevant_questions, AStarOff, COff, NaiveSelector, OfflineSelector,
    RandomSelector, T1On, TbOff,
};
use ctk_crowd::Question;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{ScoreDist, UncertainTable};
use ctk_tpo::build::{build_mc, McConfig};
use ctk_tpo::PathSet;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Arbitrary overlapping table of `n` uniform scores, with its pairwise
/// matrix and a depth-3 TPO.
fn fixture(n: usize) -> impl Strategy<Value = (UncertainTable, PairwiseMatrix, PathSet)> {
    (
        proptest::collection::vec((0.0..1.0f64, 0.2..0.6f64), n..=n),
        any::<u64>(),
    )
        .prop_map(|(params, seed)| {
            let table = UncertainTable::new(
                params
                    .into_iter()
                    .map(|(c, w)| ScoreDist::uniform_centered(c, w).unwrap())
                    .collect(),
            )
            .unwrap();
            let pw = PairwiseMatrix::compute(&table);
            let ps = build_mc(&table, 3.min(table.len()), &McConfig::fixed(1500, seed)).unwrap();
            (table, pw, ps)
        })
}

/// A path set shaped like `incr`'s partial trees: every path of `ps` cut
/// to a length drawn from `cuts` (cycled), equal cuts merged — so short
/// paths sit next to longer paths that extend them.
fn mixed_length(ps: &PathSet, cuts: &[usize]) -> PathSet {
    let mut merged: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    for (p, &cut) in ps.paths().iter().zip(cuts.iter().cycle()) {
        *merged
            .entry(p.items[..cut.min(p.items.len())].to_vec())
            .or_insert(0.0) += p.prob;
    }
    PathSet::from_weighted(ps.k(), merged.into_iter().collect()).unwrap()
}

/// Pairwise priors with exact 0s and 1s: tuples on a staircase, so pairs
/// two or more steps apart have disjoint supports.
fn staircase(widths: &[f64]) -> PairwiseMatrix {
    let table = UncertainTable::new(
        widths
            .iter()
            .enumerate()
            .map(|(t, &w)| ScoreDist::uniform_centered(t as f64 * 0.5, w).unwrap())
            .collect(),
    )
    .unwrap();
    let pw = PairwiseMatrix::compute(&table);
    assert_eq!(pw.pr(0, widths.len() - 1), 0.0);
    assert_eq!(pw.pr(widths.len() - 1, 0), 1.0);
    pw
}

/// The exact expected residual of `chosen` plus `q`: materialize the
/// refine, evaluate every class with the naive reference path.
fn reference_residual(
    ps: &PathSet,
    chosen: &[Question],
    q: Question,
    ctx: &ResidualCtx<'_>,
) -> f64 {
    let mut part = AnswerPartition::root(ps);
    for c in chosen.iter().chain([&q]) {
        part.refine(c, ctx);
    }
    part.expected_uncertainty_reference(ctx.measure)
}

/// Reference residuals within this of each other are a tie: the
/// lookahead may order them either way (DESIGN.md §10).
const TIE: f64 = 1e-12;

/// Asserts `TB-off` ranks like the reference evaluator: position by
/// position, the chosen questions' reference residuals tie.
fn check_tb_off(ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Result<(), TestCaseError> {
    let mut scored: Vec<(f64, Question)> = relevant_questions(ps, ctx)
        .into_iter()
        .map(|q| (reference_residual(ps, &[], q, ctx), q))
        .collect();
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let fast = TbOff.select(ps, budget, ctx);
    prop_assert_eq!(fast.len(), scored.len().min(budget));
    for (q, (r, expected)) in fast.iter().zip(&scored) {
        let got = reference_residual(ps, &[], *q, ctx);
        prop_assert!(
            q == expected || (got - r).abs() <= TIE,
            "TB-off {}: chose {q} ({got}) where the reference chose {expected} ({r})",
            ctx.measure.name()
        );
    }
    Ok(())
}

/// Asserts `T1-on` picks the reference evaluator's question, or one whose
/// reference residual ties with it.
fn check_t1_on(ps: &PathSet, ctx: &ResidualCtx<'_>) -> Result<(), TestCaseError> {
    let reference = relevant_questions(ps, ctx)
        .into_iter()
        .map(|q| (reference_residual(ps, &[], q, ctx), q))
        .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let fast = T1On.next_question(ps, 1, ctx);
    match (fast, reference) {
        (Some(q), Some((r, expected))) => {
            let got = reference_residual(ps, &[], q, ctx);
            prop_assert!(
                q == expected || (got - r).abs() <= TIE,
                "T1-on {}: chose {q} ({got}) where the reference chose {expected} ({r})",
                ctx.measure.name()
            );
        }
        (fast, reference) => {
            prop_assert!(fast.is_none() && (reference.is_none() || ps.is_resolved()))
        }
    }
    Ok(())
}

/// Asserts `C-off` makes the reference evaluator's greedy choices (same
/// tie window as the selector), up to the first round where its choice
/// ties with the reference's; later rounds condition on different
/// questions and are not compared.
fn check_c_off(ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Result<(), TestCaseError> {
    let pool = relevant_questions(ps, ctx);
    let fast = COff.select(ps, budget, ctx);
    prop_assert_eq!(fast.len(), budget.min(pool.len()));
    for (round, &q) in fast.iter().enumerate() {
        let chosen = &fast[..round];
        let mut best: Option<(f64, Question)> = None;
        for &c in pool.iter().filter(|c| !chosen.contains(c)) {
            let r = reference_residual(ps, chosen, c, ctx);
            let better = match &best {
                None => true,
                Some((br, bq)) => r < *br - 1e-15 || ((r - *br).abs() <= 1e-15 && c < *bq),
            };
            if better {
                best = Some((r, c));
            }
        }
        let (r, expected) = best.expect("pool not exhausted");
        if q != expected {
            let got = reference_residual(ps, chosen, q, ctx);
            prop_assert!((got - r).abs() <= TIE,
                "C-off {} round {round}: chose {q} ({got}) where the reference chose {expected} ({r})",
                ctx.measure.name());
            break;
        }
    }
    Ok(())
}

/// Asserts the prefix-mass lookahead agrees with refine-then-reference
/// within 1e-12 for every tree pair, from the root and after refining by
/// the first two pairs.
fn assert_lookahead_matches_reference(
    ps: &PathSet,
    measure: &dyn UncertaintyMeasure,
    pairwise: &PairwiseMatrix,
) -> Result<(), TestCaseError> {
    let ctx = ResidualCtx { measure, pairwise };
    let pairs = all_tree_pairs(ps);
    let chosen: Vec<Question> = pairs.iter().copied().take(2).collect();
    let mut root = AnswerPartition::root(ps);
    let mut refined = AnswerPartition::root(ps);
    for c in &chosen {
        refined.refine(c, &ctx);
    }
    for &q in &pairs {
        for (part, given) in [(&mut root, &[][..]), (&mut refined, &chosen[..])] {
            let looked = part.expected_with_question(&q, &ctx);
            let reference = reference_residual(ps, given, q, &ctx);
            prop_assert!(
                (looked - reference).abs() < 1e-12,
                "{}: {looked} vs {reference} for {q} after {given:?}",
                measure.name()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn measures_are_nonnegative_and_zero_on_resolved((_, _pw, ps) in fixture(5)) {
        for kind in MeasureKind::all() {
            let m = kind.build();
            prop_assert!(m.uncertainty(&ps) >= 0.0, "{}", kind.name());
        }
        let resolved = PathSet::from_weighted(3, vec![(vec![0, 1, 2], 1.0)]).unwrap();
        for kind in MeasureKind::all() {
            prop_assert!(kind.build().uncertainty(&resolved).abs() < 1e-12);
        }
    }

    #[test]
    fn answer_probabilities_complement((_, pw, ps) in fixture(5)) {
        let m = MeasureKind::Entropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        for q in relevant_questions(&ps, &ctx) {
            let p = answer_probability(&ps, &q, &ctx);
            let pr = answer_probability(&ps, &q.flipped(), &ctx);
            prop_assert!((p + pr - 1.0).abs() < 1e-9);
            prop_assert!(p > 0.0 && p < 1.0, "relevant question must be uncertain");
        }
    }

    #[test]
    fn residual_never_exceeds_current_entropy((_, pw, ps) in fixture(5)) {
        // Conditioning reduces entropy in expectation — for every relevant
        // question, with the entropy-family measures.
        for kind in [MeasureKind::Entropy, MeasureKind::WeightedEntropy] {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let u = m.uncertainty(&ps);
            for q in relevant_questions(&ps, &ctx).into_iter().take(6) {
                let r = expected_residual_single(&ps, &q, &ctx);
                prop_assert!(r <= u + 1e-9, "{}: residual {r} > current {u}", kind.name());
            }
        }
    }

    #[test]
    fn partition_equals_bruteforce((_, pw, ps) in fixture(4)) {
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let qs: Vec<Question> = relevant_questions(&ps, &ctx).into_iter().take(3).collect();
        if qs.is_empty() { return Ok(()); }
        let fast = expected_residual_set(&ps, &qs, &ctx);
        let brute = expected_residual_set_bruteforce(&ps, &qs, &ctx);
        prop_assert!((fast - brute).abs() < 1e-9, "{fast} vs {brute}");
    }

    #[test]
    fn interned_partition_is_bit_identical_to_reference((_, pw, ps) in fixture(5)) {
        // The scratch/memo evaluation path of the interned partition must
        // reproduce the naive fresh-PathSet-per-class evaluation bit for
        // bit, for every measure, through an arbitrary refine sequence.
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let qs: Vec<Question> = relevant_questions(&ps, &ctx).into_iter().take(4).collect();
            let mut part = AnswerPartition::root(&ps);
            for q in &qs {
                let reference = part.expected_uncertainty_reference(ctx.measure);
                let fast = part.expected_uncertainty(ctx.measure);
                prop_assert_eq!(fast.to_bits(), reference.to_bits(),
                    "{}: {} vs {}", kind.name(), fast, reference);
                // Memoized re-query must not drift either.
                prop_assert_eq!(part.expected_uncertainty(ctx.measure).to_bits(),
                    reference.to_bits());
                part.refine(q, &ctx);
            }
            let reference = part.expected_uncertainty_reference(ctx.measure);
            prop_assert_eq!(part.expected_uncertainty(ctx.measure).to_bits(),
                reference.to_bits(), "{} after full refine", kind.name());
        }
    }

    #[test]
    fn lookahead_equals_refine_then_reference((_, pw, ps) in fixture(5)) {
        // One-step lookahead over memoized classes == materializing the
        // refine and evaluating with the naive reference path.
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        for q in relevant_questions(&ps, &ctx).into_iter().take(5) {
            let looked = AnswerPartition::root(&ps).expected_with_question(&q, &ctx);
            let mut part = AnswerPartition::root(&ps);
            part.refine(&q, &ctx);
            let reference = part.expected_uncertainty_reference(ctx.measure);
            prop_assert!((looked - reference).abs() < 1e-12,
                "{looked} vs {reference} for {q}");
        }
    }

    #[test]
    fn selectors_return_valid_budgeted_sets((_, pw, ps) in fixture(6), budget in 1usize..6) {
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let mut selectors: Vec<Box<dyn OfflineSelector>> = vec![
            Box::new(RandomSelector::new(1)),
            Box::new(NaiveSelector::new(2)),
            Box::new(TbOff),
            Box::new(COff),
        ];
        for sel in &mut selectors {
            let qs = sel.select(&ps, budget, &ctx);
            prop_assert!(qs.len() <= budget, "{} overspent", sel.name());
            let mut seen = std::collections::HashSet::new();
            for q in &qs {
                prop_assert!(seen.insert(q.canonical()), "{} duplicated {q}", sel.name());
            }
        }
    }

    #[test]
    fn astar_never_worse_than_greedy((_, pw, ps) in fixture(5), budget in 1usize..4) {
        let m = MeasureKind::Entropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let a = AStarOff::new().search(&ps, budget, &ctx);
        prop_assert!(a.optimal);
        let ra = expected_residual_set(&ps, &a.questions, &ctx);
        let rt = expected_residual_set(&ps, &TbOff.select(&ps, budget, &ctx), &ctx);
        let rc = expected_residual_set(&ps, &COff.select(&ps, budget, &ctx), &ctx);
        prop_assert!(ra <= rt + 1e-9, "A* {ra} vs TB {rt}");
        prop_assert!(ra <= rc + 1e-9, "A* {ra} vs C {rc}");
    }

    #[test]
    fn t1_on_picks_a_relevant_question((_, pw, ps) in fixture(6)) {
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let pool = relevant_questions(&ps, &ctx);
        match T1On.next_question(&ps, 10, &ctx) {
            Some(q) => prop_assert!(pool.contains(&q)),
            None => prop_assert!(pool.is_empty() || ps.is_resolved()),
        }
    }

    #[test]
    fn prefix_mass_lookahead_matches_reference(
        (_, pw, ps) in fixture(5),
        cuts in proptest::collection::vec(1usize..=3, 1..8),
        widths in proptest::collection::vec(0.1..0.9f64, 5..=5),
    ) {
        // Full-depth and mixed-length trees, marginal priors and priors of
        // exactly 0 and 1, from the root and from a refined partition.
        let stair = staircase(&widths);
        for set in [ps.clone(), mixed_length(&ps, &cuts)] {
            for pairwise in [&pw, &stair] {
                for kind in [MeasureKind::Entropy, MeasureKind::WeightedEntropy] {
                    assert_lookahead_matches_reference(&set, kind.build().as_ref(), pairwise)?;
                }
            }
        }
    }

    #[test]
    fn selectors_choose_what_the_reference_evaluator_chooses(
        (_, pw, ps) in fixture(6),
        cuts in proptest::collection::vec(1usize..=3, 1..8),
        budget in 1usize..6,
    ) {
        for set in [ps.clone(), mixed_length(&ps, &cuts)] {
            for kind in [MeasureKind::Entropy, MeasureKind::WeightedEntropy] {
                let m = kind.build();
                let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
                check_tb_off(&set, budget, &ctx)?;
                check_t1_on(&set, &ctx)?;
                check_c_off(&set, budget, &ctx)?;
            }
        }
    }
}
