//! Expected residual uncertainty (§III): the objective all question
//! selection strategies optimize.
//!
//! For a single question `q`, the expected residual uncertainty is
//!
//! ```text
//! R_q(T_K) = P(yes) · U(T_K | yes) + P(no) · U(T_K | no)
//! ```
//!
//! For a question *set* `Q` the expectation runs over joint answer
//! outcomes. Enumerating all `2^|Q|` outcomes is infeasible, but the
//! outcomes partition the path set into *answer-signature classes*
//! ([`AnswerPartition`]), and two sound prunings keep the class count
//! small:
//!
//! * a class with a single ordering is resolved — every measure assigns it
//!   zero uncertainty (a trait contract of
//!   [`UncertaintyMeasure`]), so it can be dropped outright;
//! * a question that no path of a class determines splits the class into
//!   two scaled copies whose contributions sum to the original — such
//!   questions are skipped for that class.
//!
//! The incremental partition is also what makes the conditional greedy
//! algorithm `C-off` cheap: the partition of the already-selected set is
//! refined once per round, and each candidate is scored with a one-step
//! lookahead over the existing classes (DESIGN.md §4).
//!
//! ## Hot-path representation
//!
//! This module is the inner loop of every greedy/`C-off` selection, so
//! the partition avoids the allocation storms the naive layout pays
//! (DESIGN.md §8). The root path set is interned once: classes hold
//! `(path index, weight)` members, so a class split copies pairs, never
//! item vectors. Class uncertainties are evaluated through a scratch
//! buffer that recycles one `Vec<Path>` (items included), plus a
//! per-class memo so unsplit classes are never re-evaluated. All of it is
//! bit-identical to the naive evaluation (pinned by proptests against
//! [`AnswerPartition::expected_uncertainty_reference`]). The memo belongs
//! to the measure the partition is scored with: scoring with another
//! measure clears it.
//!
//! ## Prefix-mass lookahead
//!
//! `U_H` and `U_Hw` are weighted sums of per-level prefix entropies
//! ([`UncertaintyMeasure::prefix_entropy_weights`]), and an answer only
//! reweights paths. So [`AnswerPartition::expected_with_question`] scores
//! a split class in one pass over its members: each member's yes/no
//! weight is accumulated into dense per-prefix-group masses, and each
//! child's level entropy is `H_ℓ = −Σ (G/M)·ln(G/M)` over its groups. No
//! child class, path set, sort or map is built. The result agrees with
//! refine-then-evaluate to within 1e-12 (a different summation order),
//! and the selectors make identical choices with it; `refine` and
//! [`AnswerPartition::expected_uncertainty`] stay on the exact path.

use crate::measures::UncertaintyMeasure;
use ctk_crowd::Question;
use ctk_prob::compare::PairwiseMatrix;
use ctk_tpo::answers::{implication, Implication};
use ctk_tpo::{Path, PathSet};
use std::cell::Cell;

/// Minimum class mass worth tracking (classes below this carry no
/// measurable expectation weight).
const MASS_EPS: f64 = 1e-12;

/// Everything needed to evaluate residual uncertainty: the measure and the
/// pairwise marginals used to split paths that leave a question
/// undetermined.
pub struct ResidualCtx<'a> {
    /// The uncertainty measure `U`.
    pub measure: &'a dyn UncertaintyMeasure,
    /// Marginal pairwise probabilities `P(s_i > s_j)`.
    pub pairwise: &'a PairwiseMatrix,
}

impl<'a> ResidualCtx<'a> {
    /// Marginal `P(i above j)` used for undetermined splits.
    pub fn prior(&self, i: u32, j: u32) -> f64 {
        self.pairwise.pr(i as usize, j as usize)
    }
}

/// Probability that the crowd answers “yes” to `q` under the current path
/// distribution (undetermined paths weighted by the marginal prior).
pub fn answer_probability(ps: &PathSet, q: &Question, ctx: &ResidualCtx<'_>) -> f64 {
    let prior = ctx.prior(q.i, q.j);
    ps.paths()
        .iter()
        .map(|p| {
            p.prob
                * match implication(&p.items, q.i, q.j) {
                    Implication::Yes => 1.0,
                    Implication::No => 0.0,
                    Implication::Undetermined => prior,
                }
        })
        .sum()
}

/// The root path set's orderings, interned once per partition.
#[derive(Debug)]
struct RootPaths {
    /// Length of the longest path: the row stride of `items`.
    depth: usize,
    /// Row-major items, `depth` slots per path (short paths padded).
    items: Vec<u32>,
    lens: Vec<usize>,
}

impl RootPaths {
    fn new(ps: &PathSet) -> Self {
        let depth = ps.paths().iter().map(|p| p.items.len()).max().unwrap_or(0);
        let mut items = vec![0; ps.len() * depth];
        for (row, p) in items.chunks_exact_mut(depth.max(1)).zip(ps.paths()) {
            row[..p.items.len()].copy_from_slice(&p.items);
        }
        Self {
            depth,
            items,
            lens: ps.paths().iter().map(|p| p.items.len()).collect(),
        }
    }

    fn count(&self) -> usize {
        self.lens.len()
    }

    fn items(&self, path: u32) -> &[u32] {
        let at = path as usize * self.depth;
        &self.items[at..at + self.lens[path as usize]]
    }
}

/// Prefix-group ids of the root paths: `ids[path·depth + ℓ]` names the
/// level-`ℓ+1` prefix `items[..min(ℓ+1, len)]` of `path` — the key
/// [`ctk_tpo::stats::level_distributions`] groups by. Ids are dense over
/// all levels.
#[derive(Debug)]
struct PrefixGroups {
    ids: Vec<u32>,
    /// The 0-based level of each group.
    level: Vec<usize>,
}

impl PrefixGroups {
    /// `None` when two root paths are the same ordering: the leaf level
    /// would merge what `U_H` counts as two leaves.
    fn new(roots: &RootPaths) -> Option<Self> {
        let depth = roots.depth;
        let mut order: Vec<u32> = (0..roots.count() as u32).collect();
        order.sort_unstable_by(|&a, &b| roots.items(a).cmp(roots.items(b)));
        if depth == 0
            || order
                .windows(2)
                .any(|w| roots.items(w[0]) == roots.items(w[1]))
        {
            return None;
        }
        // In lexicographic order, equal prefixes are contiguous runs.
        let mut ids = vec![0; roots.count() * depth];
        let mut level = Vec::new();
        for l in 0..depth {
            let mut prev: Option<&[u32]> = None;
            for &p in &order {
                let items = roots.items(p);
                let prefix = &items[..items.len().min(l + 1)];
                if prev != Some(prefix) {
                    level.push(l);
                    prev = Some(prefix);
                }
                ids[p as usize * depth + l] = (level.len() - 1) as u32;
            }
        }
        Some(Self { ids, level })
    }
}

/// The bound measure's prefix-entropy weights for every class depth
/// `1..=depth` (row `d` is `rows[d(d−1)/2..][..d]`), and the levels that
/// carry weight at a depth some root path has.
#[derive(Debug)]
struct LevelWeights {
    rows: Vec<f64>,
    active: Vec<usize>,
}

impl LevelWeights {
    fn new(measure: &dyn UncertaintyMeasure, roots: &RootPaths) -> Option<Self> {
        let depth = roots.depth;
        let mut rows = Vec::with_capacity(depth * (depth + 1) / 2);
        for d in 1..=depth {
            let w = measure.prefix_entropy_weights(d)?;
            if w.len() != d {
                return None;
            }
            rows.extend(w);
        }
        let mut weights = Self {
            rows,
            active: Vec::new(),
        };
        weights.active = (0..depth)
            .filter(|&l| roots.lens.iter().any(|&d| l < d && weights.row(d)[l] > 0.0))
            .collect();
        Some(weights)
    }

    fn row(&self, d: usize) -> &[f64] {
        &self.rows[d * d.saturating_sub(1) / 2..][..d]
    }
}

/// Fixed-point scale (2^62) of the lookahead's sums. Weights and
/// entropy terms are at most 1, and integer addition is associative, so a
/// child's masses and level entropies do not depend on the order its
/// members are visited in: two candidates whose splits mirror each other
/// (different paths, equal masses) score bit-identically and fall to the
/// question-id tie-break, as they do on the exact path, which sorts
/// before it sums.
const FIXED_ONE: f64 = (1u64 << 62) as f64;

fn to_fixed(x: f64) -> i64 {
    (x * FIXED_ONE) as i64
}

/// Dense per-group yes/no masses (fixed point), reused across every
/// class and candidate of a partition. A group's slots are valid only
/// when its stamp matches the current generation, so a reset costs O(1).
#[derive(Debug, Default)]
struct MassScratch {
    yes: Vec<i64>,
    no: Vec<i64>,
    stamp: Vec<u32>,
    generation: u32,
    touched: Vec<u32>,
    /// Per-level entropy sums of one child (fixed point).
    levels: Vec<i128>,
}

impl MassScratch {
    fn reset(&mut self, groups: usize) {
        if self.stamp.len() != groups {
            self.yes = vec![0; groups];
            self.no = vec![0; groups];
            self.stamp = vec![0; groups];
            self.generation = 0;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.touched.clear();
    }

    fn add(&mut self, group: u32, yes: i64, no: i64) {
        let g = group as usize;
        if self.stamp[g] == self.generation {
            self.yes[g] += yes;
            self.no[g] += no;
        } else {
            self.stamp[g] = self.generation;
            self.yes[g] = yes;
            self.no[g] = no;
            self.touched.push(group);
        }
    }
}

/// One child of a split under the prefix-mass lookahead.
#[derive(Debug, Default, Clone, Copy)]
struct Child {
    /// Fixed-point mass.
    mass: i64,
    /// Members with positive weight.
    count: usize,
    /// Longest member path.
    depth: usize,
}

impl Child {
    fn add(&mut self, weight: i64, len: usize) {
        if weight > 0 {
            self.mass += weight;
            self.count += 1;
            self.depth = self.depth.max(len);
        }
    }

    /// `U(child) = Σ_ℓ w_ℓ · H_ℓ` with `H_ℓ = −Σ (G/M)·ln(G/M)` over the
    /// child's level-ℓ groups; `side` holds its group masses.
    fn uncertainty(
        &self,
        side: &[i64],
        touched: &[u32],
        groups: &PrefixGroups,
        weights: &LevelWeights,
        levels: &mut Vec<i128>,
    ) -> f64 {
        if self.count <= 1 {
            return 0.0;
        }
        levels.clear();
        levels.resize(self.depth, 0);
        for &g in touched {
            let (l, g) = (groups.level[g as usize], g as usize);
            if l < self.depth && side[g] > 0 {
                let p = side[g] as f64 / self.mass as f64;
                levels[l] += i128::from(to_fixed(-p * p.ln()));
            }
        }
        weights
            .row(self.depth)
            .iter()
            .zip(levels.iter())
            .map(|(w, &h)| w * (h as f64 / FIXED_ONE))
            .sum()
    }
}

/// One class member: a root path and its (unnormalized) weight.
#[derive(Debug, Clone, Copy)]
struct Member {
    path: u32,
    prob: f64,
}

/// One answer-signature class: a set of weighted paths consistent with one
/// joint answer outcome (mass = outcome probability; paths unnormalized).
#[derive(Debug, Clone)]
struct Class {
    members: Vec<Member>,
    mass: f64,
    /// Lazily memoized `U(class)` under the partition's bound measure;
    /// classes are immutable once built, so the memo stays valid until
    /// the partition is scored with another measure.
    memo: Cell<Option<f64>>,
}

impl Class {
    fn new(members: Vec<Member>, mass: f64) -> Self {
        Self {
            members,
            mass,
            memo: Cell::new(None),
        }
    }

    fn uncertainty(
        &self,
        measure: &dyn UncertaintyMeasure,
        k: usize,
        roots: &RootPaths,
        scratch: &mut EvalScratch,
    ) -> f64 {
        if self.members.len() <= 1 || self.mass <= MASS_EPS {
            return 0.0;
        }
        if let Some(u) = self.memo.get() {
            return u;
        }
        let u = scratch.eval(measure, k, roots, &self.members);
        self.memo.set(Some(u));
        u
    }

    /// The naive evaluation (fresh `PathSet` with deep-cloned items) —
    /// the reference the scratch path must match bit for bit.
    fn uncertainty_reference(
        &self,
        measure: &dyn UncertaintyMeasure,
        k: usize,
        roots: &RootPaths,
    ) -> f64 {
        if self.members.len() <= 1 || self.mass <= MASS_EPS {
            return 0.0;
        }
        let set = PathSet::from_weighted(
            k,
            self.members
                .iter()
                .map(|m| (roots.items(m.path).to_vec(), m.prob))
                .collect(),
        )
        .expect("positive-mass class"); // ctk-allow(panic-unwrap): class mass was checked > 0 before grouping
        measure.uncertainty(&set)
    }

    /// Adds `P(yes)·U(yes child) + P(no)·U(no child)` of this class split
    /// by `q` to `acc`, from per-level prefix masses (module docs).
    /// Returns `false`, leaving `acc` alone, when `q` determines no member:
    /// the split would only scale the class.
    fn add_split_from_prefix_masses(
        &self,
        q: &Question,
        prior: f64,
        lookahead: (&RootPaths, &PrefixGroups, &LevelWeights),
        masses: &mut MassScratch,
        acc: &mut f64,
    ) -> bool {
        let (roots, groups, weights) = lookahead;
        let determines =
            |m: &Member| implication(roots.items(m.path), q.i, q.j) != Implication::Undetermined;
        if !self.members.iter().any(determines) {
            return false;
        }
        masses.reset(groups.level.len());
        let depth = roots.depth;
        let (mut yes, mut no) = (Child::default(), Child::default());
        for m in &self.members {
            let items = roots.items(m.path);
            let (wy, wn) = match implication(items, q.i, q.j) {
                Implication::Yes => (m.prob, 0.0),
                Implication::No => (0.0, m.prob),
                Implication::Undetermined => (m.prob * prior, m.prob * (1.0 - prior)),
            };
            let (wy, wn) = (to_fixed(wy), to_fixed(wn));
            yes.add(wy, items.len());
            no.add(wn, items.len());
            let ids = &groups.ids[m.path as usize * depth..][..depth];
            for &l in &weights.active {
                masses.add(ids[l], wy, wn);
            }
        }
        let MassScratch {
            yes: yes_side,
            no: no_side,
            touched,
            levels,
            ..
        } = masses;
        for (child, side) in [(yes, &*yes_side), (no, &*no_side)] {
            let mass = child.mass as f64 / FIXED_ONE;
            if mass > MASS_EPS {
                *acc += mass * child.uncertainty(side, touched, groups, weights, levels);
            }
        }
        true
    }
}

/// Reusable evaluation buffer: one `Vec<Path>` whose item vectors are
/// recycled across class evaluations, so scoring a candidate allocates
/// nothing once warm.
#[derive(Debug, Default)]
struct EvalScratch {
    buf: Vec<Path>,
}

impl EvalScratch {
    /// Evaluates `measure` on the normalized path set of `members`,
    /// reproducing [`PathSet::from_weighted`]'s exact float operations
    /// (filter, canonical sort, one summation order, one division per
    /// path) so the result is bit-identical to the reference evaluation.
    fn eval(
        &mut self,
        measure: &dyn UncertaintyMeasure,
        k: usize,
        roots: &RootPaths,
        members: &[Member],
    ) -> f64 {
        let mut buf = std::mem::take(&mut self.buf);
        buf.truncate(members.len());
        let reused = buf.len();
        for (slot, m) in buf.iter_mut().zip(members) {
            slot.items.clear();
            slot.items.extend_from_slice(roots.items(m.path));
            slot.prob = m.prob;
        }
        for m in &members[reused..] {
            buf.push(Path {
                items: roots.items(m.path).to_vec(),
                prob: m.prob,
            });
        }
        // ctk-allow(panic-unwrap): callers pass a non-empty positive-mass path class
        let set = PathSet::from_paths(k, buf).expect("positive-mass class");
        let u = measure.uncertainty(&set);
        self.buf = set.into_paths();
        u
    }
}

/// The joint-answer partition of a path set after conditioning on a
/// sequence of questions.
///
/// The partition is scored with one measure at a time (`'m` borrows it):
/// the class memos and the prefix-entropy weights belong to that measure,
/// and scoring with a different one rebinds the partition and clears the
/// memos.
pub struct AnswerPartition<'m> {
    k: usize,
    roots: RootPaths,
    /// `None` when the root holds duplicate orderings.
    groups: Option<PrefixGroups>,
    /// Unresolved classes only (resolved single-ordering classes carry zero
    /// uncertainty under every measure and are dropped eagerly).
    classes: Vec<Class>,
    scratch: EvalScratch,
    masses: MassScratch,
    /// The measure the memos were filled under.
    measure: Option<&'m dyn UncertaintyMeasure>,
    /// Its prefix-entropy weights, when it has them and `groups` exist.
    weights: Option<LevelWeights>,
}

impl<'m> AnswerPartition<'m> {
    /// The trivial partition: one class holding the whole path set. Items
    /// and prefix groups are interned here, once; every later split
    /// refers to them by path index.
    pub fn root(ps: &PathSet) -> Self {
        let roots = RootPaths::new(ps);
        let mass: f64 = ps.paths().iter().map(|p| p.prob).sum();
        let classes = if ps.len() <= 1 {
            Vec::new()
        } else {
            let members = ps
                .paths()
                .iter()
                .enumerate()
                .map(|(i, p)| Member {
                    path: i as u32,
                    prob: p.prob,
                })
                .collect();
            vec![Class::new(members, mass)]
        };
        Self {
            k: ps.k(),
            groups: PrefixGroups::new(&roots),
            roots,
            classes,
            scratch: EvalScratch::default(),
            masses: MassScratch::default(),
            measure: None,
            weights: None,
        }
    }

    /// Number of live (unresolved) classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Binds the partition to `measure`, clearing the class memos when it
    /// is not the measure they were filled under. The borrow keeps the
    /// bound measure alive, so pointer identity is measure identity.
    fn bind(&mut self, measure: &'m dyn UncertaintyMeasure) {
        if self
            .measure
            .is_some_and(|bound| std::ptr::eq(bound, measure))
        {
            return;
        }
        for class in &self.classes {
            class.memo.set(None);
        }
        self.weights = self
            .groups
            .as_ref()
            .and_then(|_| LevelWeights::new(measure, &self.roots));
        self.measure = Some(measure);
    }

    /// Expected uncertainty over the partition:
    /// `Σ_class P(class) · U(class)`.
    pub fn expected_uncertainty(&mut self, measure: &'m dyn UncertaintyMeasure) -> f64 {
        self.bind(measure);
        // `.sum()` (not a hand-rolled accumulator): f64's `Sum` folds from
        // -0.0, and bit-identity with the pre-rewrite implementation
        // includes the sign of zero on fully resolved partitions.
        let Self {
            k,
            roots,
            classes,
            scratch,
            ..
        } = self;
        classes
            .iter()
            .map(|c| c.mass * c.uncertainty(measure, *k, roots, scratch))
            .sum()
    }

    /// The pre-rewrite evaluation path (fresh `PathSet` per class, deep
    /// item clones, no memo). Kept as the reference that equivalence
    /// tests and the `belief_hot_paths` bench compare against.
    #[doc(hidden)]
    pub fn expected_uncertainty_reference(&self, measure: &dyn UncertaintyMeasure) -> f64 {
        self.classes
            .iter()
            .map(|c| c.mass * c.uncertainty_reference(measure, self.k, &self.roots))
            .sum()
    }

    /// Expected uncertainty after additionally asking `q` (one-step
    /// lookahead; the partition's classes are not modified — only the
    /// per-class memo and the scratch buffers, which is why this takes
    /// `&mut self`). Measures with prefix-entropy weights score split
    /// classes from prefix masses (module docs); others materialize both
    /// children and evaluate them exactly.
    pub fn expected_with_question(&mut self, q: &Question, ctx: &ResidualCtx<'m>) -> f64 {
        self.bind(ctx.measure);
        let prior = ctx.prior(q.i, q.j);
        let Self {
            k,
            roots,
            groups,
            classes,
            scratch,
            masses,
            weights,
            ..
        } = self;
        let mut acc = 0.0;
        for class in classes.iter() {
            if let (Some(groups), Some(weights)) = (groups.as_ref(), weights.as_ref()) {
                let lookahead = (&*roots, groups, weights);
                if !class.add_split_from_prefix_masses(q, prior, lookahead, masses, &mut acc) {
                    acc += class.mass * class.uncertainty(ctx.measure, *k, roots, scratch);
                }
                continue;
            }
            let (yes, no, split) = split_class(class, roots, q, prior);
            if !split {
                acc += class.mass * class.uncertainty(ctx.measure, *k, roots, scratch);
                continue;
            }
            for c in [yes, no].into_iter().flatten() {
                acc += c.mass * c.uncertainty(ctx.measure, *k, roots, scratch);
            }
        }
        acc
    }

    /// Conditions the partition on `q` (splits every class by the answer).
    pub fn refine(&mut self, q: &Question, ctx: &ResidualCtx<'_>) {
        let prior = ctx.prior(q.i, q.j);
        let mut next = Vec::with_capacity(self.classes.len() + 4);
        for class in self.classes.drain(..) {
            let (yes, no, split) = split_class(&class, &self.roots, q, prior);
            if !split {
                next.push(class);
                continue;
            }
            next.extend(
                [yes, no]
                    .into_iter()
                    .flatten()
                    .filter(|c| c.members.len() > 1),
            );
        }
        self.classes = next;
    }
}

/// Splits a class by a question. Returns `(yes, no, split)`; `split` is
/// false when the question does not determine any path of the class (the
/// class would just be scaled into two copies — a no-op for the
/// expectation).
fn split_class(
    class: &Class,
    roots: &RootPaths,
    q: &Question,
    prior: f64,
) -> (Option<Class>, Option<Class>, bool) {
    let any_determined = class
        .members
        .iter()
        .any(|m| implication(roots.items(m.path), q.i, q.j) != Implication::Undetermined);
    if !any_determined {
        return (None, None, false);
    }
    let mut yes = Vec::new();
    let mut no = Vec::new();
    for &m in &class.members {
        match implication(roots.items(m.path), q.i, q.j) {
            Implication::Yes => yes.push(m),
            Implication::No => no.push(m),
            Implication::Undetermined => {
                if prior > 0.0 {
                    yes.push(Member {
                        prob: m.prob * prior,
                        ..m
                    });
                }
                if prior < 1.0 {
                    no.push(Member {
                        prob: m.prob * (1.0 - prior),
                        ..m
                    });
                }
            }
        }
    }
    let wrap = |members: Vec<Member>| -> Option<Class> {
        let mass: f64 = members.iter().map(|m| m.prob).sum();
        (mass > MASS_EPS).then_some(Class::new(members, mass))
    };
    (wrap(yes), wrap(no), true)
}

/// Expected residual uncertainty after asking a single question.
pub fn expected_residual_single(ps: &PathSet, q: &Question, ctx: &ResidualCtx<'_>) -> f64 {
    AnswerPartition::root(ps).expected_with_question(q, ctx)
}

/// Expected residual uncertainty after asking all questions in `qs`
/// (answers assumed reliable; the expectation is over the joint answer
/// distribution induced by the current path set).
pub fn expected_residual_set(ps: &PathSet, qs: &[Question], ctx: &ResidualCtx<'_>) -> f64 {
    let mut partition = AnswerPartition::root(ps);
    for q in qs {
        partition.refine(q, ctx);
    }
    partition.expected_uncertainty(ctx.measure)
}

/// Reference implementation that enumerates all `2^|Q|` answer outcomes —
/// exponential, used only by tests and the `ablations` bench to validate
/// the partition algorithm.
pub fn expected_residual_set_bruteforce(
    ps: &PathSet,
    qs: &[Question],
    ctx: &ResidualCtx<'_>,
) -> f64 {
    let m = qs.len();
    assert!(m <= 20, "brute force limited to 20 questions");
    let mut total = 0.0;
    for mask in 0u32..(1u32 << m) {
        // Outcome: bit b set => answer to qs[b] is "yes".
        let mut class: Vec<Path> = ps.paths().to_vec();
        for (b, q) in qs.iter().enumerate() {
            let yes = mask & (1 << b) != 0;
            let prior = ctx.prior(q.i, q.j);
            class = class
                .into_iter()
                .filter_map(|p| {
                    let factor = match implication(&p.items, q.i, q.j) {
                        Implication::Yes => {
                            if yes {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        Implication::No => {
                            if yes {
                                0.0
                            } else {
                                1.0
                            }
                        }
                        Implication::Undetermined => {
                            if yes {
                                prior
                            } else {
                                1.0 - prior
                            }
                        }
                    };
                    let mass = p.prob * factor;
                    (mass > 0.0).then_some(Path {
                        items: p.items,
                        prob: mass,
                    })
                })
                .collect();
        }
        let mass: f64 = class.iter().map(|p| p.prob).sum();
        if mass > MASS_EPS {
            let set = PathSet::from_weighted(
                ps.k(),
                class.into_iter().map(|p| (p.items, p.prob)).collect(),
            )
            .expect("positive mass"); // ctk-allow(panic-unwrap): guarded by the mass > MASS_EPS branch
            total += mass * ctx.measure.uncertainty(&set);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{Entropy, MeasureKind, WeightedEntropy};
    use ctk_prob::{ScoreDist, UncertainTable};

    fn table3() -> UncertainTable {
        UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.1, 1.1).unwrap(),
            ScoreDist::uniform(0.2, 1.2).unwrap(),
        ])
        .unwrap()
    }

    fn sample() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![0, 2], 0.2), (vec![1, 0], 0.3)],
        )
        .unwrap()
    }

    #[test]
    fn answer_probability_membership_semantics() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let p = answer_probability(&sample(), &Question::new(0, 1), &ctx);
        // [0,1] yes (0.5) + [0,2] yes (0.2) + [1,0] no => 0.7.
        assert!((p - 0.7).abs() < 1e-12);
        let q = answer_probability(&sample(), &Question::new(1, 0), &ctx);
        assert!((p + q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn residual_of_empty_set_is_current_uncertainty() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        assert!((expected_residual_set(&s, &[], &ctx) - Entropy.uncertainty(&s)).abs() < 1e-12);
    }

    #[test]
    fn informative_question_reduces_expected_entropy() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let r = expected_residual_single(&s, &Question::new(0, 1), &ctx);
        assert!(r < Entropy.uncertainty(&s), "residual {r}");
        let r2 = expected_residual_single(&s, &Question::new(1, 2), &ctx);
        assert!(r2 <= Entropy.uncertainty(&s) + 1e-12);
    }

    #[test]
    fn partition_matches_bruteforce_all_measures() {
        let pw = PairwiseMatrix::compute(&table3());
        let s = sample();
        let qs = [
            Question::new(0, 1),
            Question::new(1, 2),
            Question::new(0, 2),
        ];
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            let fast = expected_residual_set(&s, &qs, &ctx);
            let brute = expected_residual_set_bruteforce(&s, &qs, &ctx);
            assert!(
                (fast - brute).abs() < 1e-9,
                "{}: partition {fast} vs brute {brute}",
                kind.name()
            );
        }
    }

    #[test]
    fn scratch_evaluation_is_bit_identical_to_reference() {
        let pw = PairwiseMatrix::compute(&table3());
        let s = sample();
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            let mut part = AnswerPartition::root(&s);
            for q in [Question::new(0, 1), Question::new(0, 2)] {
                let reference = part.expected_uncertainty_reference(ctx.measure);
                let scratch = part.expected_uncertainty(ctx.measure);
                assert_eq!(
                    scratch.to_bits(),
                    reference.to_bits(),
                    "{}: {scratch} vs {reference}",
                    kind.name()
                );
                // And again, to exercise the memo path.
                assert_eq!(
                    part.expected_uncertainty(ctx.measure).to_bits(),
                    reference.to_bits()
                );
                part.refine(&q, &ctx);
            }
        }
    }

    #[test]
    fn more_questions_never_increase_expected_entropy() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let q1 = [Question::new(0, 1)];
        let q2 = [Question::new(0, 1), Question::new(0, 2)];
        let r1 = expected_residual_set(&s, &q1, &ctx);
        let r2 = expected_residual_set(&s, &q2, &ctx);
        assert!(r2 <= r1 + 1e-12, "conditioning helps: {r2} vs {r1}");
    }

    #[test]
    fn question_order_does_not_matter() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let a = [Question::new(0, 1), Question::new(1, 2)];
        let b = [Question::new(1, 2), Question::new(0, 1)];
        let ra = expected_residual_set(&s, &a, &ctx);
        let rb = expected_residual_set(&s, &b, &ctx);
        assert!((ra - rb).abs() < 1e-12);
    }

    #[test]
    fn lookahead_matches_materialized_refine() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let q = Question::new(0, 2);
        let looked = AnswerPartition::root(&s).expected_with_question(&q, &ctx);
        let mut part = AnswerPartition::root(&s);
        part.refine(&q, &ctx);
        let materialized = part.expected_uncertainty(ctx.measure);
        assert!((looked - materialized).abs() < 1e-12);
    }

    #[test]
    fn resolved_classes_are_dropped() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let mut part = AnswerPartition::root(&s);
        assert_eq!(part.class_count(), 1);
        // Conditioning on (0,1) splits into {[0,1],[0,2]} and {[1,0]}; the
        // singleton class is dropped.
        part.refine(&Question::new(0, 1), &ctx);
        assert_eq!(part.class_count(), 1);
        // (1,2) separates [0,1] (1 in, 2 out -> yes) from [0,2] (no):
        // both resulting classes are singletons and get dropped.
        part.refine(&Question::new(1, 2), &ctx);
        assert_eq!(part.class_count(), 0);
        assert_eq!(part.expected_uncertainty(ctx.measure), 0.0);
    }

    #[test]
    fn memo_does_not_leak_across_measures() {
        let s = sample();
        let weighted = WeightedEntropy::default();
        let mut part = AnswerPartition::root(&s);
        let h = part.expected_uncertainty(&Entropy);
        let hw = part.expected_uncertainty(&weighted);
        assert_eq!(
            hw.to_bits(),
            part.expected_uncertainty_reference(&weighted).to_bits(),
            "U_Hw {hw} after scoring U_H {h}"
        );
        assert_eq!(part.expected_uncertainty(&Entropy).to_bits(), h.to_bits());
    }

    #[test]
    fn prefix_mass_lookahead_handles_mixed_lengths_and_duplicates() {
        let pw = PairwiseMatrix::compute(&table3());
        // A partial tree: [0] is a prefix of [0, 1].
        let mixed = PathSet::from_weighted(
            2,
            vec![
                (vec![0], 0.3),
                (vec![0, 1], 0.4),
                (vec![1, 2], 0.2),
                (vec![2], 0.1),
            ],
        )
        .unwrap();
        // Duplicate orderings: the lookahead falls back to the exact path.
        let dup = PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![0, 1], 0.2), (vec![1, 0], 0.3)],
        )
        .unwrap();
        assert!(AnswerPartition::root(&mixed).groups.is_some());
        assert!(AnswerPartition::root(&dup).groups.is_none());
        for kind in [MeasureKind::Entropy, MeasureKind::WeightedEntropy] {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            for s in [&mixed, &dup] {
                for q in [
                    Question::new(0, 1),
                    Question::new(0, 2),
                    Question::new(1, 2),
                ] {
                    let looked = AnswerPartition::root(s).expected_with_question(&q, &ctx);
                    let mut part = AnswerPartition::root(s);
                    part.refine(&q, &ctx);
                    let reference = part.expected_uncertainty_reference(ctx.measure);
                    assert!(
                        (looked - reference).abs() < 1e-12,
                        "{}: {looked} vs {reference} for {q}",
                        kind.name()
                    );
                }
            }
        }
    }
}
