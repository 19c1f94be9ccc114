//! Cross-session question batching: questions from many sessions,
//! deduplicated through an answer cache before any crowd budget is
//! spent.
//!
//! Two tenants asking about the same pair of objects is the common case a
//! serving layer exists to exploit: the crowd's answer to `t_i ?≺ t_j` is
//! a fact about the objects, not about the session that asked, so it can
//! be bought once and served many times. The cache is keyed on the
//! canonical orientation of the question and re-orients answers on the
//! way out.
//!
//! Caveat: with noisy workers a cached answer is one sample of the
//! answer distribution, frozen at first ask — sessions sharing it see
//! positively correlated noise (the economics the paper's §III-C majority
//! analysis prices). With reliable workers (accuracy 1) the cache is
//! lossless.

use crate::metrics::ServiceMetrics;
use crate::shard::{Pending, ShardLedger};
use ctk_crowd::{Answer, Crowd, Question, RouteHint};
use std::collections::BTreeMap;
use std::time::Instant;

/// One remembered crowd verdict.
#[derive(Debug, Clone, Copy)]
pub struct CachedAnswer {
    /// Answer in the *canonical* orientation of the question.
    pub yes: bool,
    /// Nominal accuracy of the aggregated answer when it was bought.
    pub accuracy: f64,
}

/// Memo of every pairwise verdict the crowd has produced, shared by all
/// sessions of a service.
#[derive(Debug, Clone, Default)]
pub struct AnswerCache {
    map: BTreeMap<Question, CachedAnswer>,
    hits: u64,
    lookups: u64,
}

impl AnswerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the answer for `q`, re-oriented to `q`'s own orientation,
    /// together with the accuracy it was bought at.
    pub fn get(&mut self, q: Question) -> Option<(Answer, f64)> {
        self.lookups += 1;
        let canonical = q.canonical();
        let cached = self.map.get(&canonical)?;
        self.hits += 1;
        Some((
            Answer {
                question: q,
                yes: if q == canonical {
                    cached.yes
                } else {
                    !cached.yes
                },
            },
            cached.accuracy,
        ))
    }

    /// Stores a freshly bought answer (canonicalized).
    pub fn insert(&mut self, answer: Answer, accuracy: f64) {
        let canonical = answer.question.canonical();
        let yes = if answer.question == canonical {
            answer.yes
        } else {
            !answer.yes
        };
        self.map.insert(canonical, CachedAnswer { yes, accuracy });
    }

    /// Distinct questions remembered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no answer was cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// Anything that can memoize crowd verdicts for the batcher: the plain
/// [`AnswerCache`] or the question-hash-partitioned
/// [`ShardedAnswerCache`]. The purchase path resolves against the trait,
/// so it is the same code at any shard count.
pub trait AnswerStore {
    /// Looks up the answer for `q`, re-oriented to `q`'s orientation,
    /// with the accuracy it was bought at.
    fn lookup(&mut self, q: Question) -> Option<(Answer, f64)>;
    /// Stores a freshly bought answer (canonicalized).
    fn store(&mut self, answer: Answer, accuracy: f64);
}

impl AnswerStore for AnswerCache {
    fn lookup(&mut self, q: Question) -> Option<(Answer, f64)> {
        self.get(q)
    }
    fn store(&mut self, answer: Answer, accuracy: f64) {
        self.insert(answer, accuracy)
    }
}

/// An [`AnswerCache`] partitioned by question hash: both orientations of
/// a pair land in the same partition (the hash is over the canonical
/// orientation), so re-orientation semantics are exactly the single
/// cache's. With one partition this *is* the single cache; partitioning
/// only changes which map a question lives in, never what it answers —
/// lookups and economics are identical at any shard count.
#[derive(Debug, Clone)]
pub struct ShardedAnswerCache {
    shards: Vec<AnswerCache>,
}

impl ShardedAnswerCache {
    /// A cache over `shards` partitions (clamped to >= 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| AnswerCache::new()).collect(),
        }
    }

    /// Which partition owns `q` — a deterministic multiplicative hash of
    /// the canonical orientation, so `(i, j)` and `(j, i)` always agree.
    fn shard_of(&self, q: Question) -> usize {
        let c = q.canonical();
        let h = u64::from(c.i).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(c.j).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        (h % self.shards.len() as u64) as usize
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Distinct questions remembered in partition `i` (observability for
    /// the imbalance metric), `None` past the last partition.
    pub fn shard_len(&self, i: usize) -> Option<usize> {
        self.shards.get(i).map(AnswerCache::len)
    }

    /// Distinct questions remembered across all partitions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(AnswerCache::len).sum()
    }

    /// True when no answer was cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(AnswerCache::is_empty)
    }

    /// Lookups served from the cache, across partitions.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(AnswerCache::hits).sum()
    }

    /// Total lookups, across partitions.
    pub fn lookups(&self) -> u64 {
        self.shards.iter().map(AnswerCache::lookups).sum()
    }
}

impl AnswerStore for ShardedAnswerCache {
    fn lookup(&mut self, q: Question) -> Option<(Answer, f64)> {
        let s = self.shard_of(q);
        self.shards[s].get(q)
    }
    fn store(&mut self, answer: Answer, accuracy: f64) {
        let s = self.shard_of(answer.question);
        self.shards[s].insert(answer, accuracy)
    }
}

/// One delivered answer with its provenance.
#[derive(Debug, Clone, Copy)]
pub struct ServedAnswer {
    /// The answer, oriented to the question as the session posed it.
    pub answer: Answer,
    /// Nominal accuracy of the answer — the accuracy at *purchase* time
    /// for cached answers, which may differ from the crowd's current one
    /// if the backend's policy drifted.
    pub accuracy: f64,
    /// True when served from the cache (no crowd budget spent).
    pub cached: bool,
}

/// How one session's pending batch ended at the purchase path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Every pending question was answered (cache or live).
    Resolved,
    /// A cache miss found no grant unit available: the session parks
    /// `AwaitingBudget` with its remaining questions.
    Parked,
    /// The crowd could not answer a live question: the batch is
    /// decisively cut to the prefix that was served (the driver reads the
    /// partial set as "wind down", as a standalone session does on an
    /// exhausted crowd).
    Starved,
}

/// Result of resolving one session's pending batch: the answers in
/// request order, how many came from the cache, and how it ended.
#[derive(Debug, Clone)]
pub(crate) struct Resolution {
    pub(crate) served: Vec<ServedAnswer>,
    pub(crate) cache_hits: u64,
    pub(crate) disposition: Disposition,
}

/// The purchase loop. The in-place sweep calls it directly; the threaded
/// topology's coordinator calls it on each request a shard worker ships
/// over. One implementation is what makes the two equivalent by
/// construction rather than by parallel maintenance.
///
/// Resolves `pending` front-to-back, cache-first, crowd-second, popping
/// each served question. A cache miss with no grant unit available in
/// `ledger` returns [`Disposition::Parked`] with `pending` holding the
/// unresolved tail; a crowd that cannot answer returns
/// [`Disposition::Starved`] with `pending` cleared. Counts cache hits,
/// live purchases, routing splits and purchase time on `metrics`.
pub(crate) fn resolve_pending<C: Crowd, S: AnswerStore>(
    pending: &mut Pending,
    ledger: &mut ShardLedger,
    cache: &mut S,
    crowd: &mut C,
    metrics: &mut ServiceMetrics,
) -> Resolution {
    // ctk-allow(det-wall-clock): purchase-duration metric only; never feeds a decision
    let p0 = Instant::now();
    let mut served = Vec::new();
    let mut cache_hits = 0u64;
    let disposition = loop {
        let Some(&(q, hint)) = pending.front() else {
            break Disposition::Resolved;
        };
        if let Some((answer, accuracy)) = cache.lookup(q) {
            pending.pop_front();
            cache_hits += 1;
            metrics.cache_hits += 1;
            served.push(ServedAnswer {
                answer,
                accuracy,
                cached: true,
            });
            continue;
        }
        if ledger.available() == 0 {
            break Disposition::Parked;
        }
        let Some(answer) = crowd.ask_routed(q, hint) else {
            pending.clear();
            break Disposition::Starved;
        };
        pending.pop_front();
        ledger.spend_one();
        let accuracy = crowd.answer_accuracy();
        cache.store(answer, accuracy);
        metrics.crowd_questions += 1;
        match hint {
            RouteHint::Expert => metrics.routed_expert += 1,
            RouteHint::Cheap => metrics.routed_cheap += 1,
            RouteHint::Any => {}
        }
        served.push(ServedAnswer {
            answer,
            accuracy,
            cached: false,
        });
    };
    metrics.purchase_time += p0.elapsed();
    Resolution {
        served,
        cache_hits,
        disposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};

    fn crowd(budget: usize) -> CrowdSimulator<PerfectWorker> {
        CrowdSimulator::new(
            GroundTruth::from_scores(vec![0.1, 0.5, 0.9]),
            PerfectWorker,
            VotePolicy::Single,
            budget,
        )
        .expect("valid vote policy")
    }

    /// One session's batch through the purchase loop, unrouted.
    fn resolve(
        questions: &[Question],
        ledger: &mut ShardLedger,
        cache: &mut AnswerCache,
        crowd: &mut CrowdSimulator<PerfectWorker>,
        metrics: &mut ServiceMetrics,
    ) -> Resolution {
        let mut pending: Pending = questions.iter().map(|&q| (q, RouteHint::Any)).collect();
        resolve_pending(&mut pending, ledger, cache, crowd, metrics)
    }

    #[test]
    fn cache_orients_answers() {
        let mut cache = AnswerCache::new();
        // Truth: 2 ranks above 0, stored via the (2, 0) orientation.
        cache.insert(
            Answer {
                question: Question::new(2, 0),
                yes: true,
            },
            1.0,
        );
        assert_eq!(cache.len(), 1);
        let (a, acc) = cache.get(Question::new(2, 0)).unwrap();
        assert!(a.yes);
        assert_eq!(acc, 1.0, "purchase-time accuracy is preserved");
        let (b, _) = cache.get(Question::new(0, 2)).unwrap();
        assert!(!b.yes, "flipped orientation must flip the answer");
        assert_eq!(b.question, Question::new(0, 2));
        assert_eq!(cache.hits(), 2);
        assert!(cache.get(Question::new(0, 1)).is_none());
        assert_eq!(cache.lookups(), 3);
    }

    #[test]
    fn duplicate_questions_cost_one_crowd_ask() {
        let mut c = crowd(10);
        let mut cache = AnswerCache::new();
        let mut ledger = ShardLedger::default();
        ledger.grant(10);
        let mut metrics = ServiceMetrics::default();
        let a = resolve(
            &[Question::new(1, 0), Question::new(2, 1)],
            &mut ledger,
            &mut cache,
            &mut c,
            &mut metrics,
        );
        let b = resolve(
            &[Question::new(0, 1), Question::new(2, 1)],
            &mut ledger,
            &mut cache,
            &mut c,
            &mut metrics,
        );
        assert_eq!(a.served.len() + b.served.len(), 4);
        assert_eq!(metrics.crowd_questions, 2, "two distinct pairs");
        assert_eq!(metrics.cache_hits, 2, "second session fully deduped");
        assert_eq!(b.cache_hits, 2, "second session fully deduped");
        assert_eq!(a.disposition, Disposition::Resolved);
        assert_eq!(b.disposition, Disposition::Resolved);
        // Both sessions got consistent verdicts, with provenance.
        assert!(a.served[0].answer.yes); // 1 above 0
        assert!(!b.served[0].answer.yes); // 0 NOT above 1
        assert!(a.served[1].answer.yes && b.served[1].answer.yes);
        assert!(!a.served[0].cached && b.served[0].cached);
        assert_eq!(c.remaining(), 8);
    }

    #[test]
    fn sharded_cache_agrees_with_the_single_cache() {
        // The same insert/lookup trace against 1, 2, 3 and 4 partitions
        // must answer exactly like the plain cache — partitioning decides
        // where a fact lives, never what it says.
        let pairs = [(2u32, 0u32), (1, 0), (2, 1), (0, 2), (1, 2)];
        for shards in 1..=4 {
            let mut single = AnswerCache::new();
            let mut sharded = ShardedAnswerCache::new(shards);
            for (n, &(i, j)) in pairs.iter().enumerate() {
                let ans = Answer {
                    question: Question::new(i, j),
                    yes: n % 2 == 0,
                };
                single.insert(ans, 0.9);
                sharded.store(ans, 0.9);
            }
            for &(i, j) in &pairs {
                for q in [Question::new(i, j), Question::new(j, i)] {
                    let a = single.get(q);
                    let b = sharded.lookup(q);
                    match (a, b) {
                        (Some((x, xa)), Some((y, ya))) => {
                            assert_eq!(x.yes, y.yes, "{q:?} at {shards} shards");
                            assert_eq!(x.question, y.question);
                            assert_eq!(xa.to_bits(), ya.to_bits());
                        }
                        (None, None) => {}
                        other => panic!("presence diverged for {q:?}: {other:?}"),
                    }
                }
            }
            assert_eq!(single.len(), sharded.len());
            assert_eq!(single.hits(), sharded.hits());
            assert_eq!(single.lookups(), sharded.lookups());
        }
    }

    #[test]
    fn exhausted_crowd_yields_prefixes_but_serves_cache() {
        let mut c = crowd(1);
        let mut cache = AnswerCache::new();
        // Enough grant for every question: only the crowd runs out.
        let mut ledger = ShardLedger::default();
        ledger.grant(3);
        let mut metrics = ServiceMetrics::default();
        let a = resolve(
            &[Question::new(1, 0), Question::new(2, 1)],
            &mut ledger,
            &mut cache,
            &mut c,
            &mut metrics,
        );
        let b = resolve(
            &[Question::new(1, 0)],
            &mut ledger,
            &mut cache,
            &mut c,
            &mut metrics,
        );
        // Session 0: first answered live, second unanswerable.
        assert_eq!(a.served.len(), 1);
        assert_eq!(a.disposition, Disposition::Starved);
        // Session 1: crowd is spent but the answer is cached.
        assert_eq!(b.served.len(), 1);
        assert_eq!(b.disposition, Disposition::Resolved);
        assert_eq!(b.cache_hits, 1);
        assert_eq!(2 + 1 - a.served.len() - b.served.len(), 1, "one unanswered");
        assert_eq!(metrics.crowd_questions, 1);
    }
}
