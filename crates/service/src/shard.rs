//! Shard-owned serving state: each shard owns its sessions end to end —
//! registry, scheduler queues and an event ready-queue — so nothing a
//! shard does to its own sessions contends with another shard
//! (DESIGN.md §14). Under the threaded topology (§15) a whole [`Shard`]
//! moves onto a dedicated worker thread.
//!
//! `Shard::sweep` is the one implementation of an event sweep. The
//! service's `pump` runs it in place, shard after shard; the threaded
//! topology runs it on each shard's worker thread. The only step that
//! touches cross-shard state — buying answers from the crowd — is a
//! callback: in place it resolves against the service's crowd, cache and
//! ledger directly, threaded it is a channel round trip to the
//! coordinator's purchase barrier.
//!
//! Sessions are strided across shards by id (`shard = id mod shards`);
//! the answer cache shards separately by question hash (see
//! `ShardedAnswerCache`), because an answer is a fact about a pair of
//! objects, not about the session that asked.
//!
//! Budget is reconciled, not shared: the crowd's remaining budget is the
//! single source of truth, and shards spend it only through explicit
//! [`ShardLedger`] grants issued by `reconcile` in shard order. The
//! ledgers live beside the crowd on the coordinator side (the service
//! when sweeping in place, the coordinator thread in the threaded
//! topology) — a shard never spends crowd budget except through the
//! sequential purchase path. Every reconcile first reclaims all unspent
//! grants and then re-grants against current demand, so the sum of
//! outstanding grants never exceeds what the crowd can actually serve —
//! and a zero-grant reconcile is *not* progress, which is what lets the
//! event loop tell "blocked on the crowd" apart from livelock.

use crate::batcher::{Disposition, Resolution};
use crate::metrics::ServiceMetrics;
use crate::registry::{Registry, SessionEntry, SessionId, SessionState};
use crate::scheduler::Scheduler;
use crate::service::RoundOutcome;
use ctk_core::driver::DriverStatus;
use ctk_core::CoreError;
use ctk_crowd::{Question, RouteHint};
use ctk_quality::QuestionRouter;
use std::collections::VecDeque;
use std::time::Instant;

/// A session's unresolved questions with their routing hints (front =
/// next to serve).
pub(crate) type Pending = VecDeque<(Question, RouteHint)>;

/// One unit of work the event loop drains from a shard's ready-queue.
///
/// Events are the only cross-phase signal: a slow session parks itself
/// (leaving an event trail) instead of stalling a barrier everyone else
/// waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A session was submitted to this shard (observability; the
    /// scheduler picks it up from the registry's runnable set).
    Submitted(SessionId),
    /// A session's current batch is fully resolved (or decisively
    /// starved): its mailbox holds the answers, ready to feed.
    AnswersReady(SessionId),
    /// The reconciler issued this shard budget to spend on live crowd
    /// questions; parked sessions may resume.
    BudgetGranted {
        /// Grant units added to the shard's ledger (always > 0).
        granted: usize,
    },
    /// A session reached `Done` or `Failed` (observability).
    Finished(SessionId),
}

/// Per-shard budget grants: the admission-control layer between a shard's
/// live crowd asks and the crowd's own budget.
#[derive(Debug, Clone, Default)]
pub struct ShardLedger {
    /// Grant units currently available to spend.
    available: usize,
    /// Lifetime units granted by the reconciler.
    total_granted: u64,
    /// Lifetime live questions spent against grants.
    total_spent: u64,
    /// Lifetime units reclaimed unspent at reconcile time.
    reclaimed: u64,
}

impl ShardLedger {
    /// Grant units currently available.
    pub fn available(&self) -> usize {
        self.available
    }

    /// Lifetime units granted.
    pub fn total_granted(&self) -> u64 {
        self.total_granted
    }

    /// Lifetime live questions spent against grants.
    pub fn total_spent(&self) -> u64 {
        self.total_spent
    }

    /// Lifetime units reclaimed unspent.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Adds `n` grant units (reconciler only).
    pub(crate) fn grant(&mut self, n: usize) {
        self.available += n;
        self.total_granted += n as u64;
    }

    /// Spends one grant unit on a live crowd question.
    pub(crate) fn spend_one(&mut self) {
        debug_assert!(self.available > 0, "spend without a grant");
        self.available = self.available.saturating_sub(1);
        self.total_spent += 1;
    }

    /// Takes back every unspent unit; returns how many were reclaimed.
    pub(crate) fn reclaim(&mut self) -> usize {
        let unspent = self.available;
        self.available = 0;
        self.reclaimed += unspent as u64;
        unspent
    }
}

/// Reconciles budget grants against per-shard parked demand: reclaims
/// every shard's unspent grant, then grants `min(demand, pool)` in shard
/// order out of `pool` (the crowd's current remaining budget). Returns
/// the units granted to each shard, indexed like `ledgers` (0 = none);
/// the caller delivers each nonzero grant as an
/// [`Event::BudgetGranted`]. Issuing zero grants is not progress.
pub(crate) fn reconcile(
    ledgers: &mut [ShardLedger],
    demands: &[usize],
    mut pool: usize,
    metrics: &mut ServiceMetrics,
    outcome: &mut RoundOutcome,
) -> Vec<usize> {
    for ledger in ledgers.iter_mut() {
        ledger.reclaim();
    }
    ledgers
        .iter_mut()
        .zip(demands)
        .map(|(ledger, &demand)| {
            let granted = demand.min(pool);
            if granted > 0 {
                pool -= granted;
                ledger.grant(granted);
                metrics.budget_granted += granted as u64;
                outcome.budget_granted += granted as u64;
            }
            granted
        })
        .collect()
}

/// One shard of the serving core: the sessions it owns, their scheduler,
/// and the event queue the run loop drains. Shards are processed in
/// index order everywhere — in-place sweeps iterate them, the threaded
/// coordinator serves their purchase requests — which is what makes the
/// event loop deterministic at any fixed shard count.
pub(crate) struct Shard {
    /// This shard's position in the service (the index its per-shard
    /// metrics are recorded under).
    pub(crate) index: usize,
    pub(crate) registry: Registry,
    pub(crate) scheduler: Scheduler,
    pub(crate) ready: VecDeque<Event>,
}

impl Shard {
    pub(crate) fn new(index: usize, fanout: Option<usize>) -> Self {
        Self {
            index,
            registry: Registry::new(),
            scheduler: match fanout {
                Some(f) => Scheduler::with_fanout(f),
                None => Scheduler::new(),
            },
            ready: VecDeque::new(),
        }
    }

    /// Runs one event sweep over this shard: drain the ready-queue, plan,
    /// gather every planned driver's next batch (fanned out over
    /// `threads` scoped workers), resolve each batch through `purchase`,
    /// then drain again so same-sweep deliveries complete. Records the
    /// sweep's wall time under this shard's index.
    ///
    /// `purchase` resolves one session's pending questions cache-first,
    /// crowd-second, popping what it served off the queue (see
    /// [`crate::batcher::resolve_pending`]); purchase-side metrics go to
    /// the `ServiceMetrics` it is handed. It returns `None` only when the
    /// threaded coordinator has hung up, which abandons the sweep
    /// (`None`).
    pub(crate) fn sweep(
        &mut self,
        threads: usize,
        router: Option<&QuestionRouter>,
        metrics: &mut ServiceMetrics,
        purchase: &mut impl FnMut(&mut Pending, &mut ServiceMetrics) -> Option<Resolution>,
    ) -> Option<RoundOutcome> {
        // ctk-allow(det-wall-clock): per-shard sweep-time gauge only; never feeds a decision
        let t0 = Instant::now();
        let mut outcome = RoundOutcome::default();
        self.drain_ready(metrics, &mut outcome, purchase)?;
        let plan = self.scheduler.plan_round(&self.registry.runnable());
        outcome.scheduled += plan.len();
        let gathered = {
            let mut entries = self.registry.entries_mut_in_order(&plan);
            run_sharded(&mut entries, threads, |entry| {
                let allowance = entry.ledger.remaining();
                // ctk-allow(panic-unwrap): queued entries always hold a driver; a silent skip would misattribute answers
                let driver = entry.driver.as_mut().expect("queued session has driver");
                driver.next_batch(allowance)
            })
        };
        for (id, batch) in plan.into_iter().zip(gathered) {
            match batch {
                Ok(batch) if batch.is_empty() => {
                    self.finalize_session(id, metrics);
                    outcome.finished += 1;
                }
                Ok(batch) => {
                    let entry = self.registry.get_mut(id).expect("scheduled id exists"); // ctk-allow(panic-unwrap): plan ids come from this shard's registry this sweep
                    let hinted = hint_batch(router, entry, batch);
                    entry.begin_batch(hinted);
                    self.resolve(id, metrics, &mut outcome, purchase)?;
                }
                Err(err) => {
                    self.fail_session(id, err, metrics);
                    outcome.finished += 1;
                }
            }
        }
        self.drain_ready(metrics, &mut outcome, purchase)?;
        metrics.record_shard_sweep(self.index, t0.elapsed());
        Some(outcome)
    }

    /// Drains the ready-queue: delivers resolved batches, resumes parked
    /// sessions on a grant (in id order; those the grant cannot reach
    /// serve their cache hits and park again), and counts lifecycle
    /// markers. Events pushed while draining are drained in the same
    /// call.
    fn drain_ready(
        &mut self,
        metrics: &mut ServiceMetrics,
        outcome: &mut RoundOutcome,
        purchase: &mut impl FnMut(&mut Pending, &mut ServiceMetrics) -> Option<Resolution>,
    ) -> Option<()> {
        while let Some(event) = self.ready.pop_front() {
            metrics.events_processed += 1;
            outcome.events += 1;
            match event {
                Event::Submitted(_) | Event::Finished(_) => {}
                Event::AnswersReady(id) => self.deliver(id, metrics, outcome),
                Event::BudgetGranted { .. } => {
                    for id in self.registry.parked() {
                        self.resolve(id, metrics, outcome, purchase)?;
                    }
                }
            }
        }
        Some(())
    }

    /// Resolves a session's pending questions through `purchase` and
    /// applies the result: with no grant left for a cache miss the
    /// session parks `AwaitingBudget`; a resolved or starved batch posts
    /// [`Event::AnswersReady`].
    fn resolve(
        &mut self,
        id: SessionId,
        metrics: &mut ServiceMetrics,
        outcome: &mut RoundOutcome,
        purchase: &mut impl FnMut(&mut Pending, &mut ServiceMetrics) -> Option<Resolution>,
    ) -> Option<()> {
        let entry = self.registry.get_mut(id).expect("resolved id exists"); // ctk-allow(panic-unwrap): resolve targets come from this shard's registry
        let resolution = purchase(&mut entry.pending, metrics)?;
        outcome.cache_hits += resolution.cache_hits;
        entry.served.extend(resolution.served);
        match resolution.disposition {
            Disposition::Parked => entry.state = SessionState::AwaitingBudget,
            Disposition::Resolved | Disposition::Starved => {
                entry.state = SessionState::AwaitingAnswers;
                self.ready.push_back(Event::AnswersReady(id));
            }
        }
        Some(())
    }

    /// Finishes a `Done`/about-to-be-`Done` session: takes the driver,
    /// produces the report, and records completion metrics.
    fn finalize_session(&mut self, id: SessionId, metrics: &mut ServiceMetrics) {
        let entry = self.registry.get_mut(id).expect("finalized id exists"); // ctk-allow(panic-unwrap): finalize is called once per done/failed id
        let driver = entry.driver.take().expect("finalize once"); // ctk-allow(panic-unwrap): state machine guarantees a live driver here
        match driver.finish() {
            Ok(report) => {
                metrics.worlds_drawn += report.worlds_drawn as u64;
                metrics.certain_early_stops += u64::from(report.certain_early_stop);
                entry.report = Some(report);
                entry.state = SessionState::Done;
                let latency = entry.submitted_at.elapsed();
                entry.latency = Some(latency);
                metrics.completed += 1;
                metrics.record_latency(latency);
                metrics.record_shard_completed(self.index);
            }
            Err(err) => {
                entry.error = Some(err);
                entry.state = SessionState::Failed;
                metrics.failed += 1;
            }
        }
        self.ready.push_back(Event::Finished(id));
    }

    /// Marks a session `Failed` with `err` (driver dropped).
    fn fail_session(&mut self, id: SessionId, err: CoreError, metrics: &mut ServiceMetrics) {
        let entry = self.registry.get_mut(id).expect("failed id exists"); // ctk-allow(panic-unwrap): fail() receives ids from this sweep's plan
        entry.driver = None;
        entry.error = Some(err);
        entry.state = SessionState::Failed;
        metrics.failed += 1;
        self.ready.push_back(Event::Finished(id));
    }

    /// Delivers a resolved batch from the session's mailbox to its
    /// driver, then advances the lifecycle (requeue, finalize or fail).
    /// Purely shard-local: the answers were already bought through the
    /// sequential purchase path.
    fn deliver(&mut self, id: SessionId, metrics: &mut ServiceMetrics, outcome: &mut RoundOutcome) {
        let (served_n, requested, status) = {
            let entry = self.registry.get_mut(id).expect("delivered id exists"); // ctk-allow(panic-unwrap): AnswersReady events name ids of this shard's registry
            let served = std::mem::take(&mut entry.served);
            let requested = std::mem::replace(&mut entry.requested, 0);
            entry.pending.clear();
            for sa in &served {
                entry.ledger.record(sa.answer, usize::from(!sa.cached));
            }
            let graded: Vec<_> = served.iter().map(|a| (a.answer, a.accuracy)).collect();
            // ctk-allow(panic-unwrap): awaiting entries always hold a driver; loud failure beats misattribution
            let driver = entry.driver.as_mut().expect("awaiting session has driver");
            (served.len(), requested, driver.feed_graded(&graded))
        };
        metrics.answers_served += served_n as u64;
        metrics.record_shard_answers(self.index, served_n as u64);
        outcome.answers_served += served_n as u64;
        if served_n < requested {
            metrics.starved += 1;
        }
        match status {
            Ok(DriverStatus::Done) => {
                self.finalize_session(id, metrics);
                outcome.finished += 1;
            }
            Ok(DriverStatus::Active) => {
                self.registry
                    .get_mut(id)
                    .expect("delivered id exists") // ctk-allow(panic-unwrap): same id as above
                    .state = SessionState::Queued;
            }
            Err(err) => {
                self.fail_session(id, err, metrics);
                outcome.finished += 1;
            }
        }
    }

    /// Force-starves a parked session: its unresolved questions are
    /// dropped and the prefix it did resolve is queued for delivery — the
    /// same partial batch an exhausted crowd produces, which the driver
    /// reads as "wind down".
    pub(crate) fn force_starve(&mut self, id: SessionId) {
        let entry = self.registry.get_mut(id).expect("parked id exists"); // ctk-allow(panic-unwrap): quiescence lists ids from this registry
        entry.pending.clear();
        entry.state = SessionState::AwaitingAnswers;
        self.ready.push_back(Event::AnswersReady(id));
    }
}

/// Attaches a [`RouteHint`] to every question of a batch: the hint the
/// session's *current* belief margin implies when a router is
/// configured, [`RouteHint::Any`] otherwise.
fn hint_batch(
    router: Option<&QuestionRouter>,
    entry: &SessionEntry,
    batch: Vec<Question>,
) -> Vec<(Question, RouteHint)> {
    match router {
        Some(r) => {
            // ctk-allow(panic-unwrap): awaiting entries always hold a driver
            let driver = entry.driver.as_ref().expect("awaiting session has driver");
            batch
                .into_iter()
                .map(|q| {
                    let hint = r.hint(driver.question_margin(&q));
                    (q, hint)
                })
                .collect()
        }
        None => batch.into_iter().map(|q| (q, RouteHint::Any)).collect(),
    }
}

/// Below this many sessions the gather runs inline: spawning scoped
/// threads costs more than the work they would split.
const PARALLEL_SESSIONS_MIN: usize = 3;

/// Applies `work` to every item, fanning out over at most `threads`
/// scoped worker chunks, and returns the results in item order.
///
/// Determinism argument: `work` runs once per item on disjoint `&mut`
/// state, chunk boundaries only decide *where* an item runs, and results
/// are reassembled by chunk order (= item order). The sequential path is
/// the `threads == 1` special case of the same code shape, so any thread
/// count computes the identical result vector.
fn run_sharded<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    work: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < PARALLEL_SESSIONS_MIN {
        return items.iter_mut().map(&work).collect();
    }
    let chunk = n.div_ceil(threads);
    let work = &work;
    // ctk-allow(det-thread-spawn): disjoint pre-chunked shards; merge happens sequentially in plan order
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|c| s.spawn(move || c.iter_mut().map(work).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Why [`crate::TopKService::run_until_quiescent`] stopped pumping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Quiescence {
    /// Nothing left to do: every session is `Done` or `Failed`.
    Idle,
    /// No sweep can make progress *by computation alone*: these sessions
    /// hold unresolved questions the crowd has no budget for. The caller
    /// decides — wait for external budget, or force-starve (what
    /// `run_to_completion` does: each parked session winds down on the
    /// prefix it resolved).
    BlockedOnCrowd {
        /// The parked sessions, in shard order then id order.
        sessions: Vec<SessionId>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_grant_spend_reclaim_accounting() {
        let mut l = ShardLedger::default();
        l.grant(5);
        assert_eq!(l.available(), 5);
        l.spend_one();
        l.spend_one();
        assert_eq!(l.available(), 3);
        assert_eq!(l.reclaim(), 3);
        assert_eq!(l.available(), 0);
        assert_eq!(l.total_granted(), 5);
        assert_eq!(l.total_spent(), 2);
        assert_eq!(l.reclaimed(), 3);
    }
}
