//! The serving loop: multiplexes many [`SessionDriver`]s over one shared
//! crowd backend through event sweeps over a shard-owned core
//! (DESIGN.md §14).
//!
//! Sessions are strided across [`Shard`]s by id; each shard owns its
//! registry, scheduler queues and an event ready-queue end to end, and
//! the service keeps one budget-grant ledger per shard beside the crowd.
//! The answer cache shards separately, by question hash, because an
//! answer is a fact about a pair of objects, not about the session that
//! asked.
//!
//! Each [`TopKService::pump`] runs one sweep per shard in index order
//! (`Shard::sweep`): drain the shard's typed ready-queue ([`Event`]),
//! plan, gather the planned drivers' next batches, and resolve each batch
//! cache-first, crowd-second. Sessions spend crowd budget only through
//! grants the reconciler issues against parked demand after the shards
//! have swept, and a sweep that neither schedules, drains, nor grants is
//! decisively *not* progress — which is how
//! [`TopKService::run_until_quiescent`] tells "blocked on the crowd"
//! ([`Quiescence::BlockedOnCrowd`]) apart from a livelock.
//!
//! The two run modes differ only in where the sweeps run.
//! [`RunMode::Event`] (the default) sweeps in place on the calling
//! thread. [`RunMode::EventThreaded`] (DESIGN.md §15) sweeps each shard
//! on a dedicated worker thread, the calling thread coordinating the two
//! global phases — the cache-first purchase merge and the grant
//! reconciler — over `mpsc` channels at an explicit shard-order barrier
//! (see the `topology` module). Both run the same sweep and the same
//! purchase loop through the identical global operation order, so
//! reports are `same_outcome` at every (shards, threads) combination.
//!
//! Drivers are independent state machines (`SessionDriver: Send`,
//! disjoint `&mut` borrows via the shard-aware registry); every
//! cross-session effect — scheduling order, crowd spending, cache
//! population, metrics — happens sequentially in shard-index order, so
//! per-tenant reports are deterministic at any worker thread count and
//! any fixed shard count.

use crate::batcher::{resolve_pending, ShardedAnswerCache};
use crate::error::ServiceError;
use crate::metrics::ServiceMetrics;
use crate::registry::{Registry, SessionId, SessionSpec, SessionState};
use crate::scheduler::Scheduler;
use crate::shard::{reconcile, Event, Pending, Quiescence, Shard, ShardLedger};
use ctk_core::driver::SessionDriver;
use ctk_core::session::UrReport;
use ctk_core::{CoreError, Result};
use ctk_crowd::Crowd;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_quality::QuestionRouter;
use ctk_rank::RankList;
use ctk_tpo::build::Engine;
use std::sync::Arc;
use std::time::Instant;

/// Where [`TopKService::run_until_quiescent`] runs the shard sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// In place: [`TopKService::pump`] sweeps each shard's ready-queue
    /// on the calling thread and resolves sessions independently,
    /// spending crowd budget only through reconciled grants.
    /// Blocked-on-crowd is distinguishable from idle (see
    /// [`Quiescence`]).
    #[default]
    Event,
    /// Event sweeps on the threaded topology: one worker thread per
    /// shard, the calling thread coordinating purchases and grants at a
    /// shard-order barrier (DESIGN.md §15). Per-tenant reports are
    /// `same_outcome` with [`RunMode::Event`] at any (shards, threads)
    /// combination; the threads only buy wall clock.
    EventThreaded,
}

/// What one sweep over all shards did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOutcome {
    /// Sessions the scheduler picked.
    pub scheduled: usize,
    /// Answers delivered to sessions.
    pub answers_served: u64,
    /// Answers that came from the cache.
    pub cache_hits: u64,
    /// Sessions that reached `Done` or `Failed`.
    pub finished: usize,
    /// Events drained from shard ready-queues (lifecycle markers, answer
    /// deliveries, budget grants being consumed).
    pub events: u64,
    /// Budget-grant units the reconciler issued this sweep.
    pub budget_granted: u64,
}

impl RoundOutcome {
    /// True when the sweep moved any session forward — or issued a grant
    /// that will. A sweep that neither schedules, drains, finishes, nor
    /// grants cannot unblock anything by being repeated.
    pub fn progressed(&self) -> bool {
        self.scheduled > 0
            || self.finished > 0
            || self.answers_served > 0
            || self.events > 0
            || self.budget_granted > 0
    }

    /// Folds a shard's sweep outcome in (in shard order).
    pub(crate) fn merge(&mut self, other: &RoundOutcome) {
        self.scheduled += other.scheduled;
        self.answers_served += other.answers_served;
        self.cache_hits += other.cache_hits;
        self.finished += other.finished;
        self.events += other.events;
        self.budget_granted += other.budget_granted;
    }
}

/// One served table's shared derived state: the pairwise matrix plus the
/// certain/possible top-K bounds per query depth seen so far.
struct TableCacheEntry {
    table: UncertainTable,
    pairwise: Arc<PairwiseMatrix>,
    bounds: Vec<(usize, Arc<TopKBounds>)>,
}

/// Read-only view over every shard's registry, presented as one logical
/// session table (what [`TopKService::registry`] hands out).
pub struct RegistryView<'a> {
    shards: &'a [Shard],
}

impl RegistryView<'_> {
    fn registry_of(&self, id: SessionId) -> &Registry {
        &self.shards[(id.0 % self.shards.len() as u64) as usize].registry
    }

    /// Total registered sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|sh| sh.registry.len()).sum()
    }

    /// True when nothing was ever submitted.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|sh| sh.registry.is_empty())
    }

    /// Sessions not yet done or failed.
    pub fn active(&self) -> usize {
        self.shards.iter().map(|sh| sh.registry.active()).sum()
    }

    /// Lifecycle state of a session.
    pub fn state(&self, id: SessionId) -> Option<SessionState> {
        self.registry_of(id).state(id)
    }

    /// Final report of a `Done` session.
    pub fn report(&self, id: SessionId) -> Option<&UrReport> {
        self.registry_of(id).report(id)
    }

    /// Error of a `Failed` session.
    pub fn error(&self, id: SessionId) -> Option<&CoreError> {
        self.registry_of(id).error(id)
    }

    /// Questions answered for a session so far (cached + live).
    pub fn questions_served(&self, id: SessionId) -> Option<usize> {
        self.registry_of(id).questions_served(id)
    }

    /// Enqueue-to-done latency of a finished session.
    pub fn latency(&self, id: SessionId) -> Option<std::time::Duration> {
        self.registry_of(id).latency(id)
    }

    /// All session ids in submission order.
    pub fn ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|sh| sh.registry.ids())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// A multi-tenant top-K query service over one crowd backend.
///
/// Sessions are submitted with [`TopKService::submit`] and served in
/// sweeps: each [`TopKService::pump`] asks every shard's scheduler which
/// sessions run, gathers their next question batches from the sans-IO
/// drivers, resolves them through the answer cache, spends crowd budget
/// only on cache misses, and feeds the answers back. With reliable
/// (accuracy-1) workers, every session's final report is identical to the
/// one a standalone [`ctk_core::session::UrSession::run`] produces under
/// the same seed — the cache serves facts, not approximations.
///
/// ```
/// use ctk_core::measures::MeasureKind;
/// use ctk_core::session::{Algorithm, SessionConfig};
/// use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
/// use ctk_prob::{ScoreDist, UncertainTable};
/// use ctk_service::{SessionSpec, TopKService};
/// use ctk_tpo::build::{Engine, McConfig};
///
/// let table = UncertainTable::new((0..5).map(|i| {
///     ScoreDist::uniform_centered(0.2 * i as f64, 0.5).unwrap()
/// }).collect()).unwrap();
/// let truth = GroundTruth::sample(&table, 1);
/// let crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1000).expect("valid vote policy");
///
/// let mut service = TopKService::new(crowd);
/// let config = SessionConfig {
///     k: 2,
///     budget: 6,
///     measure: MeasureKind::WeightedEntropy,
///     algorithm: Algorithm::T1On,
///     engine: Engine::MonteCarlo(McConfig::fixed(1500, 3)),
///     seed: 0,
///     uncertainty_target: None,
/// };
/// let a = service.submit(&table, SessionSpec::new(config.clone())).unwrap();
/// let b = service.submit(&table, SessionSpec::new(config)).unwrap();
/// service.run_to_completion();
///
/// // Identical configs: the second tenant rides the first one's answers.
/// assert!(service.report(a).unwrap().same_outcome(service.report(b).unwrap()));
/// assert!(service.metrics().cache_hits > 0);
/// ```
pub struct TopKService<C: Crowd> {
    crowd: C,
    cache: ShardedAnswerCache,
    shards: Vec<Shard>,
    /// Per-shard budget-grant ledgers, indexed like `shards`. Kept beside
    /// the crowd (not inside [`Shard`]) because grants are coordinator
    /// state: in the threaded topology the workers own the shards while
    /// the coordinator owns crowd + cache + ledgers, and every spend goes
    /// through the sequential purchase path.
    ledgers: Vec<ShardLedger>,
    /// Global id counter; ids stride across shards (`shard = id mod n`).
    next_id: u64,
    run_mode: RunMode,
    metrics: ServiceMetrics,
    /// Worker threads each shard's gather phase fans out over (>= 1; 1
    /// gathers sequentially, any value produces bit-identical reports).
    threads: usize,
    /// Per-shard scheduler fanout, remembered so `with_shards` can rebuild.
    fanout: Option<usize>,
    /// One pairwise matrix per distinct table served: the n² comparisons
    /// dominate session setup, and tenants querying the same relation
    /// share a single `Arc` instead of recomputing per submit. Cache
    /// misses run `PairwiseMatrix::compute` — since PR 5 the analytic
    /// sweep-line fast path (DESIGN.md §10), so even the first tenant on
    /// a table pays milliseconds, not the old per-pair quadratures. Each
    /// entry also caches the certain/possible [`TopKBounds`] per query
    /// depth served over the table, so repeat tenants skip the O(n²)
    /// dominance scan too.
    pairwise_cache: Vec<TableCacheEntry>,
    /// Optional belief-margin routing policy: when set, each live
    /// question carries a [`RouteHint`] derived from the asking session's
    /// current belief margin, which hint-aware crowds (e.g.
    /// `ctk_quality::QualityCrowd`) use to pick cheap vs expert panels.
    /// Hint-blind crowds ignore it, so routing never changes verdicts on
    /// the plain simulator.
    router: Option<QuestionRouter>,
}

impl<C: Crowd> TopKService<C> {
    /// A service over `crowd` with one shard, unbounded per-sweep fanout,
    /// the in-place event run mode, and the gather phase fanned out over
    /// all available cores.
    pub fn new(crowd: C) -> Self {
        let threads = default_threads();
        let mut metrics = ServiceMetrics::default();
        metrics.worker_threads = threads;
        metrics.init_shards(1);
        Self {
            crowd,
            cache: ShardedAnswerCache::new(1),
            shards: vec![Shard::new(0, None)],
            ledgers: vec![ShardLedger::default()],
            next_id: 0,
            run_mode: RunMode::default(),
            metrics,
            threads,
            fanout: None,
            pairwise_cache: Vec::new(),
            router: None,
        }
    }

    /// Partitions the serving core into `shards` shards (builder style;
    /// clamped to >= 1). Sessions stride across shards by id, the answer
    /// cache partitions by question hash, and each shard gets its own
    /// scheduler queues and budget ledger.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TopologyAfterSubmit`] when sessions were already
    /// submitted — resharding would re-home live sessions
    /// (`shard = id mod shards`) and orphan their registries.
    pub fn with_shards(mut self, shards: usize) -> std::result::Result<Self, ServiceError> {
        if self.next_id != 0 {
            return Err(ServiceError::TopologyAfterSubmit {
                submitted: self.next_id,
            });
        }
        let n = shards.max(1);
        self.shards = (0..n).map(|i| Shard::new(i, self.fanout)).collect();
        self.ledgers = vec![ShardLedger::default(); n];
        self.cache = ShardedAnswerCache::new(n);
        self.metrics.init_shards(n);
        Ok(self)
    }

    /// Bounds how many sessions are served per sweep *per shard*
    /// (builder style).
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = Some(fanout);
        for shard in &mut self.shards {
            shard.scheduler = Scheduler::with_fanout(fanout);
        }
        self
    }

    /// Selects the run mode (builder style): sweeps in place or on
    /// per-shard worker threads. Both modes produce `same_outcome`
    /// per-tenant reports (pinned by tests).
    pub fn with_run_mode(mut self, mode: RunMode) -> Self {
        self.run_mode = mode;
        self
    }

    /// Sets how many worker threads each shard's gather phase — the
    /// drivers' next-batch computation — fans out over (builder style).
    /// `0` means all available cores; `1` gathers sequentially. Reports
    /// are bit-identical at every setting — the knob only trades wall
    /// clock.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        self.metrics.worker_threads = self.threads;
        self
    }

    /// Worker threads the gather phase fans out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards the serving core is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured run mode.
    pub fn run_mode(&self) -> RunMode {
        self.run_mode
    }

    /// Budget-grant ledger of one shard (observability): lifetime grants,
    /// spends and reclaims, plus what is currently available.
    pub fn shard_ledger(&self, shard: usize) -> Option<&ShardLedger> {
        self.ledgers.get(shard)
    }

    /// Routes live questions by belief margin (builder style): questions
    /// the asking session is still torn about (margin below the router's
    /// narrow threshold) are hinted
    /// [`RouteHint::Expert`](ctk_crowd::RouteHint::Expert), near-settled
    /// ones [`RouteHint::Cheap`](ctk_crowd::RouteHint::Cheap). Only crowds
    /// that implement
    /// [`Crowd::ask_routed`] beyond the default act on the hints.
    pub fn with_router(mut self, router: QuestionRouter) -> Self {
        self.router = Some(router);
        self
    }

    /// The configured routing policy, if any.
    pub fn router(&self) -> Option<&QuestionRouter> {
        self.router.as_ref()
    }

    /// Registers a session over `table`. The TPO (or world sample) is
    /// built now, so an invalid configuration fails fast.
    pub fn submit(&mut self, table: &UncertainTable, spec: SessionSpec) -> Result<SessionId> {
        self.submit_with_truth(table, spec, None)
    }

    /// Like [`TopKService::submit`], additionally recording
    /// `D(ω_r, T_K)` per step against the given ground-truth top-K.
    pub fn submit_with_truth(
        &mut self,
        table: &UncertainTable,
        spec: SessionSpec,
        truth: Option<&RankList>,
    ) -> Result<SessionId> {
        let mut config = spec.config;
        if let (Some(p), Engine::MonteCarlo(mc)) = (spec.precision, &mut config.engine) {
            mc.precision = p;
        }
        let (pairwise, bounds) = self.table_entry_for(table, config.k);
        let driver = SessionDriver::new_shared(config, table, truth, pairwise, bounds)?;
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let s = self.shard_of(id);
        self.shards[s].registry.insert(id, driver, spec.priority);
        self.shards[s].ready.push_back(Event::Submitted(id));
        self.metrics.submitted += 1;
        Ok(id)
    }

    /// At most this many distinct tables keep a cached pairwise matrix;
    /// beyond it the oldest entry is evicted (running sessions keep their
    /// matrix alive through their own `Arc`). Bounds both the memory held
    /// by retired tables and the per-submit equality scan.
    const MAX_PAIRWISE_CACHE: usize = 32;

    /// The shared pairwise matrix and certain/possible top-K bounds for
    /// `(table, k)`, computing both on first use. Bounds for an invalid
    /// depth are not computed (`None`): the driver rejects the config
    /// with its usual error instead.
    fn table_entry_for(
        &mut self,
        table: &UncertainTable,
        k: usize,
    ) -> (Arc<PairwiseMatrix>, Option<Arc<TopKBounds>>) {
        let idx = match self.pairwise_cache.iter().position(|e| &e.table == table) {
            Some(idx) => {
                // Move to the back so eviction is least-recently-used.
                let entry = self.pairwise_cache.remove(idx);
                self.pairwise_cache.push(entry);
                self.pairwise_cache.len() - 1
            }
            None => {
                let pw = Arc::new(PairwiseMatrix::compute(table));
                if self.pairwise_cache.len() >= Self::MAX_PAIRWISE_CACHE {
                    self.pairwise_cache.remove(0);
                }
                self.pairwise_cache.push(TableCacheEntry {
                    table: table.clone(),
                    pairwise: pw,
                    bounds: Vec::new(),
                });
                self.pairwise_cache.len() - 1
            }
        };
        let entry = &mut self.pairwise_cache[idx];
        let pw = Arc::clone(&entry.pairwise);
        if k == 0 || k > table.len() {
            return (pw, None);
        }
        if let Some((_, b)) = entry.bounds.iter().find(|(depth, _)| *depth == k) {
            return (pw, Some(Arc::clone(b)));
        }
        match TopKBounds::from_matrix(&pw, k) {
            Ok(b) => {
                let b = Arc::new(b);
                entry.bounds.push((k, Arc::clone(&b)));
                (pw, Some(b))
            }
            Err(_) => (pw, None),
        }
    }

    /// Distinct tables whose pairwise matrices are cached (observability
    /// for tests and dashboards).
    pub fn pairwise_tables_cached(&self) -> usize {
        self.pairwise_cache.len()
    }

    /// Distinct `(table, k)` certain/possible bound sets currently cached
    /// beside the pairwise matrices.
    pub fn bounds_cached(&self) -> usize {
        self.pairwise_cache.iter().map(|e| e.bounds.len()).sum()
    }

    /// The shard owning `id` (ids stride: `shard = id mod shards`).
    fn shard_of(&self, id: SessionId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// Runs one sweep over all shards, in index order (see
    /// `Shard::sweep`), then reconciles budget grants against the
    /// demand of the sessions left parked. Deterministic at any fixed
    /// shard count. (Calling this directly on an
    /// [`RunMode::EventThreaded`] service runs the identical sweep in
    /// place — manual pumping is single-threaded; the worker topology
    /// exists only inside [`TopKService::run_until_quiescent`], and
    /// produces the same reports.)
    pub fn pump(&mut self) -> RoundOutcome {
        // ctk-allow(det-wall-clock): sweep-duration metric only; never feeds a decision
        let t0 = Instant::now();
        let Self {
            crowd,
            cache,
            shards,
            ledgers,
            metrics,
            router,
            threads,
            ..
        } = self;
        let mut outcome = RoundOutcome::default();
        for (shard, ledger) in shards.iter_mut().zip(ledgers.iter_mut()) {
            let mut purchase = |pending: &mut Pending, metrics: &mut ServiceMetrics| {
                Some(resolve_pending(pending, ledger, cache, crowd, metrics))
            };
            // In place the purchase always answers, so the sweep always
            // completes.
            if let Some(swept) = shard.sweep(*threads, router.as_ref(), metrics, &mut purchase) {
                outcome.merge(&swept);
            }
        }
        let demands: Vec<usize> = shards
            .iter()
            .map(|sh| sh.registry.parked_demand())
            .collect();
        let grants = reconcile(ledgers, &demands, crowd.remaining(), metrics, &mut outcome);
        for (shard, granted) in shards.iter_mut().zip(grants) {
            if granted > 0 {
                shard.ready.push_back(Event::BudgetGranted { granted });
            }
        }
        if outcome.progressed() {
            metrics.rounds += 1;
        }
        metrics.serving_time += t0.elapsed();
        outcome
    }

    /// Runs sweeps until no further progress is possible by computation
    /// alone: either completion ([`Quiescence::Idle`]) or a set of
    /// sessions parked on crowd budget that does not exist
    /// ([`Quiescence::BlockedOnCrowd`]) — the caller decides whether to
    /// wait for external budget or force-starve
    /// ([`TopKService::run_to_completion`]).
    pub fn run_until_quiescent(&mut self) -> Quiescence {
        match self.run_mode {
            RunMode::Event => while self.pump().progressed() {},
            RunMode::EventThreaded => {
                let Self {
                    crowd,
                    cache,
                    shards,
                    ledgers,
                    metrics,
                    router,
                    threads,
                    ..
                } = self;
                crate::topology::run_threaded(
                    crowd, cache, shards, ledgers, metrics, *router, *threads,
                );
            }
        }
        let sessions: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|sh| sh.registry.parked())
            .collect();
        if sessions.is_empty() {
            Quiescence::Idle
        } else {
            Quiescence::BlockedOnCrowd { sessions }
        }
    }

    /// Runs until every session is done or failed. When quiescence
    /// reports sessions blocked on crowd budget, they are force-starved:
    /// each parked session is delivered the prefix it did resolve — the
    /// partial batch an exhausted crowd produces — so its driver winds
    /// down and finishes. Returns the accumulated metrics.
    pub fn run_to_completion(&mut self) -> &ServiceMetrics {
        loop {
            match self.run_until_quiescent() {
                Quiescence::Idle => break,
                Quiescence::BlockedOnCrowd { sessions } => {
                    for id in sessions {
                        let s = self.shard_of(id);
                        self.shards[s].force_starve(id);
                    }
                }
            }
        }
        &self.metrics
    }

    /// Lifecycle state of a session.
    pub fn state(&self, id: SessionId) -> Option<SessionState> {
        self.shards[self.shard_of(id)].registry.state(id)
    }

    /// Final report of a `Done` session.
    pub fn report(&self, id: SessionId) -> Option<&UrReport> {
        self.shards[self.shard_of(id)].registry.report(id)
    }

    /// Error of a `Failed` session.
    pub fn error(&self, id: SessionId) -> Option<&CoreError> {
        self.shards[self.shard_of(id)].registry.error(id)
    }

    /// Accumulated service metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Read-only view over all shards' session registries.
    pub fn registry(&self) -> RegistryView<'_> {
        RegistryView {
            shards: &self.shards,
        }
    }

    /// The shared crowd backend.
    pub fn crowd(&self) -> &C {
        &self.crowd
    }

    /// The shared (question-hash-partitioned) answer cache.
    pub fn cache(&self) -> &ShardedAnswerCache {
        &self.cache
    }
}

/// All available cores (the service's `threads = 0` resolution), read
/// through the workspace's single cached accessor.
fn default_threads() -> usize {
    ctk_prob::compare::available_cores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_core::driver::DriverStatus;
    use ctk_core::measures::MeasureKind;
    use ctk_core::session::{Algorithm, SessionConfig, UrSession};
    use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
    use ctk_prob::ScoreDist;
    use ctk_tpo::build::{Engine, McConfig};

    fn table() -> UncertainTable {
        UncertainTable::new(
            (0..7)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.12, 0.4).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn config(algorithm: Algorithm, seed: u64) -> SessionConfig {
        SessionConfig {
            k: 3,
            budget: 6,
            measure: MeasureKind::WeightedEntropy,
            algorithm,
            engine: Engine::MonteCarlo(McConfig::fixed(2000, 7)),
            seed,
            uncertainty_target: None,
        }
    }

    fn service(budget: usize) -> TopKService<CrowdSimulator<PerfectWorker>> {
        let truth = GroundTruth::sample(&table(), 99);
        TopKService::new(
            CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, budget)
                .expect("valid vote policy"),
        )
    }

    #[test]
    fn lifecycle_reaches_done() {
        let mut svc = service(1000);
        let id = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        assert_eq!(svc.state(id), Some(SessionState::Queued));
        assert!(svc.report(id).is_none());
        svc.run_to_completion();
        assert_eq!(svc.state(id), Some(SessionState::Done));
        let report = svc.report(id).unwrap();
        assert!(report.questions_asked() > 0);
        assert_eq!(svc.metrics().completed, 1);
        assert_eq!(svc.metrics().failed, 0);
        assert!(svc.registry().latency(id).is_some());
    }

    #[test]
    fn invalid_config_fails_at_submit() {
        let mut svc = service(100);
        let mut bad = config(Algorithm::T1On, 0);
        bad.k = 100;
        assert!(svc.submit(&table(), SessionSpec::new(bad)).is_err());
        assert_eq!(svc.metrics().submitted, 0);
    }

    #[test]
    fn identical_tenants_share_crowd_answers() {
        let mut svc = service(1000);
        let a = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        let b = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        svc.run_to_completion();
        let (ra, rb) = (svc.report(a).unwrap(), svc.report(b).unwrap());
        assert!(ra.same_outcome(rb));
        assert!(svc.metrics().cache_hits > 0, "dedup must kick in");
        // The cache paid for half the questions.
        assert!(svc.metrics().crowd_questions < svc.metrics().answers_served);
    }

    #[test]
    fn starved_sessions_still_complete() {
        // Crowd can only afford 3 questions for two 6-question tenants
        // asking different things (different algorithms/seeds).
        let mut svc = service(3).with_fanout(1);
        let a = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        let b = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::Random, 5)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        let asked: usize = [a, b]
            .iter()
            .map(|id| svc.report(*id).unwrap().questions_asked())
            .sum();
        // Cache hits can stretch 3 crowd questions further, but live asks
        // cannot exceed the crowd budget.
        assert!(svc.metrics().crowd_questions <= 3);
        assert!(asked >= 3usize.min(asked), "sessions still made progress");
        assert_eq!(svc.metrics().completed, 2);
    }

    #[test]
    fn cache_rescues_sessions_after_crowd_exhaustion() {
        // Regression: the shared crowd affords exactly one tenant's
        // budget. Tenant A spends it all; identical tenant B must still
        // complete its FULL session from the cache — an exhausted crowd
        // must not gate questions the cache can answer for free.
        let mut svc = service(6).with_fanout(1);
        let cfg = config(Algorithm::TbOff, 1);
        let a = svc.submit(&table(), SessionSpec::new(cfg.clone())).unwrap();
        let b = svc.submit(&table(), SessionSpec::new(cfg.clone())).unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        let (ra, rb) = (svc.report(a).unwrap(), svc.report(b).unwrap());
        assert!(
            rb.questions_asked() == ra.questions_asked() && rb.same_outcome(ra),
            "tenant B must ride the cache to a full run: A {} steps, B {} steps",
            ra.questions_asked(),
            rb.questions_asked()
        );
        assert_eq!(
            svc.metrics().crowd_questions,
            ra.questions_asked() as u64,
            "only A's run spends crowd budget"
        );
        assert_eq!(svc.metrics().cache_hits, rb.questions_asked() as u64);
        // And B equals its standalone run, preserving losslessness.
        let truth = GroundTruth::sample(&table(), 99);
        let mut own = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 6)
            .expect("valid vote policy");
        let standalone = UrSession::new(cfg)
            .unwrap()
            .run(&table(), &mut own)
            .unwrap();
        assert!(rb.same_outcome(&standalone));
    }

    #[test]
    fn priorities_finish_first_under_bounded_fanout() {
        let mut svc = service(1000).with_fanout(1);
        let low = svc
            .submit(
                &table(),
                SessionSpec::new(config(Algorithm::T1On, 0)).with_priority(0),
            )
            .unwrap();
        let high = svc
            .submit(
                &table(),
                SessionSpec::new(config(Algorithm::T1On, 1)).with_priority(9),
            )
            .unwrap();
        // Pump until one finishes: it must be the high-priority one.
        loop {
            svc.pump();
            let done_high = svc.state(high) == Some(SessionState::Done);
            let done_low = svc.state(low) == Some(SessionState::Done);
            if done_high || done_low {
                assert!(done_high, "high priority must finish first");
                break;
            }
        }
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, 2);
    }

    #[test]
    fn pairwise_matrix_shared_across_tenants_per_table() {
        let mut svc = service(1000);
        let t = table();
        svc.submit(&t, SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        svc.submit(&t, SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        assert_eq!(svc.pairwise_tables_cached(), 1, "same table, one matrix");
        let other = UncertainTable::new(
            (0..4)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.2, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        svc.submit(&other, SessionSpec::new(config(Algorithm::T1On, 2)))
            .unwrap();
        assert_eq!(svc.pairwise_tables_cached(), 2, "new table, new matrix");
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, 3);
    }

    #[test]
    fn pairwise_cache_is_bounded_lru() {
        let mut svc = service(1000);
        let distinct = TopKService::<CrowdSimulator<PerfectWorker>>::MAX_PAIRWISE_CACHE + 3;
        for d in 0..distinct {
            let t = UncertainTable::new(
                (0..4)
                    .map(|i| {
                        ScoreDist::uniform_centered(i as f64 * 0.2 + d as f64 * 1e-3, 0.5).unwrap()
                    })
                    .collect(),
            )
            .unwrap();
            svc.submit(&t, SessionSpec::new(config(Algorithm::T1On, d as u64)))
                .unwrap();
        }
        assert_eq!(
            svc.pairwise_tables_cached(),
            TopKService::<CrowdSimulator<PerfectWorker>>::MAX_PAIRWISE_CACHE,
            "cache must evict beyond its bound"
        );
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, distinct as u64);
    }

    #[test]
    fn per_tenant_precision_override_and_bounds_cache() {
        use ctk_tpo::PrecisionTarget;
        // A staircase with disjoint supports: the certain bounds pin the
        // whole top-3 prefix, so adaptive tenants stop at zero worlds and
        // zero questions while fixed-budget tenants still sample.
        let decided = UncertainTable::new(
            (0..5)
                .map(|i| ScoreDist::uniform_centered(i as f64, 0.1).unwrap())
                .collect(),
        )
        .unwrap();
        let mut svc = service(1000);
        let spec = SessionSpec::new(config(Algorithm::T1On, 0)).with_precision(
            PrecisionTarget::Adaptive {
                epsilon: 0.02,
                delta: 0.05,
            },
        );
        let a = svc.submit(&decided, spec.clone()).unwrap();
        let b = svc.submit(&decided, spec).unwrap();
        assert_eq!(svc.bounds_cached(), 1, "same (table, k): one bound set");
        svc.run_to_completion();
        for id in [a, b] {
            let r = svc.report(id).unwrap();
            assert!(r.certain_early_stop, "decided table must pin the prefix");
            assert_eq!(r.worlds_drawn, 0);
            assert_eq!(r.questions_asked(), 0);
            assert_eq!(r.final_topk, vec![4, 3, 2]);
        }
        assert_eq!(svc.metrics().certain_early_stops, 2);
        assert_eq!(svc.metrics().worlds_drawn, 0);
        assert!(svc.metrics().summary().contains("certain early stops"));
        // A fixed-budget tenant (no override) still draws its configured
        // worlds, and a new depth on the same table adds a bound set.
        let c = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.report(c).unwrap().worlds_drawn, 2000);
        assert!(!svc.report(c).unwrap().certain_early_stop);
        assert_eq!(svc.metrics().worlds_drawn, 2000);
        assert_eq!(svc.bounds_cached(), 2, "second table, second bound set");
    }

    #[test]
    fn idle_pump_is_a_noop() {
        let mut svc = service(10);
        let outcome = svc.pump();
        assert!(!outcome.progressed());
        assert_eq!(svc.metrics().rounds, 0);
    }

    #[test]
    fn pump_records_sweep_time_for_every_shard() {
        // The in-place sweep is the threaded worker's sweep, so it fills
        // the per-shard sweep-time gauge too: summary()'s "busiest sweep"
        // is not a threaded-only number.
        let mut svc = service(1000)
            .with_shards(3)
            .expect("configured before submit");
        assert_eq!(svc.run_mode(), RunMode::Event, "event is the default");
        for t in 0..3 {
            svc.submit(&table(), SessionSpec::new(config(Algorithm::T1On, t)))
                .unwrap();
        }
        assert!(svc.pump().progressed());
        let sweeps = svc.metrics().shard_sweep_time();
        assert_eq!(sweeps.len(), 3);
        for (s, took) in sweeps.iter().enumerate() {
            assert!(
                *took > std::time::Duration::ZERO,
                "shard {s} sweep unrecorded"
            );
        }
    }

    #[test]
    fn services_are_send() {
        // Benches run whole services on spawned threads; the shard phases
        // move `&mut SessionEntry`s into scoped workers. Both require the
        // service (and thus crowd + drivers) to be `Send` at compile time.
        fn assert_send<T: Send>() {}
        assert_send::<TopKService<CrowdSimulator<PerfectWorker>>>();
    }

    #[test]
    fn reports_bit_identical_across_worker_threads() {
        // The sharded round loop must be invisible in the results: the
        // same mixed-tenant workload (bounded fanout, mixed priorities,
        // every algorithm family) produces bit-identical per-tenant
        // reports at 1, 2 and 4 worker threads.
        let algorithms = [
            Algorithm::T1On,
            Algorithm::TbOff,
            Algorithm::Random,
            Algorithm::COff,
            Algorithm::Incr {
                questions_per_round: 2,
            },
            Algorithm::Naive,
            Algorithm::T1On,
            Algorithm::TbOff,
        ];
        let run = |threads: usize| {
            let mut svc = service(1000).with_fanout(3).with_threads(threads);
            let ids: Vec<_> = algorithms
                .iter()
                .enumerate()
                .map(|(t, alg)| {
                    let spec = SessionSpec::new(config(alg.clone(), t as u64))
                        .with_priority((t % 3) as u8);
                    svc.submit(&table(), spec).unwrap()
                })
                .collect();
            svc.run_to_completion();
            assert_eq!(svc.metrics().completed as usize, algorithms.len());
            ids.into_iter()
                .map(|id| svc.report(id).unwrap().clone())
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            let sharded = run(threads);
            for (tenant, (a, b)) in sequential.iter().zip(&sharded).enumerate() {
                assert!(
                    a.same_outcome(b),
                    "tenant {tenant} diverged between 1 and {threads} worker threads"
                );
            }
        }
    }

    #[test]
    fn run_modes_agree_at_shard_and_thread_counts() {
        // The run mode and the shard count must both be invisible in the
        // results: a mixed workload on a reliable, amply-budgeted crowd
        // produces per-tenant reports equal to the single-shard event
        // loop in every (mode, shards, threads) combination.
        let algorithms = [
            Algorithm::T1On,
            Algorithm::TbOff,
            Algorithm::Random,
            Algorithm::COff,
            Algorithm::Incr {
                questions_per_round: 2,
            },
            Algorithm::Naive,
            Algorithm::T1On,
            Algorithm::TbOff,
        ];
        let run = |mode: RunMode, shards: usize, threads: usize| {
            let mut svc = service(1000)
                .with_shards(shards)
                .expect("configured before submit")
                .with_fanout(3)
                .with_run_mode(mode)
                .with_threads(threads);
            let ids: Vec<_> = algorithms
                .iter()
                .enumerate()
                .map(|(t, alg)| {
                    let spec = SessionSpec::new(config(alg.clone(), t as u64))
                        .with_priority((t % 3) as u8);
                    svc.submit(&table(), spec).unwrap()
                })
                .collect();
            svc.run_to_completion();
            assert_eq!(svc.metrics().completed as usize, algorithms.len());
            ids.into_iter()
                .map(|id| svc.report(id).unwrap().clone())
                .collect::<Vec<_>>()
        };
        let reference = run(RunMode::Event, 1, 1);
        for shards in [1usize, 2, 4] {
            let got = run(RunMode::Event, shards, 1);
            for (tenant, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    a.same_outcome(b),
                    "tenant {tenant} diverged in event mode at {shards} shards"
                );
            }
            // The threaded topology must agree at every (shards, threads)
            // combination — the tentpole's acceptance matrix.
            for threads in [1usize, 2, 4] {
                let got = run(RunMode::EventThreaded, shards, threads);
                for (tenant, (a, b)) in reference.iter().zip(&got).enumerate() {
                    assert!(
                        a.same_outcome(b),
                        "tenant {tenant} diverged in threaded event mode at \
                         {shards} shards / {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn starved_event_service_blocks_then_completes() {
        // Event-mode counterpart of `starved_sessions_still_complete`,
        // and the livelock regression: with the crowd able to afford 3 of
        // the ~12 demanded questions, quiescence must report the parked
        // sessions as blocked on the crowd — and pumping a blocked
        // service must NOT count as progress (zero grants are not
        // progress). run_to_completion then force-starves them to Done.
        let mut svc = service(3)
            .with_shards(2)
            .expect("configured before submit")
            .with_run_mode(RunMode::Event);
        let a = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        let b = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::Random, 5)))
            .unwrap();
        match svc.run_until_quiescent() {
            Quiescence::BlockedOnCrowd { sessions } => {
                assert!(!sessions.is_empty(), "someone must be parked");
                for id in &sessions {
                    assert_eq!(svc.state(*id), Some(SessionState::AwaitingBudget));
                }
            }
            Quiescence::Idle => panic!("a starved crowd must block, not idle"),
        }
        assert!(!svc.pump().progressed(), "blocked sweeps must not spin");
        assert!(!svc.pump().progressed(), "…no matter how often pumped");
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        assert!(svc.metrics().crowd_questions <= 3);
        assert!(
            svc.metrics().starved >= 1,
            "the cut batches count as starved"
        );
        assert_eq!(svc.metrics().completed, 2);
    }

    #[test]
    fn event_mode_lifecycle_grants_and_accounts_per_shard() {
        // Every live question in event mode is bought through an explicit
        // grant, and the per-shard ledgers must reconcile exactly with
        // the global metrics.
        let mut svc = service(1000)
            .with_shards(4)
            .expect("configured before submit")
            .with_run_mode(RunMode::Event);
        let ids: Vec<_> = (0..6)
            .map(|t| {
                svc.submit(&table(), SessionSpec::new(config(Algorithm::T1On, t)))
                    .unwrap()
            })
            .collect();
        svc.run_to_completion();
        for id in &ids {
            assert_eq!(svc.state(*id), Some(SessionState::Done));
        }
        let m = svc.metrics().clone();
        assert_eq!(m.completed, 6);
        assert!(m.budget_granted > 0, "live asks require grants");
        assert!(m.events_processed > 0);
        let granted: u64 = (0..svc.shard_count())
            .map(|s| svc.shard_ledger(s).unwrap().total_granted())
            .sum();
        let spent: u64 = (0..svc.shard_count())
            .map(|s| svc.shard_ledger(s).unwrap().total_spent())
            .sum();
        assert_eq!(granted, m.budget_granted);
        assert_eq!(spent, m.crowd_questions);
        // Per-shard attribution adds up exactly, and sessions actually
        // spread over more than one shard.
        assert_eq!(m.shard_answers().iter().sum::<u64>(), m.answers_served);
        assert_eq!(m.shard_completed().iter().sum::<u64>(), m.completed);
        assert!(m.shard_completed().iter().filter(|&&c| c > 0).count() > 1);
        assert!(m.shard_imbalance() >= 1.0);
    }

    #[test]
    fn shard_imbalance_moves_off_one_under_skew() {
        // BENCH_PR9 reported `shard_imbalance == 1.000` in every cell —
        // correct for its uniform per-tenant budgets, but that never
        // exercised the metric's skew arm. Heavy-tailed workload: both
        // big-budget tenants land on shard 0 (`shard = id % 4`), the six
        // one-answer tenants spread over the rest.
        let mut svc = service(1000)
            .with_shards(4)
            .expect("configured before submit")
            .with_run_mode(RunMode::Event);
        for t in 0..8u64 {
            let mut cfg = config(Algorithm::T1On, t);
            cfg.budget = if t % 4 == 0 { 6 } else { 1 };
            svc.submit(&table(), SessionSpec::new(cfg)).unwrap();
        }
        svc.run_to_completion();
        let m = svc.metrics().clone();
        assert_eq!(m.completed, 8);
        // Light tenants deliver exactly 1 answer; the two heavy ones at
        // least 2 each (a 1-question budget cannot certify a top-3 over
        // these overlapping distributions). Worst case: shard 0 serves 4
        // of 10 answers -> imbalance = 4 * 4 / 10 = 1.6.
        assert!(
            m.shard_imbalance() > 1.5,
            "heavy-tailed workload must skew the imbalance gauge, got {:.3} over {:?}",
            m.shard_imbalance(),
            m.shard_answers()
        );
    }

    #[test]
    fn threaded_starvation_blocks_the_same_sessions_as_event() {
        // Crowd starvation under the threaded topology: the coordinator's
        // zero-grant reconcile must diagnose BlockedOnCrowd with exactly
        // the session set the single-threaded event loop reports, and
        // force-starved completion must agree too.
        let run = |mode: RunMode| {
            let mut svc = service(3)
                .with_shards(2)
                .expect("configured before submit")
                .with_run_mode(mode)
                .with_threads(2);
            let ids: Vec<_> = (0..4)
                .map(|t| {
                    svc.submit(&table(), SessionSpec::new(config(Algorithm::Random, t)))
                        .unwrap()
                })
                .collect();
            let blocked = match svc.run_until_quiescent() {
                Quiescence::BlockedOnCrowd { mut sessions } => {
                    sessions.sort_unstable();
                    sessions
                }
                Quiescence::Idle => panic!("a starved crowd must block, not idle"),
            };
            svc.run_to_completion();
            let reports: Vec<_> = ids.iter().map(|id| svc.report(*id).cloned()).collect();
            (blocked, reports, svc.metrics().starved)
        };
        let (blocked_e, reports_e, starved_e) = run(RunMode::Event);
        let (blocked_t, reports_t, starved_t) = run(RunMode::EventThreaded);
        assert!(!blocked_e.is_empty(), "someone must be parked");
        assert_eq!(blocked_e, blocked_t, "blocked session sets must agree");
        assert_eq!(starved_e, starved_t);
        for (tenant, (a, b)) in reports_e.iter().zip(&reports_t).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    a.same_outcome(b),
                    "tenant {tenant} diverged between event and threaded event"
                ),
                _ => panic!("tenant {tenant} missing a report"),
            }
        }
    }

    #[test]
    fn shards_cannot_be_reconfigured_after_submit() {
        // Workspace panic-freedom rule: topology misuse is a typed error
        // the caller can match on, not an assert.
        let mut svc = service(10);
        svc.submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        match svc.with_shards(2) {
            Err(ServiceError::TopologyAfterSubmit { submitted }) => {
                assert_eq!(submitted, 1);
            }
            Ok(_) => panic!("resharding after submit must be rejected"),
        }
        // Before any submit the same call succeeds (and clamps to >= 1).
        let svc = service(10).with_shards(0).expect("no sessions yet");
        assert_eq!(svc.shard_count(), 1);
    }

    /// A crowd whose answer accuracy drifts between rounds — the scenario
    /// that distinguishes per-answer accuracy plumbing from a scalar: a
    /// cached answer must be replayed at its *purchase-time* accuracy
    /// while fresh answers in the same batch carry the current one.
    struct DriftingCrowd {
        inner: CrowdSimulator<PerfectWorker>,
        accuracies: Vec<f64>,
        asked: usize,
    }

    impl Crowd for DriftingCrowd {
        fn ask(&mut self, q: ctk_crowd::Question) -> Option<ctk_crowd::Answer> {
            let ans = self.inner.ask(q)?;
            self.asked += 1;
            Some(ans)
        }
        fn remaining(&self) -> usize {
            self.inner.remaining()
        }
        fn answer_accuracy(&self) -> f64 {
            // Accuracy of the most recent purchase (the batcher reads it
            // right after `ask`): question #k was bought at accuracy[k-1].
            let k = self.asked.saturating_sub(1);
            self.accuracies[k.min(self.accuracies.len() - 1)]
        }
        fn history(&self) -> &[ctk_crowd::Answer] {
            self.inner.history()
        }
    }

    #[test]
    fn cached_answers_replay_their_purchase_time_accuracy() {
        // Tenant A buys its answers while the crowd advertises 0.9; by
        // the time tenant B runs, the policy has drifted to 0.7. B's
        // cache hits must be graded 0.9 (what they were bought at) and
        // only genuinely fresh purchases graded at the drifted accuracy.
        let table = table();
        let truth = GroundTruth::sample(&table, 99);
        let a_cfg = config(Algorithm::TbOff, 1);
        let mut b_cfg = config(Algorithm::TbOff, 1);
        b_cfg.budget = a_cfg.budget + 2; // B outruns the cache at the end
        let accuracies: Vec<f64> = (0..a_cfg.budget)
            .map(|_| 0.9)
            .chain(std::iter::repeat(0.7))
            .take(a_cfg.budget + 16)
            .collect();
        let crowd = DriftingCrowd {
            inner: CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 1000)
                .expect("valid vote policy"),
            accuracies,
            asked: 0,
        };
        // Fanout 1 serializes the tenants: A completes (buying at 0.9)
        // before B asks anything.
        let mut svc = TopKService::new(crowd).with_fanout(1);
        let a = svc.submit(&table, SessionSpec::new(a_cfg.clone())).unwrap();
        let b = svc.submit(&table, SessionSpec::new(b_cfg.clone())).unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        assert!(svc.metrics().cache_hits > 0, "B must hit A's answers");
        let served_b = svc.report(b).unwrap();

        // Reference: drive B's config by hand, grading each answer with
        // the accuracy the service should have used — purchase-time for
        // answers A already bought, drifted for fresh ones.
        let bought: std::collections::HashSet<_> = svc
            .crowd()
            .history()
            .iter()
            .take(svc.report(a).unwrap().questions_asked())
            .map(|ans| ans.question.canonical())
            .collect();
        let mut reference = SessionDriver::new(b_cfg.clone(), &table, None).expect("valid config");
        let mut oracle = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1000)
            .expect("valid vote policy");
        loop {
            let batch = reference.next_batch(usize::MAX).unwrap();
            if batch.is_empty() {
                break;
            }
            let graded: Vec<_> = batch
                .iter()
                .map(|q| {
                    let accuracy = if bought.contains(&q.canonical()) {
                        0.9
                    } else {
                        0.7
                    };
                    (oracle.ask(*q).unwrap(), accuracy)
                })
                .collect();
            if reference.feed_graded(&graded).unwrap() == DriverStatus::Done {
                break;
            }
        }
        let expected = reference.finish().unwrap();
        assert!(
            served_b.same_outcome(&expected),
            "B must mix purchase-time (0.9) and drifted (0.7) accuracies"
        );

        // And the scalar-accuracy grading would have produced a different
        // belief trajectory — the distinction this test exists to pin.
        let mut uniform = SessionDriver::new(b_cfg, &table, None).unwrap();
        let mut oracle2 = CrowdSimulator::new(
            GroundTruth::sample(&table, 99),
            PerfectWorker,
            VotePolicy::Single,
            1000,
        )
        .expect("valid vote policy");
        loop {
            let batch = uniform.next_batch(usize::MAX).unwrap();
            if batch.is_empty() {
                break;
            }
            let answers: Vec<_> = batch.iter().map(|q| oracle2.ask(*q).unwrap()).collect();
            if uniform.feed(&answers, 0.7).unwrap() == DriverStatus::Done {
                break;
            }
        }
        let flattened = uniform.finish().unwrap();
        assert!(
            !served_b.same_outcome(&flattened),
            "uniform 0.7 grading must be distinguishable, or the test is vacuous"
        );
    }

    #[test]
    fn routing_is_invisible_to_hint_blind_crowds() {
        // The plain simulator ignores hints (trait default), so a routed
        // service must produce bit-identical reports to an unrouted one —
        // routing only annotates, the backend decides whether to act.
        let run = |router: Option<QuestionRouter>| {
            let mut svc = service(1000);
            if let Some(r) = router {
                svc = svc.with_router(r);
            }
            let a = svc
                .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
                .unwrap();
            let b = svc
                .submit(&table(), SessionSpec::new(config(Algorithm::TbOff, 1)))
                .unwrap();
            svc.run_to_completion();
            let reports = vec![
                svc.report(a).unwrap().clone(),
                svc.report(b).unwrap().clone(),
            ];
            (reports, svc.metrics().clone())
        };
        let (plain, plain_m) = run(None);
        // Thresholds (1, 1): every live question is hinted — sub-certain
        // margins go Expert, fully settled pairs Cheap — so the counter
        // arithmetic is exact: expert + cheap = live questions.
        let (routed, routed_m) = run(Some(QuestionRouter::new(1.0, 1.0).unwrap()));
        for (t, (x, y)) in plain.iter().zip(&routed).enumerate() {
            assert!(x.same_outcome(y), "tenant {t} diverged under routing");
        }
        assert_eq!(plain_m.routed_expert + plain_m.routed_cheap, 0);
        assert_eq!(
            routed_m.routed_expert + routed_m.routed_cheap,
            routed_m.crowd_questions,
            "with thresholds (1,1) every live ask carries a hint"
        );
        assert!(routed_m.routed_expert > 0, "uncertain pairs must exist");
        assert!(routed_m.summary().contains("expert"));
    }

    #[test]
    fn routed_service_completes_on_a_quality_crowd() {
        use ctk_quality::{QualityConfig, QualityCrowd, WorkerSpec};
        // End-to-end: a hint-aware quality crowd (cheap spammers, pricey
        // experts) behind the router. The session must complete, spend
        // live budget, and have its wide-margin questions routed cheap.
        let specs = vec![
            WorkerSpec::new(0.97).with_cost(5),
            WorkerSpec::new(0.95).with_cost(5),
            WorkerSpec::new(0.9).with_cost(5),
            WorkerSpec::new(0.55),
            WorkerSpec::new(0.55),
            WorkerSpec::new(0.5),
        ];
        let truth = GroundTruth::sample(&table(), 99);
        let crowd = QualityCrowd::new(truth, &specs, QualityConfig::weighted(3), 10_000, 13)
            .expect("valid roster");
        // Thresholds (0.5, 0.5): an empty Any band, so every live ask is
        // decisively routed and the counter assertion below is exact.
        let mut svc = TopKService::new(crowd).with_router(QuestionRouter::new(0.5, 0.5).unwrap());
        let id = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 3)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(id), Some(SessionState::Done));
        assert!(svc.crowd().asked() > 0, "live questions were purchased");
        assert_eq!(
            svc.metrics().crowd_questions,
            svc.crowd().asked(),
            "service accounting must match the backend's"
        );
        assert_eq!(
            svc.metrics().routed_cheap + svc.metrics().routed_expert,
            svc.metrics().crowd_questions,
            "an empty Any band routes every live ask decisively"
        );
    }
}
