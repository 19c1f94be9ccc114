//! The threaded execution topology ([`crate::RunMode::EventThreaded`],
//! DESIGN.md §15): each [`Shard`] moves onto a dedicated worker thread
//! that runs `Shard::sweep` on it, while the calling thread becomes the
//! **coordinator** for the two genuinely global phases — the cache-first
//! purchase merge and the budget-grant reconciler. This module holds only
//! the channel protocol and the coordinator loop; the sweep itself is the
//! one the in-place [`crate::TopKService::pump`] runs.
//!
//! # Channel protocol
//!
//! Three `std::sync::mpsc` channels per shard, all created by the
//! coordinator before the scoped workers spawn:
//!
//! * **commands** (coordinator → worker): [`ShardCmd::Sweep`] starts one
//!   event sweep, [`ShardCmd::Grant`] delivers a reconciler grant as a
//!   [`Event::BudgetGranted`] ready-queue entry, [`ShardCmd::Exit`] ends
//!   the worker. FIFO ordering means a grant sent before the next
//!   `Sweep` is enqueued before that sweep drains — exactly when the
//!   single-threaded loop's reconciler-pushed event is seen.
//! * **requests** (worker → coordinator): [`ShardReq::Resolve`] carries
//!   one session's unresolved questions to the purchase barrier — the
//!   sweep's purchase callback; [`ShardReq::SweepDone`] closes the
//!   shard's turn with its local deltas (outcome, metrics, demand).
//! * **replies** (coordinator → worker): the questions still unresolved
//!   and the [`Resolution`] of one `Resolve` — served answers in request
//!   order, cache-hit count, and whether the session resolved, parked,
//!   or starved.
//!
//! # Purchase-barrier ordering argument
//!
//! Everything a worker does locally — draining deliveries, feeding
//! drivers, planning, gathering batches — touches only shard-owned state
//! and therefore commutes across shards; it may overlap freely. The only
//! cross-shard state is crowd + cache + ledgers, and every touch of it
//! goes through `resolve_pending` **on the coordinator**, which serves
//! shard 0's request stream to completion (`SweepDone`) before reading
//! shard 1's, and so on. A worker's stream is emitted by the same sweep
//! the in-place loop runs, so the global sequence of crowd asks, cache
//! inserts and ledger spends is *identical* to
//! [`crate::TopKService::pump`] — which is why per-tenant reports are
//! `same_outcome` with single-threaded event mode at every
//! (shards, threads) combination, even against stateful or noisy crowd
//! backends where ask order changes answers. Grants are re-funded in
//! shard order at the same barrier, from the same `SweepDone` demand
//! snapshots the single-threaded reconciler reads live (nothing mutates
//! a registry between its `SweepDone` and the reconcile step). What
//! threading buys is overlap of the CPU-heavy local phases — belief
//! updates, world re-weighting, batch planning.

use crate::batcher::{resolve_pending, Resolution, ShardedAnswerCache};
use crate::metrics::ServiceMetrics;
use crate::service::RoundOutcome;
use crate::shard::{reconcile, Event, Pending, Shard, ShardLedger};
use ctk_crowd::Crowd;
use ctk_quality::QuestionRouter;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::Instant;

/// Coordinator → worker.
enum ShardCmd {
    /// Run one event sweep and answer with [`ShardReq::SweepDone`].
    Sweep,
    /// Enqueue a reconciler grant on the shard's ready-queue (consumed by
    /// the next sweep's opening drain, like the in-place reconciler's
    /// pushed event).
    Grant { granted: usize },
    /// Shut the worker down cleanly.
    Exit,
}

/// Worker → coordinator.
enum ShardReq {
    /// One session's unresolved questions, for the purchase barrier. The
    /// worker blocks on the reply before touching the next session, so a
    /// shard has at most one purchase in flight — the property the
    /// ordering argument rests on.
    Resolve { pending: Pending },
    /// The sweep finished; local deltas for the coordinator to merge in
    /// shard order.
    SweepDone(Box<SweepReport>),
}

/// What one worker sweep did, merged by the coordinator in shard order.
struct SweepReport {
    outcome: RoundOutcome,
    /// Shard-local metric deltas (deliveries, finalizations, latencies,
    /// sweep time); purchase-side metrics stay on the coordinator's
    /// accumulator.
    metrics: ServiceMetrics,
    /// Unresolved questions across the shard's parked sessions at sweep
    /// end — the demand the reconciler grants against.
    parked_demand: usize,
}

/// One shard's dedicated thread: owns the [`Shard`] exclusively for the
/// lifetime of a `run_threaded` call and sweeps it on command, deferring
/// only purchases to the coordinator.
struct Worker<'a> {
    shard_count: usize,
    /// Gather fan-out within the shard (report-invisible, as in place).
    threads: usize,
    router: Option<QuestionRouter>,
    shard: &'a mut Shard,
    cmds: Receiver<ShardCmd>,
    reqs: Sender<ShardReq>,
    replies: Receiver<(Pending, Resolution)>,
}

impl Worker<'_> {
    /// Serves commands until `Exit` or a closed channel (the coordinator
    /// unwinding); never panics on shutdown so the coordinator's panic —
    /// or a sibling worker's, propagated at scope join — stays the only
    /// one in flight.
    fn run(self) {
        let Worker {
            shard_count,
            threads,
            router,
            shard,
            cmds,
            reqs,
            replies,
        } = self;
        // The purchase step: ship the questions to the barrier and take
        // back what the coordinator's `resolve_pending` left unresolved.
        let mut purchase = |pending: &mut Pending, _: &mut ServiceMetrics| {
            let questions = std::mem::take(pending);
            reqs.send(ShardReq::Resolve { pending: questions }).ok()?;
            let (unresolved, resolution) = replies.recv().ok()?;
            *pending = unresolved;
            Some(resolution)
        };
        while let Ok(cmd) = cmds.recv() {
            match cmd {
                ShardCmd::Sweep => {
                    let mut metrics = ServiceMetrics::default();
                    metrics.init_shards(shard_count);
                    let Some(outcome) =
                        shard.sweep(threads, router.as_ref(), &mut metrics, &mut purchase)
                    else {
                        return;
                    };
                    let report = SweepReport {
                        outcome,
                        metrics,
                        parked_demand: shard.registry.parked_demand(),
                    };
                    if reqs.send(ShardReq::SweepDone(Box::new(report))).is_err() {
                        return;
                    }
                }
                ShardCmd::Grant { granted } => {
                    shard.ready.push_back(Event::BudgetGranted { granted });
                }
                ShardCmd::Exit => return,
            }
        }
    }
}

/// Runs the event loop until a sweep makes no progress, on the threaded
/// topology: one worker thread per shard (scoped — no detached threads),
/// the calling thread as coordinator. Equivalent to looping
/// [`crate::TopKService::pump`] by the ordering argument in the module
/// docs; the scope spans all sweeps of the call, so workers are spawned
/// once, not per sweep.
pub(crate) fn run_threaded<C: Crowd>(
    crowd: &mut C,
    cache: &mut ShardedAnswerCache,
    shards: &mut [Shard],
    ledgers: &mut [ShardLedger],
    metrics: &mut ServiceMetrics,
    router: Option<QuestionRouter>,
    threads: usize,
) {
    let n = shards.len();
    let mut cmd_txs = Vec::with_capacity(n);
    let mut req_rxs = Vec::with_capacity(n);
    let mut reply_txs = Vec::with_capacity(n);
    let mut worker_ends = Vec::with_capacity(n);
    for _ in 0..n {
        // ctk-allow(det-channel): per-shard private channels; the coordinator reads them strictly in shard order at the purchase barrier (module docs)
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel();
        // ctk-allow(det-channel): see above — one barrier, shard-order service discipline
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        // ctk-allow(det-channel): replies answer exactly one outstanding request per shard
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        cmd_txs.push(cmd_tx);
        req_rxs.push(req_rx);
        reply_txs.push(reply_tx);
        worker_ends.push((cmd_rx, req_tx, reply_rx));
    }
    // ctk-allow(det-thread-spawn): scoped per-shard owners; every cross-shard effect is serialized in shard order at the coordinator's purchase barrier
    std::thread::scope(|scope| {
        for (shard, (cmds, reqs, replies)) in shards.iter_mut().zip(worker_ends) {
            let worker = Worker {
                shard_count: n,
                threads,
                router,
                shard,
                cmds,
                reqs,
                replies,
            };
            scope.spawn(move || worker.run());
        }
        loop {
            // ctk-allow(det-wall-clock): serving-time metric only; never feeds a decision
            let sweep0 = Instant::now();
            for tx in &cmd_txs {
                let _ = tx.send(ShardCmd::Sweep);
            }
            let mut outcome = RoundOutcome::default();
            let mut demands = Vec::with_capacity(n);
            // The purchase barrier: serve shard s's request stream to
            // completion before reading shard s+1's. Workers past their
            // own purchases keep computing; their requests just wait.
            for (s, rx) in req_rxs.iter().enumerate() {
                let mut backlog: u64 = 0;
                loop {
                    let req = match rx.try_recv() {
                        Ok(req) => {
                            backlog += 1;
                            metrics.channel_backlog_max = metrics.channel_backlog_max.max(backlog);
                            req
                        }
                        Err(TryRecvError::Empty | TryRecvError::Disconnected) => {
                            backlog = 0;
                            // ctk-allow(det-wall-clock): stall gauge only; never feeds a decision
                            let w0 = Instant::now();
                            let req = rx.recv();
                            metrics.coordinator_stall += w0.elapsed();
                            // ctk-allow(panic-unwrap): a hung-up worker mid-protocol means it panicked; unwinding here lets the scope join surface that panic
                            req.expect("shard worker alive")
                        }
                    };
                    metrics.channel_messages += 1;
                    match req {
                        ShardReq::Resolve { mut pending } => {
                            let resolution = resolve_pending(
                                &mut pending,
                                &mut ledgers[s],
                                cache,
                                crowd,
                                metrics,
                            );
                            metrics.channel_messages += 1;
                            let _ = reply_txs[s].send((pending, resolution));
                        }
                        ShardReq::SweepDone(report) => {
                            outcome.merge(&report.outcome);
                            metrics.merge(&report.metrics);
                            demands.push(report.parked_demand);
                            break;
                        }
                    }
                }
            }
            // No registry moves between a shard's SweepDone and this
            // step: its worker is idle until the next Sweep.
            let grants = reconcile(ledgers, &demands, crowd.remaining(), metrics, &mut outcome);
            for (tx, granted) in cmd_txs.iter().zip(grants) {
                if granted > 0 {
                    let _ = tx.send(ShardCmd::Grant { granted });
                }
            }
            metrics.serving_time += sweep0.elapsed();
            if !outcome.progressed() {
                break;
            }
            metrics.rounds += 1;
        }
        for tx in &cmd_txs {
            let _ = tx.send(ShardCmd::Exit);
        }
    })
}
