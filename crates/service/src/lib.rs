#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-service — multi-session query serving
//!
//! Serving layer of the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*,
//! Ciceri et al., ICDE 2016 / TKDE 28(1)): runs many uncertainty-reduction
//! sessions concurrently against **one** shared crowd backend — the regime
//! a real crowdsourcing platform operates in, where questions from many
//! simultaneous queries are multiplexed over the same worker pool.
//!
//! The layer is built on the sans-IO [`ctk_core::driver::SessionDriver`]:
//! each session is a state machine that emits question batches and absorbs
//! answers, and this crate owns the dispatch over a **shard-owned core**
//! (DESIGN.md §14):
//!
//! * [`shard`] — the shard structs: each shard owns its sessions end to
//!   end (registry, scheduler queues, event ready-queue) and runs the one
//!   event sweep both run modes share; budget is reconciled against the
//!   crowd through explicit per-shard [`ShardLedger`] grants;
//! * [`registry`] — shard-aware session registry: per-session budgets,
//!   lifecycle states (queued / awaiting-answers / awaiting-budget /
//!   done / failed), and disjoint `&mut` entry access for the fanned-out
//!   gather phase;
//! * [`scheduler`] — strict priority between classes, deficit round-robin
//!   within a class (persistent per-class service queues), bounded
//!   fanout: every session of the top nonempty class is served within
//!   `ceil(n / fanout)` sweeps, churn-proof; one instance per shard;
//! * [`batcher`] — cross-session question batching with an answer cache
//!   ([`AnswerCache`], partitioned by question hash as
//!   [`ShardedAnswerCache`]): identical pairwise questions from different
//!   tenants are answered once, then served from memory, before any
//!   crowd budget is spent;
//! * [`service`] — [`TopKService`] in two run modes over the same sweep:
//!   [`RunMode::Event`] (the default) sweeps the typed per-shard
//!   [`Event`] queues in place, with [`Quiescence`] telling
//!   blocked-on-crowd apart from idle, and [`RunMode::EventThreaded`]
//!   sweeps every shard on a dedicated worker thread;
//! * [`topology`] — the threaded topology's channel protocol and
//!   coordinator loop: the coordinator serves purchases and grants at a
//!   shard-order `mpsc` barrier (DESIGN.md §15), keeping reports
//!   `same_outcome` with the single-threaded event loop;
//! * [`error`] — typed [`ServiceError`] for API misuse (topology changes
//!   after the first submit), honoring the workspace panic-freedom rule;
//! * [`metrics`] — throughput / latency-histogram / cache-hit /
//!   shard-imbalance accounting, plus the threaded topology's
//!   coordinator-stall, channel and per-shard sweep-time gauges.
//!
//! With reliable (accuracy-1) workers the multiplexing is *lossless*:
//! every session's final report equals the one the standalone blocking
//! [`ctk_core::session::UrSession::run`] produces under the same seed —
//! the integration suite pins this for 36 concurrent tenants, pins that
//! per-tenant reports are bit-identical at 1/2/4 worker threads, and pins
//! that both run modes agree at 1/2/4 shards (the threaded topology across
//! 1/2/4 worker threads as well). See DESIGN.md §7, §9, §14 and §15 for
//! the architecture discussion.

pub mod batcher;
pub mod error;
pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod service;
pub mod shard;
pub mod topology;

pub use batcher::{AnswerCache, AnswerStore, ServedAnswer, ShardedAnswerCache};
pub use ctk_quality::QuestionRouter;
pub use ctk_tpo::{PrecisionTarget, StopReason};
pub use error::ServiceError;
pub use metrics::ServiceMetrics;
pub use registry::{Registry, SessionId, SessionSpec, SessionState};
pub use scheduler::Scheduler;
pub use service::{RegistryView, RoundOutcome, RunMode, TopKService};
pub use shard::{Event, Quiescence, ShardLedger};
