//! Service-level observability: throughput, latency and cache economics.
//!
//! Latency is tracked in a deterministic fixed-bucket histogram (bucket
//! `i` holds latencies below `2^i` µs), so `latency_p50/p95/p99` report a
//! bucket upper bound — coarse but allocation-free, mergeable, and stable
//! across runs with the same bucket layout. Per-shard counters feed
//! [`ServiceMetrics::shard_imbalance`], the load-skew signal of the
//! shard-owned serving core (DESIGN.md §14).

use std::time::Duration;

/// Power-of-two µs buckets: bucket `i` covers latencies `< 2^i` µs. 40
/// buckets reach ~12.7 days — everything above clamps into the last one.
const LATENCY_BUCKETS: usize = 40;

/// Counters and timings accumulated over a service's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Sessions accepted by `submit`.
    pub submitted: u64,
    /// Sessions that finished with a report.
    pub completed: u64,
    /// Sessions that ended in a driver error.
    pub failed: u64,
    /// Batches cut short by an exhausted crowd (the sessions still
    /// complete, with fewer questions than budgeted).
    pub starved: u64,
    /// Sweeps over all shards that made progress.
    pub rounds: u64,
    /// Worker threads each shard's gather phase fans out over (1 =
    /// sequential; reports are identical at every setting).
    pub worker_threads: usize,
    /// Answers delivered to sessions (cached + live).
    pub answers_served: u64,
    /// Questions actually posed to the crowd backend.
    pub crowd_questions: u64,
    /// Answers served from the cross-session answer cache.
    pub cache_hits: u64,
    /// Live questions hinted to expert panels (narrow belief margin;
    /// stays 0 without a configured `QuestionRouter`).
    pub routed_expert: u64,
    /// Live questions hinted to cheap panels (wide belief margin).
    pub routed_cheap: u64,
    /// Possible worlds sampled across all completed sessions' initial
    /// builds (adaptive builds draw fewer on easy tables; certain-order
    /// early stops draw zero).
    pub worlds_drawn: u64,
    /// Completed sessions whose certain/possible bounds pinned the whole
    /// ordered prefix before sampling — decided without any crowd
    /// questions or worlds.
    pub certain_early_stops: u64,
    /// Events drained from the shards' ready-queues.
    pub events_processed: u64,
    /// Budget-grant units the reconciler issued to shards (0 until a
    /// session parks on an exhausted grant).
    pub budget_granted: u64,
    /// Wall time spent inside the run loop (selection, crowd calls,
    /// updates).
    pub serving_time: Duration,
    /// Wall time spent resolving questions against cache + crowd — the
    /// purchase phase the sharded refactor exists to unblock, broken out
    /// so benches can compare it against the PR 4 baseline.
    pub purchase_time: Duration,
    /// Threaded topology only: wall time the coordinator spent blocked on
    /// an empty request channel — waiting for some worker to either reach
    /// its next purchase or finish its sweep. High stall with low
    /// purchase time means the workers, not the barrier, are the
    /// bottleneck (the healthy shape).
    pub coordinator_stall: Duration,
    /// Threaded topology only: messages the coordinator exchanged with
    /// the shard workers (requests received + resolutions replied).
    pub channel_messages: u64,
    /// Threaded topology only: most requests drained from one shard's
    /// channel without blocking — a lower-bound depth gauge for the
    /// request queues (how far workers ran ahead of the barrier).
    pub channel_backlog_max: u64,
    latency_sum: Duration,
    latency_max: Duration,
    latency_count: u64,
    latency_hist: Vec<u64>,
    shard_answers: Vec<u64>,
    shard_completed: Vec<u64>,
    shard_sweep_time: Vec<Duration>,
}

/// Adds `other` into `mine` element-wise, growing `mine` if needed.
fn merge_counts(mine: &mut Vec<u64>, other: &[u64]) {
    if mine.len() < other.len() {
        mine.resize(other.len(), 0);
    }
    for (m, o) in mine.iter_mut().zip(other) {
        *m += o;
    }
}

/// The histogram bucket `latency` falls into.
fn bucket_index(latency: Duration) -> usize {
    let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
    let idx = (u64::BITS - micros.leading_zeros()) as usize;
    idx.min(LATENCY_BUCKETS - 1)
}

impl ServiceMetrics {
    /// Sizes the per-shard counters (service construction time).
    pub(crate) fn init_shards(&mut self, shards: usize) {
        self.shard_answers = vec![0; shards];
        self.shard_completed = vec![0; shards];
        self.shard_sweep_time = vec![Duration::ZERO; shards];
    }

    /// Credits `n` delivered answers to `shard`.
    pub(crate) fn record_shard_answers(&mut self, shard: usize, n: u64) {
        if let Some(slot) = self.shard_answers.get_mut(shard) {
            *slot += n;
        }
    }

    /// Credits one completed session to `shard`.
    pub(crate) fn record_shard_completed(&mut self, shard: usize) {
        if let Some(slot) = self.shard_completed.get_mut(shard) {
            *slot += 1;
        }
    }

    /// Credits one sweep's wall time to `shard`.
    pub(crate) fn record_shard_sweep(&mut self, shard: usize, took: Duration) {
        if let Some(slot) = self.shard_sweep_time.get_mut(shard) {
            *slot += took;
        }
    }

    /// Folds another accumulation into this one — the threaded
    /// coordinator merges each worker's shard-local deltas in shard
    /// order. Counters and durations add, maxima take the max, per-shard
    /// vectors add element-wise (sized to the longer side), and
    /// `worker_threads` (a configuration echo, not a counter) is kept.
    pub(crate) fn merge(&mut self, other: &ServiceMetrics) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.starved += other.starved;
        self.rounds += other.rounds;
        self.answers_served += other.answers_served;
        self.crowd_questions += other.crowd_questions;
        self.cache_hits += other.cache_hits;
        self.routed_expert += other.routed_expert;
        self.routed_cheap += other.routed_cheap;
        self.worlds_drawn += other.worlds_drawn;
        self.certain_early_stops += other.certain_early_stops;
        self.events_processed += other.events_processed;
        self.budget_granted += other.budget_granted;
        self.serving_time += other.serving_time;
        self.purchase_time += other.purchase_time;
        self.coordinator_stall += other.coordinator_stall;
        self.channel_messages += other.channel_messages;
        self.channel_backlog_max = self.channel_backlog_max.max(other.channel_backlog_max);
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
        self.latency_count += other.latency_count;
        if !other.latency_hist.is_empty() {
            if self.latency_hist.is_empty() {
                self.latency_hist = vec![0; LATENCY_BUCKETS];
            }
            for (mine, theirs) in self.latency_hist.iter_mut().zip(&other.latency_hist) {
                *mine += theirs;
            }
        }
        merge_counts(&mut self.shard_answers, &other.shard_answers);
        merge_counts(&mut self.shard_completed, &other.shard_completed);
        if self.shard_sweep_time.len() < other.shard_sweep_time.len() {
            self.shard_sweep_time
                .resize(other.shard_sweep_time.len(), Duration::ZERO);
        }
        for (mine, theirs) in self
            .shard_sweep_time
            .iter_mut()
            .zip(&other.shard_sweep_time)
        {
            *mine += *theirs;
        }
    }

    /// Records one finished session's enqueue-to-done latency.
    pub(crate) fn record_latency(&mut self, latency: Duration) {
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        self.latency_count += 1;
        if self.latency_hist.is_empty() {
            self.latency_hist = vec![0; LATENCY_BUCKETS];
        }
        self.latency_hist[bucket_index(latency)] += 1;
    }

    /// Answers delivered per shard (empty before the first submit).
    pub fn shard_answers(&self) -> &[u64] {
        &self.shard_answers
    }

    /// Sessions completed per shard.
    pub fn shard_completed(&self) -> &[u64] {
        &self.shard_completed
    }

    /// Cumulative sweep wall time per shard, in place and on the threaded
    /// topology alike.
    pub fn shard_sweep_time(&self) -> &[Duration] {
        &self.shard_sweep_time
    }

    /// Load skew across shards: busiest shard's delivered answers over
    /// the per-shard mean. `1.0` is perfectly balanced; `n` means one
    /// shard did the work of `n`. Degenerate cases (≤ 1 shard, nothing
    /// served) report `1.0`.
    pub fn shard_imbalance(&self) -> f64 {
        let total: u64 = self.shard_answers.iter().sum();
        let n = self.shard_answers.len();
        if n <= 1 || total == 0 {
            return 1.0;
        }
        let busiest = self.shard_answers.iter().copied().max().unwrap_or(0);
        busiest as f64 * n as f64 / total as f64
    }

    /// The latency below which `p` of finished sessions completed, as the
    /// histogram bucket's upper bound (power-of-two µs). `None` before
    /// the first completion.
    fn latency_percentile(&self, p: f64) -> Option<Duration> {
        if self.latency_count == 0 {
            return None;
        }
        let rank = ((p * self.latency_count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Duration::from_micros(1u64 << i.min(62)));
            }
        }
        Some(self.latency_max)
    }

    /// Median enqueue-to-done latency (histogram bucket upper bound).
    pub fn latency_p50(&self) -> Option<Duration> {
        self.latency_percentile(0.50)
    }

    /// 95th-percentile enqueue-to-done latency.
    pub fn latency_p95(&self) -> Option<Duration> {
        self.latency_percentile(0.95)
    }

    /// 99th-percentile enqueue-to-done latency.
    pub fn latency_p99(&self) -> Option<Duration> {
        self.latency_percentile(0.99)
    }

    /// Fraction of delivered answers that never touched the crowd.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.answers_served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.answers_served as f64
        }
    }

    /// Crowd budget saved by deduplication, in questions.
    pub fn questions_saved(&self) -> u64 {
        self.cache_hits
    }

    /// Mean enqueue-to-done latency over finished sessions.
    pub fn avg_latency(&self) -> Option<Duration> {
        (self.latency_count > 0).then(|| self.latency_sum / self.latency_count as u32)
    }

    /// Worst enqueue-to-done latency.
    pub fn max_latency(&self) -> Option<Duration> {
        (self.latency_count > 0).then_some(self.latency_max)
    }

    /// Answers delivered per second of serving time.
    pub fn answers_per_sec(&self) -> f64 {
        let secs = self.serving_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.answers_served as f64 / secs
        }
    }

    /// Sessions completed per second of serving time.
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.serving_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "sessions: {} submitted, {} completed, {} failed, {} starved | \
             rounds: {} ({} worker threads, {} shards, imbalance {:.2}) | \
             answers: {} served ({} live, {} cached, {:.1}% hit rate) | \
             routing: {} expert, {} cheap | \
             precision: {} worlds drawn, {} certain early stops | \
             events: {} drained, {} budget units granted | \
             throughput: {:.0} answers/s, {:.1} sessions/s | \
             latency avg {:?} p50 {:?} p95 {:?} p99 {:?} max {:?} | \
             purchase {:?} of {:?} serving | \
             barrier: stall {:?}, {} messages, backlog {}, busiest sweep {:?}",
            self.submitted,
            self.completed,
            self.failed,
            self.starved,
            self.rounds,
            self.worker_threads.max(1),
            self.shard_answers.len().max(1),
            self.shard_imbalance(),
            self.answers_served,
            self.crowd_questions,
            self.cache_hits,
            100.0 * self.cache_hit_rate(),
            self.routed_expert,
            self.routed_cheap,
            self.worlds_drawn,
            self.certain_early_stops,
            self.events_processed,
            self.budget_granted,
            self.answers_per_sec(),
            self.sessions_per_sec(),
            self.avg_latency().unwrap_or_default(),
            self.latency_p50().unwrap_or_default(),
            self.latency_p95().unwrap_or_default(),
            self.latency_p99().unwrap_or_default(),
            self.max_latency().unwrap_or_default(),
            self.purchase_time,
            self.serving_time,
            self.coordinator_stall,
            self.channel_messages,
            self.channel_backlog_max,
            self.shard_sweep_time
                .iter()
                .copied()
                .max()
                .unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let m = ServiceMetrics::default();
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.answers_per_sec(), 0.0);
        assert_eq!(m.sessions_per_sec(), 0.0);
        assert!(m.avg_latency().is_none());
        assert!(m.max_latency().is_none());
        assert!(m.latency_p50().is_none());
        assert!(m.latency_p99().is_none());
        assert_eq!(m.shard_imbalance(), 1.0);
    }

    #[test]
    fn latency_aggregation() {
        let mut m = ServiceMetrics::default();
        m.record_latency(Duration::from_millis(10));
        m.record_latency(Duration::from_millis(30));
        assert_eq!(m.avg_latency(), Some(Duration::from_millis(20)));
        assert_eq!(m.max_latency(), Some(Duration::from_millis(30)));
    }

    #[test]
    fn histogram_percentiles_hit_the_right_buckets() {
        let mut m = ServiceMetrics::default();
        // 98 fast sessions (~100µs), one slow (~50ms), one very slow
        // (~3s): p50 stays in the fast bucket, p99 reaches the slow one,
        // and the max is not a bucket bound but the true maximum.
        for _ in 0..98 {
            m.record_latency(Duration::from_micros(100));
        }
        m.record_latency(Duration::from_millis(50));
        m.record_latency(Duration::from_secs(3));
        // 100µs < 2^7 µs = 128µs.
        assert_eq!(m.latency_p50(), Some(Duration::from_micros(128)));
        assert_eq!(m.latency_p95(), Some(Duration::from_micros(128)));
        // 50ms < 2^16 µs = 65.536ms.
        assert_eq!(m.latency_p99(), Some(Duration::from_micros(1 << 16)));
        assert_eq!(m.max_latency(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut m = ServiceMetrics::default();
        for i in 0..200u64 {
            m.record_latency(Duration::from_micros(1 + i * 37));
        }
        let (p50, p95, p99) = (
            m.latency_p50().unwrap(),
            m.latency_p95().unwrap(),
            m.latency_p99().unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
    }

    #[test]
    fn shard_imbalance_reads_the_skew() {
        let mut m = ServiceMetrics::default();
        m.init_shards(4);
        assert_eq!(m.shard_imbalance(), 1.0, "nothing served yet");
        for shard in 0..4 {
            m.record_shard_answers(shard, 10);
        }
        assert_eq!(m.shard_imbalance(), 1.0, "perfectly balanced");
        m.record_shard_answers(0, 40);
        // Shard 0 served 50 of 80: busiest/mean = 50 / 20 = 2.5.
        assert!((m.shard_imbalance() - 2.5).abs() < 1e-12);
        assert_eq!(m.shard_answers(), &[50, 10, 10, 10]);
        // Out-of-range shards are ignored, not a panic.
        m.record_shard_answers(99, 1);
        m.record_shard_completed(99);
        assert_eq!(m.shard_completed(), &[0, 0, 0, 0]);
    }

    #[test]
    fn merge_adds_counters_and_respects_maxima() {
        let mut a = ServiceMetrics {
            completed: 2,
            answers_served: 10,
            cache_hits: 3,
            channel_messages: 5,
            channel_backlog_max: 4,
            serving_time: Duration::from_millis(10),
            ..ServiceMetrics::default()
        };
        a.init_shards(2);
        a.record_shard_answers(0, 7);
        a.record_latency(Duration::from_millis(2));
        a.record_shard_sweep(1, Duration::from_millis(5));
        let mut b = ServiceMetrics {
            completed: 1,
            answers_served: 4,
            channel_backlog_max: 2,
            ..ServiceMetrics::default()
        };
        b.init_shards(2);
        b.record_shard_answers(1, 4);
        b.record_latency(Duration::from_millis(8));
        b.record_shard_sweep(1, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.completed, 3);
        assert_eq!(a.answers_served, 14);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.channel_messages, 5);
        assert_eq!(a.channel_backlog_max, 4, "backlog merges by max");
        assert_eq!(a.shard_answers(), &[7, 4]);
        assert_eq!(
            a.shard_sweep_time(),
            &[Duration::ZERO, Duration::from_millis(6)]
        );
        assert_eq!(a.max_latency(), Some(Duration::from_millis(8)));
        assert_eq!(a.avg_latency(), Some(Duration::from_millis(5)));
        // Percentiles see both recordings after the histogram merge.
        assert!(a.latency_p99().unwrap() >= Duration::from_millis(8));
    }

    #[test]
    fn merge_into_default_adopts_the_other_side() {
        let mut base = ServiceMetrics::default();
        let mut delta = ServiceMetrics::default();
        delta.init_shards(3);
        delta.record_shard_answers(2, 9);
        delta.record_latency(Duration::from_millis(1));
        base.merge(&delta);
        assert_eq!(base.shard_answers(), &[0, 0, 9]);
        assert_eq!(base.latency_p50(), delta.latency_p50());
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let mut m = ServiceMetrics {
            submitted: 32,
            completed: 32,
            answers_served: 100,
            cache_hits: 40,
            crowd_questions: 60,
            ..ServiceMetrics::default()
        };
        m.record_latency(Duration::from_millis(5));
        let s = m.summary();
        assert!(s.contains("32 submitted"));
        assert!(s.contains("40.0% hit rate"));
        assert!(s.contains("p95"));
        assert!(s.contains("imbalance"));
    }
}
