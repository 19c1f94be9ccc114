//! The benchmark's crowd backends.
//!
//! * [`NoisyCrowd`] answers with accuracy below 1, and each answer is a
//!   pure function of (seed, question): the same question gets the same
//!   answer whenever and however often it is asked, so a service's
//!   per-query outcomes do not depend on how arrivals interleave with
//!   sweeps.
//! * [`MeteredCrowd`] wraps any backend, counts its asks and, when asked
//!   to, keeps the interval of every ask for the span recorder. It also
//!   notes when a session first consults the crowd, which is the moment
//!   `UrSession::run_with_truth` has finished building the session.

use ctk_crowd::{Answer, Crowd, GroundTruth, Question};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of a seed and a stream position, for deriving per-query seeds.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(mix64(seed ^ mix64(stream)) ^ index)
}

/// A crowd whose answers are correct with probability `accuracy`, decided
/// per question by a hash of (seed, canonical question).
#[derive(Debug, Clone)]
pub struct NoisyCrowd {
    truth: GroundTruth,
    seed: u64,
    accuracy: f64,
    budget: usize,
    history: Vec<Answer>,
}

impl NoisyCrowd {
    pub fn new(truth: GroundTruth, seed: u64, accuracy: f64, budget: usize) -> Self {
        Self {
            truth,
            seed,
            accuracy,
            budget,
            history: Vec::new(),
        }
    }

    /// The answer this crowd gives to `q`, without spending budget.
    pub fn answer(&self, q: Question) -> Answer {
        let c = q.canonical();
        let key = (u64::from(c.i) << 32) | u64::from(c.j);
        let draw = (mix64(self.seed ^ mix64(key)) >> 11) as f64 / (1u64 << 53) as f64;
        let correct = self.truth.true_answer(&c);
        let yes_canonical = if draw < self.accuracy {
            correct
        } else {
            !correct
        };
        Answer {
            question: q,
            yes: if q == c {
                yes_canonical
            } else {
                !yes_canonical
            },
        }
    }
}

impl Crowd for NoisyCrowd {
    fn ask(&mut self, q: Question) -> Option<Answer> {
        if self.history.len() >= self.budget {
            return None;
        }
        let a = self.answer(q);
        self.history.push(a);
        Some(a)
    }

    fn remaining(&self) -> usize {
        self.budget - self.history.len()
    }

    fn answer_accuracy(&self) -> f64 {
        self.accuracy
    }

    fn history(&self) -> &[Answer] {
        &self.history
    }
}

/// Counts (and optionally times) the asks that reach the wrapped crowd.
#[derive(Debug, Clone)]
pub struct MeteredCrowd<C> {
    inner: C,
    keep_intervals: bool,
    pub asks: u64,
    pub ask_time: Duration,
    pub intervals: Vec<(Instant, Instant)>,
    /// When `remaining()` was first called (see the module docs).
    pub first_consulted: Cell<Option<Instant>>,
}

impl<C: Crowd> MeteredCrowd<C> {
    pub fn new(inner: C, keep_intervals: bool) -> Self {
        Self {
            inner,
            keep_intervals,
            asks: 0,
            ask_time: Duration::ZERO,
            intervals: Vec::new(),
            first_consulted: Cell::new(None),
        }
    }
}

impl<C: Crowd> Crowd for MeteredCrowd<C> {
    fn ask(&mut self, q: Question) -> Option<Answer> {
        let t0 = Instant::now();
        let a = self.inner.ask(q);
        let t1 = Instant::now();
        self.asks += 1;
        self.ask_time += t1 - t0;
        if self.keep_intervals {
            self.intervals.push((t0, t1));
        }
        a
    }

    fn remaining(&self) -> usize {
        if self.first_consulted.get().is_none() {
            self.first_consulted.set(Some(Instant::now()));
        }
        self.inner.remaining()
    }

    fn answer_accuracy(&self) -> f64 {
        self.inner.answer_accuracy()
    }

    fn history(&self) -> &[Answer] {
        self.inner.history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crowd(accuracy: f64) -> NoisyCrowd {
        let truth = GroundTruth::from_scores((0..12).map(|i| f64::from(i) * 0.1).collect());
        NoisyCrowd::new(truth, 42, accuracy, usize::MAX)
    }

    #[test]
    fn answers_are_pure_and_orientation_consistent() {
        let mut a = crowd(0.7);
        let mut b = crowd(0.7);
        for i in 0..12u32 {
            for j in 0..12u32 {
                if i == j {
                    continue;
                }
                let q = Question::new(i, j);
                let x = a.ask(q).expect("budget");
                let flipped = b.ask(q.flipped()).expect("budget");
                assert_eq!(x.implied_order(), flipped.implied_order());
                assert_eq!(x, a.answer(q));
            }
        }
    }

    #[test]
    fn accuracy_shows_in_the_error_rate() {
        let c = crowd(0.8);
        let truth = c.truth.clone();
        let (mut wrong, mut total) = (0, 0);
        for i in 0..12u32 {
            for j in (i + 1)..12u32 {
                let q = Question::new(i, j);
                total += 1;
                if c.answer(q).yes != truth.true_answer(&q) {
                    wrong += 1;
                }
            }
        }
        assert!(wrong > 0 && wrong < total / 2, "{wrong} of {total} wrong");
    }
}
