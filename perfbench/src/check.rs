//! Output checks.
//!
//! Every query's outcome is reduced to a digest over its question/answer
//! trail and final top-K (integers only, no float bits). A workload's
//! digest folds its checked queries' digests in query order and must equal
//! the value recorded in `perfbench/expected_digests.txt` for the workload
//! and seed. Independently of any recording, each report is checked
//! against the crowd that answered it: the trail must be the crowd's
//! answers, within budget, and the result a valid top-K.

use ctk_core::session::UrReport;
use ctk_crowd::{Answer, Question};
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of integers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of one query's outcome: algorithm, asked questions with their
/// answers, and the final top-K.
pub fn report_digest(report: &UrReport) -> u64 {
    let mut d = Digest::default();
    for b in report.algorithm.bytes() {
        d.push(u64::from(b));
    }
    d.push(report.steps.len() as u64);
    for step in &report.steps {
        d.push(
            (u64::from(step.question.i) << 33)
                | (u64::from(step.question.j) << 1)
                | u64::from(step.answer_yes),
        );
    }
    d.push(report.final_topk.len() as u64);
    for &id in &report.final_topk {
        d.push(u64::from(id));
    }
    d.value()
}

/// Folds per-query digests, in order, into a workload digest.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    for x in digests {
        d.push(x);
    }
    d.value()
}

/// Checks a report against the crowd that answered it: at most `budget`
/// steps, every answer equal to `answer(question)`, and a final top-K of
/// `k` distinct tuple ids below `n`.
pub fn report_is_valid(
    report: &UrReport,
    k: usize,
    n: usize,
    budget: usize,
    answer: impl Fn(Question) -> Answer,
) -> bool {
    let trail_ok = report
        .steps
        .iter()
        .all(|s| answer(s.question).yes == s.answer_yes);
    let mut ids = report.final_topk.clone();
    ids.sort_unstable();
    ids.dedup();
    trail_ok
        && report.steps.len() <= budget
        && report.final_topk.len() == k
        && ids.len() == k
        && ids.iter().all(|&id| (id as usize) < n)
}

/// Recorded workload digests, keyed by (workload, seed, seconds). A
/// workload whose checked queries do not depend on the run length records
/// `*` for seconds.
#[derive(Debug, Default)]
pub struct Expected(BTreeMap<(String, u64, String), u64>);

impl Expected {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, seconds, digest] = fields[..] else {
                return Err(format!("line {}: expected 4 fields", no + 1));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("line {}: seed: {e}", no + 1))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("line {}: digest: {e}", no + 1))?;
            map.insert((workload.to_string(), seed, seconds.to_string()), digest);
        }
        Ok(Self(map))
    }

    pub fn get(&self, workload: &str, seed: u64, seconds: &str) -> Option<u64> {
        self.0
            .get(&(workload.to_string(), seed, seconds.to_string()))
            .copied()
    }
}

/// One line of `expected_digests.txt`.
pub fn record_line(workload: &str, seed: u64, seconds: &str, digest: u64) -> String {
    format!("{workload} {seed} {seconds} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_round_trips() {
        let text = format!(
            "# comment\n{}\n{}\n",
            record_line("paper-fig1", 3, "*", 0xdead_beef),
            record_line("fleet-arrivals", 3, "20", 7)
        );
        let e = Expected::parse(&text).expect("parses");
        assert_eq!(e.get("paper-fig1", 3, "*"), Some(0xdead_beef));
        assert_eq!(e.get("fleet-arrivals", 3, "20"), Some(7));
        assert_eq!(e.get("fleet-arrivals", 3, "10"), None);
        assert!(Expected::parse("a b c").is_err());
    }

    #[test]
    fn fold_is_order_sensitive() {
        assert_ne!(fold([1, 2]), fold([2, 1]));
    }
}
