//! Per-bus arbitration.
//!
//! When several ready transactions contend for one bus in the same cycle,
//! the bus arbiter picks the winner. The STbus supports static-priority
//! and fair (round-robin-like) arbitration; both are modelled here.

use serde::{Deserialize, Serialize};

/// Arbitration policy of a bus.
///
/// The STbus node supports several programmable arbitration schemes; the
/// three modelled here cover the spectrum used in practice: static
/// priority, rotating (fair) priority and least-recently-used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arbitration {
    /// Lowest initiator index wins (static priority).
    FixedPriority,
    /// Rotating priority: the initiator after the last winner has the
    /// highest priority.
    #[default]
    RoundRobin,
    /// The candidate granted longest ago wins (LRU).
    LeastRecentlyUsed,
}

/// Stateful arbiter for one bus.
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: Arbitration,
    num_initiators: usize,
    /// Initiator index granted most recently (round-robin pointer).
    last_winner: Option<usize>,
    /// Grant sequence number per initiator (LRU bookkeeping); 0 = never.
    last_grant_seq: Vec<u64>,
    grant_counter: u64,
}

impl Arbiter {
    /// Creates an arbiter for a bus shared by `num_initiators` masters.
    #[must_use]
    pub fn new(policy: Arbitration, num_initiators: usize) -> Self {
        Self {
            policy,
            num_initiators,
            last_winner: None,
            last_grant_seq: vec![0; num_initiators],
            grant_counter: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> Arbitration {
        self.policy
    }

    /// Picks the winning request among `candidates` (initiator indices of
    /// the ready requests) and records it. Returns `None` when no
    /// candidates are offered. The winner depends only on the *set* of
    /// candidates: their order and any repeats are irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if a candidate initiator index is out of range.
    pub fn grant(&mut self, candidates: &[usize]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        for &c in candidates {
            assert!(c < self.num_initiators, "initiator {c} out of range");
        }
        let winner = match self.policy {
            Arbitration::FixedPriority => *candidates.iter().min().expect("non-empty"),
            Arbitration::RoundRobin => {
                let start = self
                    .last_winner
                    .map_or(0, |w| (w + 1) % self.num_initiators);
                // Smallest (candidate - start) mod n: the first candidate at
                // or after the rotating pointer.
                *candidates
                    .iter()
                    .min_by_key(|&&c| (c + self.num_initiators - start) % self.num_initiators)
                    .expect("non-empty")
            }
            Arbitration::LeastRecentlyUsed => {
                // Oldest grant first; never-granted candidates (seq 0) win
                // outright, ties broken by index for determinism.
                *candidates
                    .iter()
                    .min_by_key(|&&c| (self.last_grant_seq[c], c))
                    .expect("non-empty")
            }
        };
        self.last_winner = Some(winner);
        self.grant_counter += 1;
        self.last_grant_seq[winner] = self.grant_counter;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_priority_prefers_low_index() {
        let mut a = Arbiter::new(Arbitration::FixedPriority, 4);
        assert_eq!(a.grant(&[2, 0, 3]), Some(0));
        assert_eq!(a.grant(&[2, 3]), Some(2));
        assert_eq!(a.grant(&[3]), Some(3));
    }

    #[test]
    fn winner_ignores_candidate_order_and_repeats() {
        for policy in [
            Arbitration::FixedPriority,
            Arbitration::RoundRobin,
            Arbitration::LeastRecentlyUsed,
        ] {
            let mut sorted = Arbiter::new(policy, 5);
            let mut shuffled = Arbiter::new(policy, 5);
            for (set, jumbled) in [
                (&[0, 2, 4][..], &[4, 2, 2, 0][..]),
                (&[1, 2, 3], &[3, 1, 2, 3]),
                (&[0, 1, 2, 3, 4], &[2, 4, 0, 3, 1, 0]),
                (&[2, 4], &[4, 4, 2]),
            ] {
                assert_eq!(sorted.grant(set), shuffled.grant(jumbled), "{policy:?}");
            }
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut a = Arbiter::new(Arbitration::RoundRobin, 4);
        assert_eq!(a.grant(&[0, 1, 2, 3]), Some(0));
        assert_eq!(a.grant(&[0, 1, 2, 3]), Some(1));
        assert_eq!(a.grant(&[0, 1, 2, 3]), Some(2));
        assert_eq!(a.grant(&[0, 1, 2, 3]), Some(3));
        assert_eq!(a.grant(&[0, 1, 2, 3]), Some(0));
    }

    #[test]
    fn round_robin_skips_absent() {
        let mut a = Arbiter::new(Arbitration::RoundRobin, 4);
        assert_eq!(a.grant(&[1, 3]), Some(1));
        // Pointer now after 1 → 2; among {1, 3} the first ≥ 2 is 3.
        assert_eq!(a.grant(&[1, 3]), Some(3));
        // Pointer after 3 wraps to 0; first candidate ≥ 0 is 1.
        assert_eq!(a.grant(&[1, 3]), Some(1));
    }

    #[test]
    fn round_robin_is_starvation_free_under_saturation() {
        let mut a = Arbiter::new(Arbitration::RoundRobin, 3);
        let mut wins = [0usize; 3];
        for _ in 0..300 {
            let w = a.grant(&[0, 1, 2]).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [100, 100, 100]);
    }

    #[test]
    fn fixed_priority_starves_low_priority() {
        let mut a = Arbiter::new(Arbitration::FixedPriority, 3);
        let mut wins = [0usize; 3];
        for _ in 0..10 {
            let w = a.grant(&[0, 2]).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [10, 0, 0]);
    }

    #[test]
    fn lru_prefers_longest_waiting() {
        let mut a = Arbiter::new(Arbitration::LeastRecentlyUsed, 3);
        assert_eq!(a.grant(&[0, 1, 2]), Some(0)); // all fresh: lowest index
        assert_eq!(a.grant(&[0, 1, 2]), Some(1));
        assert_eq!(a.grant(&[0, 1, 2]), Some(2));
        // 0 is now the least recently used.
        assert_eq!(a.grant(&[0, 2]), Some(0));
        // 1 was granted before 2 and 0, so among {1, 2}: 1.
        assert_eq!(a.grant(&[1, 2]), Some(1));
    }

    #[test]
    fn lru_is_fair_under_saturation() {
        let mut a = Arbiter::new(Arbitration::LeastRecentlyUsed, 4);
        let mut wins = [0usize; 4];
        for _ in 0..400 {
            wins[a.grant(&[0, 1, 2, 3]).unwrap()] += 1;
        }
        assert_eq!(wins, [100, 100, 100, 100]);
    }

    #[test]
    fn empty_candidates() {
        let mut a = Arbiter::new(Arbitration::RoundRobin, 2);
        assert_eq!(a.grant(&[]), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_candidate_panics() {
        let mut a = Arbiter::new(Arbitration::FixedPriority, 2);
        let _ = a.grant(&[5]);
    }

    #[test]
    fn default_policy_is_round_robin() {
        assert_eq!(Arbitration::default(), Arbitration::RoundRobin);
    }
}
