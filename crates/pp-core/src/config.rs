//! Configurations: the count vector `(x_1, …, x_k, u)`.
//!
//! A [`Configuration`] records, for a population of `n` agents and `k`
//! opinions, how many agents support each opinion and how many are undecided.
//! It is the central data structure of the reproduction: the undecided state
//! dynamics (and every baseline dynamic studied here) is a Markov chain over
//! configurations, so all simulators, phase trackers and potential functions
//! operate on this type.

use crate::error::ConfigError;
use crate::opinion::{AgentState, Opinion};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The count vector `(x_1, …, x_k, u)` of a population of `n` agents with `k`
/// opinions, as defined in Section 2 of the paper.
///
/// Invariant: `sum_i x_i + u == n` and `k >= 1`, `n >= 1`.
///
/// # Examples
///
/// ```
/// use pp_core::Configuration;
///
/// let c = Configuration::from_counts(vec![50, 30, 20], 0).unwrap();
/// assert_eq!(c.population(), 100);
/// assert_eq!(c.num_opinions(), 3);
/// assert_eq!(c.max_support(), 50);
/// assert_eq!(c.additive_bias(), Some(20));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    counts: Vec<u64>,
    undecided: u64,
    population: u64,
}

impl Configuration {
    /// Creates a configuration from per-opinion counts and an undecided count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoOpinions`] if `counts` is empty and
    /// [`ConfigError::EmptyPopulation`] if the total population would be zero.
    pub fn from_counts(counts: Vec<u64>, undecided: u64) -> Result<Self, ConfigError> {
        if counts.is_empty() {
            return Err(ConfigError::NoOpinions);
        }
        let decided: u64 = counts.iter().sum();
        let population = decided + undecided;
        if population == 0 {
            return Err(ConfigError::EmptyPopulation);
        }
        Ok(Configuration {
            counts,
            undecided,
            population,
        })
    }

    /// Creates a configuration with every agent decided and the support split
    /// as evenly as possible over `k` opinions (the paper's "no bias" start).
    ///
    /// Any remainder `n mod k` is distributed one agent at a time to the
    /// lowest-indexed opinions, so opinion 0 is always a (possibly tied)
    /// plurality opinion.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `k == 0`.
    pub fn uniform(n: u64, k: usize) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::NoOpinions);
        }
        if n == 0 {
            return Err(ConfigError::EmptyPopulation);
        }
        let base = n / k as u64;
        let rem = (n % k as u64) as usize;
        let counts = (0..k)
            .map(|i| if i < rem { base + 1 } else { base })
            .collect();
        Ok(Configuration {
            counts,
            undecided: 0,
            population: n,
        })
    }

    /// Creates a configuration from an explicit list of agent states.
    ///
    /// # Errors
    ///
    /// Returns an error if `states` is empty, if `k == 0`, or if a state refers
    /// to an opinion `>= k`.
    pub fn from_states(states: &[AgentState], k: usize) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError::NoOpinions);
        }
        if states.is_empty() {
            return Err(ConfigError::EmptyPopulation);
        }
        let mut counts = vec![0u64; k];
        let mut undecided = 0u64;
        for s in states {
            match s {
                AgentState::Decided(o) => {
                    let i = o.index();
                    if i >= k {
                        return Err(ConfigError::OpinionOutOfRange {
                            index: i,
                            num_opinions: k,
                        });
                    }
                    counts[i] += 1;
                }
                AgentState::Undecided => undecided += 1,
            }
        }
        Ok(Configuration {
            counts,
            undecided,
            population: states.len() as u64,
        })
    }

    /// Expands the configuration into an explicit vector of agent states
    /// (opinion 0 agents first, then opinion 1, …, undecided agents last).
    #[must_use]
    pub fn to_states(&self) -> Vec<AgentState> {
        let mut v = Vec::with_capacity(self.population as usize);
        for (i, &c) in self.counts.iter().enumerate() {
            v.extend(std::iter::repeat_n(AgentState::decided(i), c as usize));
        }
        v.extend(std::iter::repeat_n(
            AgentState::Undecided,
            self.undecided as usize,
        ));
        v
    }

    /// Total number of agents `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of opinions `k` (including opinions with zero support).
    #[must_use]
    pub fn num_opinions(&self) -> usize {
        self.counts.len()
    }

    /// Number of undecided agents `u`.
    #[must_use]
    pub fn undecided(&self) -> u64 {
        self.undecided
    }

    /// Number of decided agents `n - u`.
    #[must_use]
    pub fn decided(&self) -> u64 {
        self.population - self.undecided
    }

    /// Support `x_i` of the opinion with zero-based index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[must_use]
    pub fn support(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Support of the given opinion.
    #[must_use]
    pub fn support_of(&self, opinion: Opinion) -> u64 {
        self.counts[opinion.index()]
    }

    /// The per-opinion support slice `x_1..x_k`.
    #[must_use]
    pub fn supports(&self) -> &[u64] {
        &self.counts
    }

    /// Count of agents in a *category*: `0..k` are the opinions, `k` is `⊥`.
    ///
    /// # Panics
    ///
    /// Panics if `category > k`.
    #[must_use]
    pub fn category_count(&self, category: usize) -> u64 {
        if category == self.counts.len() {
            self.undecided
        } else {
            self.counts[category]
        }
    }

    /// `x_max(t)`: the largest support over all opinions.
    #[must_use]
    pub fn max_support(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// `max(t)`: the (lowest-indexed) opinion with the largest support.
    #[must_use]
    pub fn max_opinion(&self) -> Opinion {
        let mut best = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > self.counts[best] {
                best = i;
            }
        }
        Opinion::new(best)
    }

    /// The second-largest support (equal to `max_support` when the maximum is
    /// attained by two or more opinions).  Returns 0 when `k == 1`.
    #[must_use]
    pub fn second_support(&self) -> u64 {
        let max_idx = self.max_opinion().index();
        self.counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != max_idx)
            .map(|(_, &c)| c)
            .max()
            .unwrap_or(0)
    }

    /// The additive bias of the configuration: `x_max - x_second`, i.e. the
    /// largest `β` such that some opinion `m` satisfies `x_m >= x_i + β` for
    /// all `i != m`.  Returns `None` when `k == 1` (the notion is undefined).
    #[must_use]
    pub fn additive_bias(&self) -> Option<u64> {
        if self.num_opinions() < 2 {
            return None;
        }
        Some(self.max_support() - self.second_support())
    }

    /// The multiplicative bias `x_max / x_second` of the configuration, or
    /// `None` if `k == 1` or the second-largest opinion has zero support.
    #[must_use]
    pub fn multiplicative_bias(&self) -> Option<f64> {
        if self.num_opinions() < 2 {
            return None;
        }
        let second = self.second_support();
        if second == 0 {
            None
        } else {
            Some(self.max_support() as f64 / second as f64)
        }
    }

    /// Number of opinions with non-zero support.
    #[must_use]
    pub fn live_opinions(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Returns `true` if every agent supports the same opinion (consensus as
    /// defined in the paper: `x_i = n` for some `i`).
    #[must_use]
    pub fn is_consensus(&self) -> bool {
        self.undecided == 0 && self.counts.contains(&self.population)
    }

    /// If the configuration is a consensus, returns the winning opinion.
    #[must_use]
    pub fn consensus_opinion(&self) -> Option<Opinion> {
        if !self.is_consensus() {
            return None;
        }
        Some(self.max_opinion())
    }

    /// Returns `true` if at most one opinion has non-zero support (the outcome
    /// is decided even if undecided agents remain: they can only ever adopt
    /// the one surviving opinion under opinion dynamics that never create new
    /// opinions).
    #[must_use]
    pub fn is_opinion_settled(&self) -> bool {
        self.live_opinions() <= 1
    }

    /// Sum of squared supports `r²(t) = Σ_i x_i²`, used by the paper's
    /// transition probability bounds (Appendix B).
    #[must_use]
    pub fn sum_of_squares(&self) -> u128 {
        self.counts.iter().map(|&c| (c as u128) * (c as u128)).sum()
    }

    /// The monochromatic distance of Becchetti et al. (Section 1.2):
    /// `md(x) = Σ_i (x_i / x_max)²`, always in `[1, k]` for a configuration
    /// with a non-empty plurality.  Returns `None` if all supports are zero.
    #[must_use]
    pub fn monochromatic_distance(&self) -> Option<f64> {
        let max = self.max_support();
        if max == 0 {
            return None;
        }
        let max_f = max as f64;
        Some(
            self.counts
                .iter()
                .map(|&c| {
                    let r = c as f64 / max_f;
                    r * r
                })
                .sum(),
        )
    }

    /// The paper's unstable equilibrium for the number of undecided agents,
    /// `u* = n·(k-1)/(2k-1)` (Lemma 3), computed for this configuration's
    /// `n` and `k`.
    #[must_use]
    pub fn undecided_equilibrium(&self) -> f64 {
        let n = self.population as f64;
        let k = self.num_opinions() as f64;
        n * (k - 1.0) / (2.0 * k - 1.0)
    }

    /// Opinions that are *significant* at significance threshold
    /// `α·√(n·ln n)`: all `i` with `x_i > x_max − α·√(n·ln n)` (Section 2).
    #[must_use]
    pub fn significant_opinions(&self, alpha: f64) -> Vec<Opinion> {
        self.significant(alpha).map(Opinion::new).collect()
    }

    /// The indices of [`Configuration::significant_opinions`], in order.
    fn significant(&self, alpha: f64) -> impl Iterator<Item = usize> + '_ {
        let floor = self.max_support() as f64 - self.significance_threshold(alpha);
        self.counts
            .iter()
            .enumerate()
            .filter(move |&(_, &c)| (c as f64) > floor)
            .map(|(i, _)| i)
    }

    /// The significance margin `α·√(n·ln n)` used throughout the paper.
    #[must_use]
    pub fn significance_threshold(&self, alpha: f64) -> f64 {
        let n = self.population as f64;
        alpha * (n * n.max(2.0).ln()).sqrt()
    }

    /// Returns `true` if exactly one opinion is significant at threshold
    /// `α·√(n·ln n)` — the end condition of Phase 2.
    #[must_use]
    pub fn has_unique_significant_opinion(&self, alpha: f64) -> bool {
        self.significant(alpha).take(2).count() == 1
    }

    /// Applies a responder transition: one agent moves from state `from` to
    /// state `to`.  This is the only mutation primitive used by the count
    /// simulators, so the population invariant is preserved by construction.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NegativeCount`] if no agent currently holds the
    /// `from` state, and [`ConfigError::OpinionOutOfRange`] if either state
    /// refers to an opinion `>= k`.
    pub fn apply_move(&mut self, from: AgentState, to: AgentState) -> Result<(), ConfigError> {
        if from == to {
            return Ok(());
        }
        let k = self.num_opinions();
        let check = |s: AgentState| -> Result<(), ConfigError> {
            if let AgentState::Decided(o) = s {
                if o.index() >= k {
                    return Err(ConfigError::OpinionOutOfRange {
                        index: o.index(),
                        num_opinions: k,
                    });
                }
            }
            Ok(())
        };
        check(from)?;
        check(to)?;
        match from {
            AgentState::Decided(o) => {
                let c = &mut self.counts[o.index()];
                if *c == 0 {
                    return Err(ConfigError::NegativeCount {
                        index: Some(o.index()),
                    });
                }
                *c -= 1;
            }
            AgentState::Undecided => {
                if self.undecided == 0 {
                    return Err(ConfigError::NegativeCount { index: None });
                }
                self.undecided -= 1;
            }
        }
        match to {
            AgentState::Decided(o) => self.counts[o.index()] += 1,
            AgentState::Undecided => self.undecided += 1,
        }
        Ok(())
    }

    /// Moves one agent from category `from` to category `to` (categories
    /// `0..k` are the opinions, `k` is `⊥`) without re-validating the move —
    /// the batched engine's per-event update, whose categories come from a
    /// checked transition table and a draw weighted by `from`'s count.
    pub(crate) fn move_category(&mut self, from: usize, to: usize) {
        debug_assert!(
            from != to && to <= self.counts.len(),
            "invalid category move {from} → {to}"
        );
        debug_assert!(
            self.category_count(from) > 0,
            "category {from} has no agent to move"
        );
        *self.category_slot(from) -= 1;
        *self.category_slot(to) += 1;
    }

    fn category_slot(&mut self, category: usize) -> &mut u64 {
        if category == self.counts.len() {
            &mut self.undecided
        } else {
            &mut self.counts[category]
        }
    }

    /// Sorts a *copy* of the support vector in non-increasing order and
    /// returns it.  Useful for reporting and for the paper's convention
    /// `x_1(0) ≥ x_2(0) ≥ … ≥ x_k(0)`.
    #[must_use]
    pub fn sorted_supports(&self) -> Vec<u64> {
        let mut v = self.counts.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Relabels opinions so that supports are non-increasing (the paper's
    /// w.l.o.g. convention), returning the permuted configuration and the
    /// permutation `perm` with `new_index = position of old index in perm`.
    #[must_use]
    pub fn canonicalized(&self) -> (Configuration, Vec<usize>) {
        let mut order: Vec<usize> = (0..self.num_opinions()).collect();
        order.sort_by(|&a, &b| self.counts[b].cmp(&self.counts[a]).then(a.cmp(&b)));
        let counts = order.iter().map(|&i| self.counts[i]).collect();
        (
            Configuration {
                counts,
                undecided: self.undecided,
                population: self.population,
            },
            order,
        )
    }

    /// Checks internal consistency; used by debug assertions and tests.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let decided: u64 = self.counts.iter().sum();
        decided + self.undecided == self.population
            && !self.counts.is_empty()
            && self.population > 0
    }

    /// The fraction of agents that are undecided.
    #[must_use]
    pub fn undecided_fraction(&self) -> f64 {
        self.undecided as f64 / self.population as f64
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} u={} x=[", self.population, self.undecided)?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_splits_evenly_with_remainder_to_low_indices() {
        let c = Configuration::uniform(10, 3).unwrap();
        assert_eq!(c.supports(), &[4, 3, 3]);
        assert_eq!(c.population(), 10);
        assert_eq!(c.undecided(), 0);
        assert!(c.is_consistent());
    }

    #[test]
    fn from_counts_rejects_degenerate_inputs() {
        assert_eq!(
            Configuration::from_counts(vec![], 5),
            Err(ConfigError::NoOpinions)
        );
        assert_eq!(
            Configuration::from_counts(vec![0, 0], 0),
            Err(ConfigError::EmptyPopulation)
        );
    }

    #[test]
    fn bias_metrics() {
        let c = Configuration::from_counts(vec![60, 25, 15], 0).unwrap();
        assert_eq!(c.additive_bias(), Some(35));
        assert!((c.multiplicative_bias().unwrap() - 2.4).abs() < 1e-12);
        assert_eq!(c.max_opinion(), Opinion::new(0));
        assert_eq!(c.second_support(), 25);
    }

    #[test]
    fn additive_bias_zero_on_tie() {
        let c = Configuration::from_counts(vec![40, 40, 20], 0).unwrap();
        assert_eq!(c.additive_bias(), Some(0));
    }

    #[test]
    fn consensus_detection() {
        let c = Configuration::from_counts(vec![100, 0, 0], 0).unwrap();
        assert!(c.is_consensus());
        assert_eq!(c.consensus_opinion(), Some(Opinion::new(0)));
        let d = Configuration::from_counts(vec![99, 0, 0], 1).unwrap();
        assert!(!d.is_consensus());
        assert!(d.is_opinion_settled());
    }

    #[test]
    fn apply_move_preserves_population() {
        let mut c = Configuration::from_counts(vec![5, 5], 2).unwrap();
        c.apply_move(AgentState::decided(0), AgentState::Undecided)
            .unwrap();
        assert_eq!(c.supports(), &[4, 5]);
        assert_eq!(c.undecided(), 3);
        assert!(c.is_consistent());
        c.apply_move(AgentState::Undecided, AgentState::decided(1))
            .unwrap();
        assert_eq!(c.supports(), &[4, 6]);
        assert_eq!(c.undecided(), 2);
        assert!(c.is_consistent());
    }

    #[test]
    fn apply_move_rejects_underflow_and_bad_opinions() {
        let mut c = Configuration::from_counts(vec![1, 0], 0).unwrap();
        assert!(matches!(
            c.apply_move(AgentState::decided(1), AgentState::decided(0)),
            Err(ConfigError::NegativeCount { index: Some(1) })
        ));
        assert!(matches!(
            c.apply_move(AgentState::decided(5), AgentState::decided(0)),
            Err(ConfigError::OpinionOutOfRange { .. })
        ));
        assert!(matches!(
            c.apply_move(AgentState::Undecided, AgentState::decided(0)),
            Err(ConfigError::NegativeCount { index: None })
        ));
    }

    #[test]
    fn apply_move_same_state_is_noop() {
        let mut c = Configuration::from_counts(vec![3, 3], 1).unwrap();
        let before = c.clone();
        c.apply_move(AgentState::decided(0), AgentState::decided(0))
            .unwrap();
        assert_eq!(c, before);
    }

    #[test]
    fn states_round_trip() {
        let c = Configuration::from_counts(vec![3, 0, 2], 4).unwrap();
        let states = c.to_states();
        assert_eq!(states.len(), 9);
        let back = Configuration::from_states(&states, 3).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn monochromatic_distance_is_between_one_and_k() {
        let c = Configuration::uniform(999, 3).unwrap();
        let md = c.monochromatic_distance().unwrap();
        assert!((1.0..=3.0).contains(&md), "md = {md}");
        // Perfectly uniform (divisible) => md == k.
        let c = Configuration::uniform(900, 3).unwrap();
        assert!((c.monochromatic_distance().unwrap() - 3.0).abs() < 1e-9);
        // Fully concentrated => md == 1.
        let c = Configuration::from_counts(vec![900, 0, 0], 0).unwrap();
        assert!((c.monochromatic_distance().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undecided_equilibrium_matches_formula() {
        let c = Configuration::uniform(1000, 2).unwrap();
        assert!((c.undecided_equilibrium() - 1000.0 / 3.0).abs() < 1e-9);
        let c = Configuration::uniform(1000, 10).unwrap();
        assert!((c.undecided_equilibrium() - 1000.0 * 9.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    fn significant_opinions_respects_threshold() {
        // n = 10_000, sqrt(n ln n) ≈ 303.6
        let c = Configuration::from_counts(vec![5000, 4900, 100], 0).unwrap();
        let sig = c.significant_opinions(1.0);
        assert_eq!(sig, vec![Opinion::new(0), Opinion::new(1)]);
        assert!(!c.has_unique_significant_opinion(1.0));
        let d = Configuration::from_counts(vec![5000, 4000, 1000], 0).unwrap();
        assert!(d.has_unique_significant_opinion(1.0));
    }

    #[test]
    fn canonicalized_sorts_supports() {
        let c = Configuration::from_counts(vec![10, 30, 20], 5).unwrap();
        let (canon, order) = c.canonicalized();
        assert_eq!(canon.supports(), &[30, 20, 10]);
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(canon.undecided(), 5);
    }

    #[test]
    fn sum_of_squares_matches_manual() {
        let c = Configuration::from_counts(vec![3, 4], 0).unwrap();
        assert_eq!(c.sum_of_squares(), 25);
    }

    #[test]
    fn display_is_compact() {
        let c = Configuration::from_counts(vec![1, 2], 3).unwrap();
        assert_eq!(c.to_string(), "n=6 u=3 x=[1, 2]");
    }
}
