//! The MedianRule of Doerr et al.
//!
//! # Closed-form conditional sampling
//!
//! Unlike the j-Majority, the MedianRule's activation law has a *purely
//! integer* closed form, because the median only compares samples against the
//! activated agent's position in the opinion order.  Writing `c_i` for the
//! opinion counts, `u` for the undecided count, `L_x = Σ_{i<x} c_i` and
//! `G_x = Σ_{i>x} c_i`:
//!
//! * a *decided* agent `x` moves iff **both** samples are decided strictly
//!   below `x` (it adopts their maximum) or **both** strictly above (their
//!   minimum) — mixed, equal, or undecided samples leave it at `x` (the
//!   median of `{x, x, b}` is always `x`).  Productive weight: `c_x·(L_x² +
//!   G_x²)` out of `n²` ordered sample pairs per activation choice;
//! * an *undecided* agent adopts the first decided sample, so every pair
//!   with at least one decided sample is productive: weight `u·(n² − u²)`.
//!
//! Total productive weight `W = Σ_x c_x·(L_x² + G_x²) + u·(n² − u²)` over
//! `n³` activation triples gives the null probability `1 − W/n³`, and the
//! conditional event draw decomposes into exact integer sub-draws: responder
//! category proportional to its row, then (for decided responders) the
//! below/above branch and the adopted opinion `m` with weight
//! `C_{≤m}² − C_{<m}²` (the number of ordered pairs whose max is `m`), all
//! via prefix/suffix sums in `O(k)` — no rejection loop, no floating point.
//! Counts are multiplied three deep, so `u128` arithmetic is exact for every
//! population below ~6·10¹² agents.
//!
//! # Delta maintenance
//!
//! The law's ingredients — the strict prefix sums `L_x`, suffix sums `G_x`
//! and the total productive weight `W` — are per-run state the sequential
//! sampler owns (`MedianLaw`, through
//! [`SamplingDynamics::activation_law`]).  Each applied move **patches**
//! the sums: an opinion `y` losing or gaining an agent shifts `L_x` by one
//! for every `x > y` and `G_x` for every `x < y` (undecided moves touch
//! neither); the per-event refresh then re-accumulates `W` in one `O(k)`
//! pass over the patched sums, and `n³` is computed once per run.
//! Everything is exact `u128` arithmetic, so a patched law is
//! **bit-identical** to a rebuilt one — asserted by a sampled debug
//! cross-check (every refresh under the `exhaustive-checks` feature)
//! against `MedianRule::prefix_suffix` / `MedianRule::productive_weight`,
//! which remain the from-scratch reference.  Patches and rebuilds are
//! counted into the sampler's `pp_core::MaintenanceStats`; the
//! [`crate::law_maintenance::set_incremental_laws`] switch forces the
//! rebuild path for baselines.  The stateless hooks build a cold law from
//! the counts through the same code, and `MedianRule` stays a plain
//! `Copy + Send + Sync` value.

use crate::law_maintenance::{self, ActivationLaw, LawKind};
use crate::sampling::SamplingDynamics;
use pp_core::engine::uniform_u128_below;
use pp_core::{AgentState, Configuration, MaintenanceStats};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The MedianRule: opinions are totally ordered (by index); an activated agent
/// samples two agents and adopts the *median* of its own opinion and the two
/// sampled opinions.
///
/// Undecided agents are handled pragmatically (the original rule has no
/// undecided state): an undecided activated agent adopts the median of the
/// decided samples (or stays undecided if both samples are undecided), and
/// undecided samples are replaced by the agent's own opinion for the median
/// computation.
///
/// Note that, unlike the USD, the MedianRule *requires* the total order on
/// opinions — this is the qualitative difference the paper points out in its
/// related-work discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MedianRule {
    opinions: usize,
}

impl MedianRule {
    /// Creates the MedianRule for `k` ordered opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the median rule needs at least one opinion");
        MedianRule { opinions: k }
    }

    fn median3(a: usize, b: usize, c: usize) -> usize {
        let mut v = [a, b, c];
        v.sort_unstable();
        v[1]
    }

    /// Per-opinion strict prefix sums `L_x = Σ_{i<x} c_i` and suffix sums
    /// `G_x = Σ_{i>x} c_i`.
    fn prefix_suffix(config: &Configuration) -> (Vec<u128>, Vec<u128>) {
        let k = config.num_opinions();
        let mut below = vec![0u128; k];
        let mut above = vec![0u128; k];
        let mut acc = 0u128;
        for (x, slot) in below.iter_mut().enumerate() {
            *slot = acc;
            acc += u128::from(config.support(x));
        }
        acc = 0;
        for (x, slot) in above.iter_mut().enumerate().rev() {
            *slot = acc;
            acc += u128::from(config.support(x));
        }
        (below, above)
    }

    /// Total weight of productive activation triples (module docs) out of
    /// `n³`.  The reference the patched law is checked against, so it only
    /// exists where those checks do.
    #[cfg(any(test, debug_assertions, feature = "exhaustive-checks"))]
    fn productive_weight(config: &Configuration) -> u128 {
        let (below, above) = Self::prefix_suffix(config);
        Self::weight_from(config, &below, &above)
    }

    /// `W = u·(n² − u²) + Σ_x c_x·(L_x² + G_x²)` from already-computed
    /// prefix/suffix sums — the `O(k)` tail both the rebuild and the patch
    /// path share, so their weights agree bit for bit.
    fn weight_from(config: &Configuration, below: &[u128], above: &[u128]) -> u128 {
        let n = u128::from(config.population());
        let u = u128::from(config.undecided());
        let mut total = u * (n * n - u * u);
        for x in 0..config.num_opinions() {
            let c = u128::from(config.support(x));
            total += c * (below[x] * below[x] + above[x] * above[x]);
        }
        total
    }

    /// The law the stateless hooks read: a cold [`MedianLaw`] refreshed
    /// once for `config`, through the code the sampler's own law runs.
    fn cold_law(config: &Configuration) -> MedianLaw {
        let mut law = MedianLaw::new(config);
        law.refresh(config, &mut MaintenanceStats::default());
        law
    }
}

/// One run's maintained MedianRule law, owned by the sampler: the strict
/// prefix/suffix sums, kept in step with every applied move, and the total
/// productive weight (module docs).
#[derive(Debug, Clone)]
pub(crate) struct MedianLaw {
    below: Vec<u128>,
    above: Vec<u128>,
    weight: u128,
    /// `n³` as the `f64` the null probability divides by.
    cube: f64,
    /// Whether the sums reflect the counts (set by the first refresh).
    warm: bool,
    /// Patches so far: the sampled debug cross-check's cadence.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    patches: u64,
}

impl MedianLaw {
    /// A cold law for `config`'s population; the first
    /// [`MedianLaw::refresh`] computes it.
    fn new(config: &Configuration) -> MedianLaw {
        let n = config.population() as f64;
        MedianLaw {
            below: Vec::new(),
            above: Vec::new(),
            weight: 0,
            cube: n * n * n,
            warm: false,
            #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
            patches: 0,
        }
    }

    /// Follows one applied move: opinion `y` losing an agent lowers `L_x`
    /// for every `x > y` and `G_x` for every `x < y`; gaining one raises
    /// them (undecided moves touch neither).
    pub(crate) fn apply_move(&mut self, from: AgentState, to: AgentState, _config: &Configuration) {
        if !self.warm {
            return;
        }
        if let AgentState::Decided(y) = from {
            let y = y.index();
            self.above[..y].iter_mut().for_each(|g| *g -= 1);
            self.below[y + 1..].iter_mut().for_each(|l| *l -= 1);
        }
        if let AgentState::Decided(y) = to {
            let y = y.index();
            self.above[..y].iter_mut().for_each(|g| *g += 1);
            self.below[y + 1..].iter_mut().for_each(|l| *l += 1);
        }
    }

    /// Brings the law to `config`: re-accumulates the weight over the
    /// maintained sums (`O(k)`), or rebuilds the sums from scratch on the
    /// first refresh or with patching disabled.  Patched and rebuilt sums
    /// are bit-identical.
    pub(crate) fn refresh(&mut self, config: &Configuration, stats: &mut MaintenanceStats) {
        if self.warm && law_maintenance::incremental_laws_enabled() {
            self.weight = MedianRule::weight_from(config, &self.below, &self.above);
            stats.law_patches += 1;
            #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
            {
                self.patches += 1;
                if cfg!(feature = "exhaustive-checks") || self.patches.is_multiple_of(64) {
                    let (below, above) = MedianRule::prefix_suffix(config);
                    assert_eq!(self.below, below, "patched prefix sums diverged");
                    assert_eq!(self.above, above, "patched suffix sums diverged");
                    assert_eq!(
                        self.weight,
                        MedianRule::productive_weight(config),
                        "patched productive weight diverged"
                    );
                }
            }
        } else {
            (self.below, self.above) = MedianRule::prefix_suffix(config);
            self.weight = MedianRule::weight_from(config, &self.below, &self.above);
            self.warm = true;
            stats.law_rebuilds += 1;
        }
    }

    /// `1 − W/n³` (module docs).
    pub(crate) fn null_probability(&self, _config: &Configuration) -> f64 {
        let p = 1.0 - self.weight as f64 / self.cube;
        p.clamp(0.0, 1.0)
    }
}

impl SamplingDynamics for MedianRule {
    fn num_opinions(&self) -> usize {
        self.opinions
    }

    fn sample_size(&self) -> usize {
        2
    }

    fn update<R: Rng + ?Sized>(
        &self,
        current: AgentState,
        samples: &[AgentState],
        _rng: &mut R,
    ) -> AgentState {
        let own = current.opinion().map(|o| o.index());
        let s0 = samples[0].opinion().map(|o| o.index());
        let s1 = samples[1].opinion().map(|o| o.index());
        match (own, s0, s1) {
            (Some(a), Some(b), Some(c)) => AgentState::decided(Self::median3(a, b, c)),
            // Undecided samples fall back to the agent's own opinion.
            (Some(a), Some(b), None) | (Some(a), None, Some(b)) => {
                AgentState::decided(Self::median3(a, a, b))
            }
            (Some(_), None, None) => current,
            // Undecided agent: use the decided samples only.
            (None, Some(b), Some(c)) => AgentState::decided(Self::median3(b, b.min(c), c.max(b))),
            (None, Some(b), None) | (None, None, Some(b)) => AgentState::decided(b),
            (None, None, None) => current,
        }
    }

    fn name(&self) -> &str {
        "median rule"
    }

    /// Closed form (module docs): `1 − W/n³` with `W` the integer productive
    /// weight, from a cold law.
    fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
        Some(Self::cold_law(config).null_probability(config))
    }

    /// Closed form (module docs): all sub-draws are exact integer draws over
    /// prefix/suffix pair counts — `O(k)` per event, no rejection loop —
    /// from a cold law.
    fn sample_productive_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        Self::cold_law(config).sample_move(config, rng)
    }

    /// The maintained prefix/suffix sums (module docs).
    fn activation_law(&self, config: &Configuration) -> Option<ActivationLaw> {
        Some(ActivationLaw::cold(LawKind::Median(MedianLaw::new(config))))
    }
}

impl MedianLaw {
    /// The conditional event draw (see
    /// [`MedianRule::sample_productive_move`]).
    pub(crate) fn sample_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        let (below, above, total) = (&self.below, &self.above, self.weight);
        let k = config.num_opinions();
        let n = u128::from(config.population());
        let u = u128::from(config.undecided());
        let d = n - u;
        debug_assert!(total > 0, "no productive activation exists");
        if total == 0 {
            return None;
        }
        let mut target = uniform_u128_below(rng, total);

        // Undecided responder: weight u·(n² − u²) = u·d·(n + u); the adopted
        // opinion is the first decided sample, b ∝ c_b·(n + u).
        let undecided_row = u * d * (n + u);
        if target < undecided_row {
            let mut btarget = target % (d * (n + u)) / (n + u);
            for b in 0..k {
                let c = u128::from(config.support(b));
                if btarget < c {
                    return Some((AgentState::Undecided, AgentState::decided(b)));
                }
                btarget -= c;
            }
            unreachable!("first-sample weight exceeded the decided count");
        }
        target -= undecided_row;

        // Decided responder x: row c_x·(L_x² + G_x²); the remainder modulo
        // the pair weight is an exact uniform draw of the sample pair.
        for x in 0..k {
            let c_x = u128::from(config.support(x));
            let pairs = below[x] * below[x] + above[x] * above[x];
            let row = c_x * pairs;
            if target >= row {
                target -= row;
                continue;
            }
            let mut inner = target % pairs;
            if inner < below[x] * below[x] {
                // Both samples strictly below x: adopt their maximum m, with
                // weight (C_{≤m}² − C_{<m}²) ordered pairs.
                let mut prefix = 0u128;
                for m in 0..x {
                    let c_m = u128::from(config.support(m));
                    let w = (prefix + c_m) * (prefix + c_m) - prefix * prefix;
                    if inner < w {
                        return Some((AgentState::decided(x), AgentState::decided(m)));
                    }
                    inner -= w;
                    prefix += c_m;
                }
                unreachable!("below-pair weight exceeded L_x²");
            }
            // Both samples strictly above x: adopt their minimum m, with
            // weight (D_{≥m}² − D_{>m}²) ordered pairs.
            inner -= below[x] * below[x];
            let mut suffix = 0u128;
            for m in (x + 1..k).rev() {
                let c_m = u128::from(config.support(m));
                let w = (suffix + c_m) * (suffix + c_m) - suffix * suffix;
                if inner < w {
                    return Some((AgentState::decided(x), AgentState::decided(m)));
                }
                inner -= w;
                suffix += c_m;
            }
            unreachable!("above-pair weight exceeded G_x²");
        }
        unreachable!("productive weight exceeded the row sums")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{SequentialSampler, SynchronousRunner};
    use pp_core::{Configuration, SimSeed, StopCondition};

    fn d(i: usize) -> AgentState {
        AgentState::decided(i)
    }

    #[test]
    fn median_of_three_decided_opinions() {
        let m = MedianRule::new(5);
        let mut rng = SimSeed::from_u64(0).rng();
        assert_eq!(m.update(d(0), &[d(4), d(2)], &mut rng), d(2));
        assert_eq!(m.update(d(3), &[d(3), d(0)], &mut rng), d(3));
        assert_eq!(m.update(d(1), &[d(1), d(1)], &mut rng), d(1));
    }

    #[test]
    fn undecided_samples_fall_back_to_own_opinion() {
        let m = MedianRule::new(4);
        let mut rng = SimSeed::from_u64(0).rng();
        assert_eq!(
            m.update(d(2), &[AgentState::Undecided, d(0)], &mut rng),
            d(2)
        );
        assert_eq!(
            m.update(
                d(2),
                &[AgentState::Undecided, AgentState::Undecided],
                &mut rng
            ),
            d(2)
        );
    }

    #[test]
    fn undecided_agent_adopts_from_samples() {
        let m = MedianRule::new(4);
        let mut rng = SimSeed::from_u64(0).rng();
        let out = m.update(AgentState::Undecided, &[d(3), d(1)], &mut rng);
        assert!(out.is_decided());
        assert_eq!(
            m.update(
                AgentState::Undecided,
                &[AgentState::Undecided, d(1)],
                &mut rng
            ),
            d(1)
        );
        assert_eq!(
            m.update(
                AgentState::Undecided,
                &[AgentState::Undecided, AgentState::Undecided],
                &mut rng
            ),
            AgentState::Undecided
        );
    }

    #[test]
    fn median_rule_converges_quickly_in_rounds() {
        let config = Configuration::uniform(1_000, 9).unwrap();
        let mut sim = SynchronousRunner::new(MedianRule::new(9), &config, SimSeed::from_u64(7));
        let result = sim.run(2_000);
        assert!(result.reached_consensus(), "median rule did not converge");
        assert!(
            result.interactions() < 300,
            "rounds = {}",
            result.interactions()
        );
    }

    #[test]
    fn median_rule_converges_sequentially_with_bias() {
        let config = Configuration::from_counts(vec![150, 500, 150, 100, 100], 0).unwrap();
        let mut sim = SequentialSampler::new(MedianRule::new(5), config, SimSeed::from_u64(8));
        let result = sim.run(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        // The median rule converges toward a central/plurality opinion; with a
        // strong central plurality it should pick opinion 1.
        assert_eq!(result.winner().unwrap().index(), 1);
    }

    /// Draws one category proportionally to counts.
    fn sample_cat(config: &Configuration, rng: &mut rand::rngs::SmallRng) -> AgentState {
        let k = config.num_opinions();
        let mut target = rng.gen_range(0..config.population());
        for cat in 0..=k {
            let c = config.category_count(cat);
            if target < c {
                return AgentState::from_category(cat, k);
            }
            target -= c;
        }
        unreachable!()
    }

    #[test]
    fn null_probability_matches_empirical_null_frequency() {
        let config = Configuration::from_counts(vec![25, 40, 10, 15], 10).unwrap();
        let m = MedianRule::new(4);
        let p = m.null_activation_probability(&config).unwrap();
        let mut rng = SimSeed::from_u64(5).rng();
        let trials = 200_000u32;
        let mut nulls = 0u32;
        for _ in 0..trials {
            let current = sample_cat(&config, &mut rng);
            let samples = [sample_cat(&config, &mut rng), sample_cat(&config, &mut rng)];
            if m.update(current, &samples, &mut rng) == current {
                nulls += 1;
            }
        }
        let empirical = f64::from(nulls) / f64::from(trials);
        assert!(
            (p - empirical).abs() < 0.005,
            "closed form {p} vs empirical {empirical}"
        );
    }

    #[test]
    fn null_probability_is_one_exactly_at_absorbing_configurations() {
        // Consensus and the all-undecided freeze are the only absorbing
        // states; the closed form must hit 1 exactly so the engine reports
        // absorption instead of sampling from an empty conditional.
        let m = MedianRule::new(3);
        let consensus = Configuration::from_counts(vec![0, 50, 0], 0).unwrap();
        assert_eq!(m.null_activation_probability(&consensus), Some(1.0));
        let frozen = Configuration::from_counts(vec![0, 0, 0], 50).unwrap();
        assert_eq!(m.null_activation_probability(&frozen), Some(1.0));
    }

    #[test]
    fn conditional_moves_are_productive_and_consistent() {
        let config = Configuration::from_counts(vec![20, 35, 5, 25], 15).unwrap();
        let m = MedianRule::new(4);
        let mut rng = SimSeed::from_u64(11).rng();
        for _ in 0..2_000 {
            let (from, to) = m.sample_productive_move(&config, &mut rng).unwrap();
            assert_ne!(from, to);
            assert!(to.is_decided(), "median moves always adopt an opinion");
            if let (Some(f), Some(t)) = (from.opinion(), to.opinion()) {
                // A decided agent only ever moves to a strictly lower or
                // strictly higher opinion (the median landed off its own).
                assert_ne!(f.index(), t.index());
            }
            let mut c = config.clone();
            c.apply_move(from, to).expect("move must be applicable");
        }
    }

    #[test]
    fn skip_ahead_runs_to_consensus_with_zero_rejection_misses() {
        use pp_core::engine::StepEngine;
        let config = Configuration::from_counts(vec![150, 500, 150, 100, 100], 0).unwrap();
        let mut sim = SequentialSampler::new(MedianRule::new(5), config, SimSeed::from_u64(14));
        let result = sim.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.rejection_misses(), Some(0));
        assert_eq!(sim.rejection_fallbacks(), 0);
        assert_eq!(result.winner().unwrap().index(), 1);
    }

    /// `(patches, rebuilds, fallback rebuilds)` of a law's counters.
    fn tally(stats: &MaintenanceStats) -> (u64, u64, u64) {
        (
            stats.law_patches,
            stats.law_rebuilds,
            stats.law_fallback_rebuilds,
        )
    }

    /// Applies `from → to` to `config` and to `law`, then refreshes the law
    /// into `stats` — what the sampler does around one event.
    fn apply_and_refresh(
        law: &mut MedianLaw,
        config: &mut Configuration,
        (from, to): (AgentState, AgentState),
        stats: &mut MaintenanceStats,
    ) {
        config.apply_move(from, to).unwrap();
        law.apply_move(from, to, config);
        law.refresh(config, stats);
    }

    #[test]
    fn patched_law_is_bit_identical_to_a_fresh_rebuild() {
        let mut config = Configuration::from_counts(vec![20, 35, 5, 25, 10], 15).unwrap();
        let mut law = MedianLaw::new(&config);
        let mut stats = MaintenanceStats::default();
        law.refresh(&config, &mut stats);
        let p0 = law.null_probability(&config);
        assert!((0.0..=1.0).contains(&p0));
        assert_eq!(tally(&stats), (0, 1, 0));
        let moves = [
            (AgentState::Undecided, d(0)),
            (d(1), d(2)),
            (d(3), d(4)),
            (d(0), d(1)),
            (AgentState::Undecided, d(4)),
            (d(4), d(0)),
        ];
        for &(from, to) in &moves {
            apply_and_refresh(&mut law, &mut config, (from, to), &mut stats);
            let patched = law.null_probability(&config);
            // Law-free reference: same expression over a from-scratch weight.
            let n = config.population() as f64;
            let fresh =
                (1.0 - MedianRule::productive_weight(&config) as f64 / (n * n * n)).clamp(0.0, 1.0);
            assert_eq!(
                patched.to_bits(),
                fresh.to_bits(),
                "patched law not bit-identical after {from} -> {to}"
            );
            assert_eq!(
                (law.below.clone(), law.above.clone()),
                MedianRule::prefix_suffix(&config)
            );
        }
        assert_eq!(
            tally(&stats),
            (moves.len() as u64, 1, 0),
            "every refresh after the first must be a patch"
        );
    }

    #[test]
    fn disabling_incremental_laws_forces_rebuilds_with_identical_values() {
        let c1 = Configuration::from_counts(vec![25, 40, 10, 15], 10).unwrap();
        let mut config = c1.clone();
        let mut law = MedianLaw::new(&config);
        let mut stats = MaintenanceStats::default();
        law.refresh(&config, &mut stats);
        apply_and_refresh(&mut law, &mut config, (d(1), d(3)), &mut stats);
        assert_eq!(tally(&stats), (1, 1, 0));
        let patched = law.null_probability(&config);
        // A fresh thread with patching disabled rebuilds every refresh from
        // scratch; the value must still be bit-identical.
        let rebuilt = std::thread::spawn(move || {
            crate::law_maintenance::set_incremental_laws(false);
            let mut config = c1.clone();
            let mut law = MedianLaw::new(&config);
            let mut stats = MaintenanceStats::default();
            law.refresh(&config, &mut stats);
            apply_and_refresh(&mut law, &mut config, (d(1), d(3)), &mut stats);
            assert_eq!(tally(&stats), (0, 2, 0));
            law.null_probability(&config)
        })
        .join()
        .expect("rebuild thread panicked");
        assert_eq!(patched.to_bits(), rebuilt.to_bits());
    }

    #[test]
    fn median_is_order_dependent_unlike_the_usd() {
        // Relabeling opinions changes the median outcome: a property the USD
        // does not have.  We simply check the median of (0, 4, 2) is 2 while
        // the median of the relabeled triple (4, 0, 2) is still 2 but of
        // (0, 1, 4) is 1 — i.e. the result depends on the order structure.
        assert_eq!(MedianRule::median3(0, 4, 2), 2);
        assert_eq!(MedianRule::median3(0, 1, 4), 1);
    }
}
