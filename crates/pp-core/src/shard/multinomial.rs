//! Count allocation for the sharded engine: binomial and multinomial
//! sampling, and deterministic proportional splits of a count vector.
//!
//! The reconciliation scheduler needs two primitives:
//!
//! * a **multinomial draw** allocating the epoch's interactions to shard
//!   pairs proportionally to their population products (built from a chain
//!   of conditional binomials, so the total is conserved *exactly* by
//!   construction), and
//! * a **proportional split** of a global count vector into per-shard count
//!   vectors with prescribed shard populations (used for the initial split
//!   and the optional re-balancing step; split followed by merge is the
//!   identity on the global counts).

use crate::config::Configuration;
use rand::Rng;

/// Below this expected count the binomial sampler counts successes exactly by
/// geometric failure-skipping (`O(np)` expected work); above it the normal
/// approximation is used, making an epoch's allocation cost independent of
/// the epoch length.
const BINOMIAL_EXACT_THRESHOLD: f64 = 64.0;

/// Draws a standard normal variate via Box–Muller (the vendored `rand` has no
/// distribution module).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Counts the successes among `n` Bernoulli(`p`) trials by skipping runs of
/// failures geometrically; exact in distribution, `O(np)` expected work.
fn binomial_by_skipping<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let mut successes = 0u64;
    let mut position = 0u64;
    let log_q = (-p).ln_1p();
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = u.ln() / log_q;
        if !skip.is_finite() || skip >= (n - position) as f64 {
            return successes;
        }
        position += skip as u64 + 1;
        successes += 1;
        if position >= n {
            return successes;
        }
    }
}

/// Samples `Binomial(n, p)`.
///
/// Small expected counts (either tail below `BINOMIAL_EXACT_THRESHOLD`)
/// are sampled exactly; larger ones use the normal approximation with
/// continuity correction, whose relative error at that scale is far below
/// the sharded engine's documented epoch-freezing bias.  The result is
/// always in `[0, n]`.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work on the smaller tail so the skipping path stays cheap.
    if p > 0.5 {
        return n - sample_binomial(rng, n, 1.0 - p);
    }
    let mean = n as f64 * p;
    if mean < BINOMIAL_EXACT_THRESHOLD {
        return binomial_by_skipping(rng, n, p);
    }
    let sd = (mean * (1.0 - p)).sqrt();
    let draw = (mean + sd * standard_normal(rng) + 0.5).floor();
    if draw <= 0.0 {
        0
    } else if draw >= n as f64 {
        n
    } else {
        draw as u64
    }
}

/// Samples a multinomial allocation of `total` trials to cells with the given
/// (possibly zero) weights, via the conditional-binomial chain.  The returned
/// counts sum to `total` exactly; cells with zero weight receive zero.
///
/// # Panics
///
/// Panics if every weight is zero while `total > 0`.
pub fn sample_multinomial<R: Rng + ?Sized>(rng: &mut R, total: u64, weights: &[u128]) -> Vec<u64> {
    let mut counts = vec![0u64; weights.len()];
    if total == 0 {
        return counts;
    }
    let mut weight_left: u128 = weights.iter().sum();
    assert!(weight_left > 0, "multinomial needs a positive total weight");
    let mut trials_left = total;
    for (cell, &w) in weights.iter().enumerate() {
        if trials_left == 0 {
            break;
        }
        if w == 0 {
            continue;
        }
        if w == weight_left {
            // Last non-empty cell: everything remaining lands here.
            counts[cell] = trials_left;
            trials_left = 0;
            break;
        }
        let p = w as f64 / weight_left as f64;
        let x = sample_binomial(rng, trials_left, p).min(trials_left);
        counts[cell] = x;
        trials_left -= x;
        weight_left -= w;
    }
    // Conservation is structural: the last non-empty cell always satisfies
    // `w == weight_left` and absorbs every remaining trial.
    debug_assert_eq!(trials_left, 0, "conditional-binomial chain leaked trials");
    counts
}

/// Splits `n` into `shards` populations as evenly as possible (remainder to
/// the lowest-indexed shards), every shard non-empty.
///
/// # Panics
///
/// Panics if `shards == 0` or `shards` exceeds `n`.
#[must_use]
pub fn shard_populations(n: u64, shards: usize) -> Vec<u64> {
    assert!(shards >= 1, "need at least one shard");
    assert!(
        shards as u64 <= n,
        "cannot split {n} agents into {shards} non-empty shards"
    );
    let base = n / shards as u64;
    let rem = (n % shards as u64) as usize;
    (0..shards)
        .map(|s| if s < rem { base + 1 } else { base })
        .collect()
}

/// Splits a configuration into per-shard configurations with the given
/// populations, allocating each category's count proportionally
/// (largest-remainder rounding) and repairing the rounding so every shard
/// hits its exact population.  Deterministic; merging the shards back
/// reproduces the input counts exactly.
///
/// Shard labels are exchangeable under the uniform pair scheduler, so *any*
/// assignment of agents to shards induces the same merged trajectory law;
/// the proportional split additionally keeps every shard's composition close
/// to the global mix.
///
/// # Panics
///
/// Panics if the shard populations do not sum to the configuration's
/// population or if any shard is empty.
#[must_use]
pub fn split_configuration(config: &Configuration, populations: &[u64]) -> Vec<Configuration> {
    let n = config.population();
    assert_eq!(
        populations.iter().sum::<u64>(),
        n,
        "shard populations must sum to the population"
    );
    assert!(
        populations.iter().all(|&p| p > 0),
        "every shard must own at least one agent"
    );
    let shards = populations.len();
    let k = config.num_opinions();

    // Per-category largest-remainder allocation over shards.
    let mut alloc = vec![vec![0u64; k + 1]; shards];
    // `alloc` is indexed `[shard][category]`, so the category loop cannot
    // enumerate it directly.
    #[allow(clippy::needless_range_loop)]
    for cat in 0..=k {
        let c = config.category_count(cat);
        if c == 0 {
            continue;
        }
        let mut assigned = 0u64;
        let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(shards);
        for (s, &pop) in populations.iter().enumerate() {
            let exact = c as u128 * pop as u128;
            let floor = (exact / n as u128) as u64;
            alloc[s][cat] = floor;
            assigned += floor;
            remainders.push((exact % n as u128, s));
        }
        // Largest remainders first; ties broken by shard index for
        // determinism.
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, s) in remainders.iter().take((c - assigned) as usize) {
            alloc[s][cat] += 1;
        }
    }

    // The per-category rounding need not respect the column sums; repair by
    // moving single agents from over-full to under-full shards (category
    // totals are preserved because every move stays within one category).
    let column_sum = |alloc: &Vec<Vec<u64>>, s: usize| alloc[s].iter().sum::<u64>();
    while let Some(over) = (0..shards).find(|&s| column_sum(&alloc, s) > populations[s]) {
        let under = (0..shards)
            .find(|&s| column_sum(&alloc, s) < populations[s])
            .expect("total conservation guarantees a matching under-full shard");
        let cat = (0..=k)
            .find(|&cat| alloc[over][cat] > 0)
            .expect("an over-full shard holds at least one agent");
        alloc[over][cat] -= 1;
        alloc[under][cat] += 1;
    }

    alloc
        .into_iter()
        .map(|mut counts| {
            let undecided = counts.pop().expect("category vector is non-empty");
            Configuration::from_counts(counts, undecided)
                .expect("split shards are non-empty by construction")
        })
        .collect()
}

/// Merges per-shard configurations back into the global count vector.
///
/// # Panics
///
/// Panics if `shards` is empty or the shards disagree on the number of
/// opinions.
#[must_use]
pub fn merge_configurations(shards: &[Configuration]) -> Configuration {
    let first = shards.first().expect("cannot merge zero shards");
    let k = first.num_opinions();
    let mut counts = vec![0u64; k];
    let mut undecided = 0u64;
    for shard in shards {
        assert_eq!(shard.num_opinions(), k, "shards disagree on k");
        for (i, count) in counts.iter_mut().enumerate() {
            *count += shard.support(i);
        }
        undecided += shard.undecided();
    }
    Configuration::from_counts(counts, undecided).expect("merged population is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimSeed;

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SimSeed::from_u64(1).rng();
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
        for _ in 0..100 {
            assert!(sample_binomial(&mut rng, 10, 0.3) <= 10);
        }
    }

    #[test]
    fn binomial_mean_is_right_on_both_paths() {
        let mut rng = SimSeed::from_u64(2).rng();
        // Exact (skipping) path: np = 5.
        let trials = 20_000;
        let sum: u64 = (0..trials)
            .map(|_| sample_binomial(&mut rng, 50, 0.1))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.1, "skipping-path mean {mean}");
        // Normal-approximation path: np = 5000.
        let sum: u64 = (0..trials)
            .map(|_| sample_binomial(&mut rng, 10_000, 0.5))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 5_000.0).abs() < 5.0, "normal-path mean {mean}");
    }

    #[test]
    fn multinomial_conserves_the_total_exactly() {
        let mut rng = SimSeed::from_u64(3).rng();
        for total in [0u64, 1, 17, 1_000, 123_456] {
            let counts = sample_multinomial(&mut rng, total, &[3, 0, 5, 1, 0, 11]);
            assert_eq!(counts.iter().sum::<u64>(), total);
            assert_eq!(counts[1], 0);
            assert_eq!(counts[4], 0);
        }
    }

    #[test]
    fn multinomial_proportions_match_the_weights() {
        let mut rng = SimSeed::from_u64(4).rng();
        let counts = sample_multinomial(&mut rng, 1_000_000, &[1, 1, 2]);
        assert!((counts[0] as f64 / 250_000.0 - 1.0).abs() < 0.02);
        assert!((counts[2] as f64 / 500_000.0 - 1.0).abs() < 0.02);
    }

    #[test]
    fn shard_populations_are_balanced_and_exact() {
        assert_eq!(shard_populations(10, 3), vec![4, 3, 3]);
        assert_eq!(shard_populations(4, 4), vec![1, 1, 1, 1]);
        assert_eq!(shard_populations(7, 1), vec![7]);
    }

    #[test]
    fn split_then_merge_is_identity() {
        let config = Configuration::from_counts(vec![101, 7, 0, 55], 13).unwrap();
        let pops = shard_populations(config.population(), 5);
        let shards = split_configuration(&config, &pops);
        for (shard, &pop) in shards.iter().zip(&pops) {
            assert_eq!(shard.population(), pop);
            assert!(shard.is_consistent());
        }
        assert_eq!(merge_configurations(&shards), config);
    }

    #[test]
    fn split_handles_skewed_counts() {
        // One category holds almost everything; the repair loop must still
        // land every shard on its exact population.
        let config = Configuration::from_counts(vec![997, 1, 1], 1).unwrap();
        let pops = shard_populations(1_000, 7);
        let shards = split_configuration(&config, &pops);
        for (shard, &pop) in shards.iter().zip(&pops) {
            assert_eq!(shard.population(), pop);
        }
        assert_eq!(merge_configurations(&shards), config);
    }

    #[test]
    #[should_panic(expected = "non-empty shards")]
    fn more_shards_than_agents_are_rejected() {
        let _ = shard_populations(3, 4);
    }
}
