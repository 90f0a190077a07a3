//! Oracles for the per-event hot paths of the batched and hybrid engines.
//!
//! * The batched engine's category transition table must equal `respond`
//!   on every category pair, for every shipped protocol.
//! * A responder row with a destination (`row_destinations`) lets the
//!   batched event draw skip resolving the initiator.  On random
//!   configurations and initiator units, in both weight widths, that
//!   destination must be the move the full resolution (`resolve_initiator`)
//!   reads off the table, for the USD at k ∈ {1, 2, 3, 8}; the pairwise
//!   voter at k ≥ 3 never has one.
//! * `HybridEngine::signal` is computed without allocating; it must equal,
//!   bit for bit, the `Vec`-based computation kept here as the reference
//!   (mean-field derivative vectors plus the `pp_analysis::fluctuation`
//!   helpers over the masses with the undecided pool appended).
//! * Inside the controller's minimum-dwell window `evaluate` must return
//!   the current fidelity for any signal — the property that lets the
//!   hybrid engine skip building the signal there.
//! * `geometric_skip` decides small skips by comparing `U` with powers of
//!   `1 − p` before it calls any log; on every input it must return what
//!   `floor(ln U / ln(1−p))` returns and consume the same RNG words, most
//!   of all when `U` sits within a few grid steps of a power.

use k_opinion_usd::analysis::fluctuation::{
    gap_to_absorption, min_drift_noise_ratio, min_live_mass,
};
use k_opinion_usd::core::engine::{
    check_transition_table, geometric_skip, resolve_initiator, row_destinations, transition_table,
};
use k_opinion_usd::core::{
    AgentState, Configuration, FidelityConfig, FidelityController, FidelitySignal, OpinionProtocol,
    SimSeed,
};
use k_opinion_usd::dynamics::PairwiseVoter;
use k_opinion_usd::usd::{HybridEngine, MeanFieldState, UndecidedStateDynamics};
use proptest::prelude::*;
use rand::Rng;

fn assert_table_matches_respond<P: OpinionProtocol>(protocol: &P) {
    let k = protocol.num_opinions();
    let table = transition_table(protocol);
    assert_eq!(table.len(), (k + 1) * (k + 1));
    for r in 0..=k {
        for i in 0..=k {
            let next = protocol.respond(
                AgentState::from_category(r, k),
                AgentState::from_category(i, k),
            );
            assert_eq!(
                table[r * (k + 1) + i] as usize,
                next.category(k),
                "{} at k = {k}: pair ({r}, {i})",
                protocol.name()
            );
        }
    }
    assert_eq!(check_transition_table(protocol, &table), Ok(()));
}

#[test]
fn transition_tables_equal_respond_for_the_shipped_protocols() {
    for k in 1..=8 {
        assert_table_matches_respond(&UndecidedStateDynamics::new(k));
        assert_table_matches_respond(&PairwiseVoter::new(k));
    }
}

#[test]
fn check_transition_table_names_a_tampered_entry() {
    let protocol = UndecidedStateDynamics::new(3);
    let mut table = transition_table(&protocol);
    // Decided(0) meeting Decided(1) goes undecided (category 3), not to 2.
    table[1] = 2;
    let err = check_transition_table(&protocol, &table).unwrap_err();
    assert!(err.contains("(0, 1)"), "{err}");
    assert!(check_transition_table(&protocol, &table[1..]).is_err());
}

#[test]
fn row_destinations_have_the_shapes_of_the_shipped_protocols() {
    for k in 1..=8 {
        let usd = row_destinations(&transition_table(&UndecidedStateDynamics::new(k)));
        let voter = row_destinations(&transition_table(&PairwiseVoter::new(k)));
        // Every decided USD responder that meets another opinion goes ⊥.
        let mut clash = vec![Some(k as u32); k];
        clash.push(None);
        match k {
            // One opinion: no decided pair clashes, and an undecided
            // responder can only adopt opinion 0.
            1 => {
                assert_eq!(usd, [None, Some(0)]);
                assert_eq!(voter, [None, Some(0)]);
            }
            // Two opinions: each decided voter has one opinion to adopt.
            2 => {
                assert_eq!(usd, clash);
                assert_eq!(voter, [Some(1), Some(0), None]);
            }
            _ => {
                assert_eq!(usd, clash, "k = {k}");
                assert!(voter.iter().all(Option::is_none), "k = {k}: {voter:?}");
            }
        }
    }
}

/// The initiator units worth checking below `s`: 0, `s − 1`, eight random
/// ones from `seed`, and every prefix boundary of `productive` ± 1.
fn initiator_units(productive: &[u64], s: u64, seed: u64) -> Vec<u64> {
    let mut units = vec![0, s - 1];
    let mut word = seed;
    for _ in 0..8 {
        word = mix(word);
        units.push(word % s);
    }
    let mut prefix = 0;
    for &c in productive {
        prefix += c;
        units.extend([prefix.saturating_sub(1), prefix, prefix + 1]);
    }
    units.retain(|&u| u < s);
    units
}

/// Checks, for every responder row of the `k`-opinion USD at `config`,
/// that the full resolution picks a productive initiator and, when the row
/// has a destination, that its move is that destination.
fn assert_destinations_match_resolution(k: usize, config: &Configuration, seed: u64) {
    let table = transition_table(&UndecidedStateDynamics::new(k));
    let destinations = row_destinations(&table);
    for (r, row) in table.chunks_exact(k + 1).enumerate() {
        let productive: Vec<u64> = (0..=k)
            .map(|i| {
                if row[i] as usize == r {
                    0
                } else {
                    config.category_count(i)
                }
            })
            .collect();
        let s: u64 = productive.iter().sum();
        if s == 0 || config.category_count(r) == 0 {
            continue;
        }
        for unit in initiator_units(&productive, s, seed ^ r as u64) {
            let initiator = resolve_initiator(&table, config, r, unit);
            let moved = row[initiator];
            assert_ne!(
                moved as usize, r,
                "unit {unit} of row {r} at {config} is unproductive"
            );
            if let Some(destination) = destinations[r] {
                assert_eq!(
                    moved, destination,
                    "row {r} at {config}: unit {unit} resolves initiator {initiator}"
                );
            }
        }
    }
}

/// The detector signal as the hybrid engine computed it before the
/// allocation-free pass: derivative vectors, masses with the undecided pool
/// appended, and the `pp_analysis::fluctuation` reductions over them.
fn reference_signal(config: &Configuration) -> FidelitySignal {
    let n = config.population();
    let d = MeanFieldState::from_configuration(config).derivative();
    let mut masses = config.supports().to_vec();
    masses.push(config.undecided());
    let mut drifts = d.d_fractions;
    drifts.push(d.d_undecided);
    FidelitySignal {
        noise_ratio: min_drift_noise_ratio(n, &masses, &drifts),
        min_live_mass: min_live_mass(&masses),
        gap_to_absorption: gap_to_absorption(n, config.supports()),
        population: n,
    }
}

fn assert_signal_matches_reference(supports: Vec<u64>, undecided: u64) {
    let config = Configuration::from_counts(supports, undecided).unwrap();
    let expected = reference_signal(&config);
    let engine = HybridEngine::new(
        config.clone(),
        SimSeed::from_u64(1),
        FidelityConfig::default(),
    );
    let observed = engine.signal();
    assert_eq!(
        observed.noise_ratio.to_bits(),
        expected.noise_ratio.to_bits(),
        "noise ratio at {config}: {} vs {}",
        observed.noise_ratio,
        expected.noise_ratio
    );
    assert_eq!(observed.min_live_mass, expected.min_live_mass, "{config}");
    assert_eq!(
        observed.gap_to_absorption, expected.gap_to_absorption,
        "{config}"
    );
    assert_eq!(observed.population, expected.population, "{config}");
}

#[test]
fn signal_matches_the_reference_at_the_edges() {
    // All undecided (every support extinct), u = 0, consensus, consensus
    // with undecided agents left, a single opinion, and n = 10⁹.
    assert_signal_matches_reference(vec![0, 0, 0], 1_000);
    assert_signal_matches_reference(vec![600, 300, 100], 0);
    assert_signal_matches_reference(vec![0, 5_000, 0], 0);
    assert_signal_matches_reference(vec![0, 4_000, 0], 1_000);
    assert_signal_matches_reference(vec![7], 3);
    assert_signal_matches_reference(vec![400_000_000, 350_000_000, 0, 150_000_000], 100_000_000);
    assert_signal_matches_reference(vec![1_000_000_000, 0], 0);
}

/// Magnitudes spread over many decades, with a one-in-four chance of an
/// extinct category.
fn count(raw: u64, decades: u32, extinct: u8) -> u64 {
    if extinct == 0 {
        0
    } else {
        raw % 10u64.pow(decades)
    }
}

/// An RNG that returns one chosen word and counts how often it was asked.
struct Words {
    word: u64,
    drawn: u32,
}

impl Rng for Words {
    fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        self.word
    }
}

/// `geometric_skip` as it was before the log-free path: the reference.
fn reference_skip(rng: &mut Words, p: f64, max_skip: u64) -> Option<u64> {
    if p >= 1.0 {
        return Some(0);
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let skip = u.ln() / (-p).ln_1p();
    if !skip.is_finite() || skip >= max_skip as f64 {
        None
    } else {
        Some(skip as u64)
    }
}

/// Runs both on one word; `Err` describes a mismatch in value or in RNG
/// words consumed.
fn compare_skip(word: u64, p: f64, max_skip: u64) -> Result<(), String> {
    let (mut fast, mut slow) = (Words { word, drawn: 0 }, Words { word, drawn: 0 });
    let observed = geometric_skip(&mut fast, p, max_skip);
    let expected = reference_skip(&mut slow, p, max_skip);
    if observed == expected && fast.drawn == slow.drawn {
        Ok(())
    } else {
        Err(format!(
            "word {word:#x}, p = {p:e}, max_skip = {max_skip}: {observed:?} ({} words) vs {expected:?} ({} words)",
            fast.drawn, slow.drawn
        ))
    }
}

/// The word whose uniform is `offset` grid steps (`2⁻⁵³`) from `target` in
/// `(0, 1]`; `low` fills the 11 bits the uniform ignores.
fn word_near(target: f64, offset: i64, low: u64) -> u64 {
    const GRID: f64 = (1u64 << 53) as f64;
    let unit = ((target * GRID).round() as i64)
        .saturating_add(offset)
        .clamp(0, (1 << 53) - 1);
    ((unit as u64) << 11) | (low & 0x7ff)
}

/// `(1 − p)^j` two ways, both within a few ulps of the exact boundary
/// `ln U / ln(1−p) = j`: the computed power and `exp(j · ln(1−p))`.
fn boundary(p: f64, j: u64, via_exp: bool) -> f64 {
    if via_exp {
        ((-p).ln_1p() * j as f64).exp()
    } else {
        (1.0 - p).powi(j as i32)
    }
}

/// `max_skip` values: every small limit, a random one and no limit.
fn max_skip_variant(index: u64, random: u64) -> u64 {
    match index % 12 {
        10 => random,
        11 => u64::MAX,
        small => small,
    }
}

/// Event probabilities: log-uniform in `[10⁻¹⁸, 1)`, `1 − 10⁻ˣ` for
/// `x ∈ (0, 16]`, or `≥ 1`, picked by `kind` from a uniform `x ∈ [0, 1)`.
fn probability(kind: u64, x: f64) -> f64 {
    match kind % 3 {
        0 => 10f64.powf(-18.0 * x),
        1 => 1.0 - 10f64.powf(-16.0 * (1.0 - x)),
        _ => [1.0, 1.0 + f64::EPSILON, 2.0, f64::INFINITY][(x * 4.0) as usize],
    }
}

/// SplitMix64's output function: deterministic pseudo-random sweep inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn geometric_skip_equals_the_log_formula_on_boundary_words() {
    let mut cases = 0u64;
    let mut mismatches = Vec::new();
    let mut check = |word: u64, p: f64, max_skip: u64| {
        cases += 1;
        if let Err(e) = compare_skip(word, p, max_skip) {
            mismatches.push(e);
        }
    };
    for i in 0..12_000u64 {
        let r = mix(i);
        let x = (mix(r) >> 11) as f64 / (1u64 << 53) as f64;
        // Mostly log-uniform p, a sixth near 1, a few ≥ 1.
        let kind = match i % 60 {
            0 => 2,
            1..=10 => 1,
            _ => 0,
        };
        let p = probability(kind, x);
        for j in 1..=9u64 {
            for slot in 0..10u64 {
                let s = mix(r ^ (j << 40) ^ (slot << 48));
                let word = if slot == 9 {
                    s
                } else {
                    word_near(boundary(p, j, s & 1 == 1), slot as i64 - 4, s >> 1)
                };
                check(word, p, max_skip_variant(s >> 20, mix(s)));
            }
        }
    }
    // The extreme words: `U = MIN_POSITIVE` and `U = 1 − 2⁻⁵³`.  Release
    // builds also take the probabilities the debug precondition `p > 0`
    // rejects.
    let invalid: &[f64] = if cfg!(debug_assertions) {
        &[]
    } else {
        &[f64::NAN, 0.0, -0.5, f64::NEG_INFINITY]
    };
    for &p in [1e-18, 1e-9, 0.25, 0.5, 1.0 - 1e-16].iter().chain(invalid) {
        for max_skip in [0, 1, 8, u64::MAX] {
            check(0, p, max_skip);
            check(u64::MAX, p, max_skip);
        }
    }
    assert!(cases >= 1_000_000, "{cases} cases");
    assert!(
        mismatches.is_empty(),
        "{} of {cases} cases differ, first: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn geometric_skip_equals_the_log_formula(
        (kind, x) in (0u64..3, 0f64..1.0),
        (j, offset, low) in (1u64..10, 0u64..9, 0u64..2048),
        (limit, random) in (0u64..12, 0u64..u64::MAX),
    ) {
        let p = probability(kind, x);
        let word = word_near(boundary(p, j, low & 1 == 1), offset as i64 - 4, low);
        let checked = compare_skip(word, p, max_skip_variant(limit, random));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_destinations_equal_the_full_initiator_resolution(
        k_index in 0usize..4,
        counts in proptest::collection::vec((0u64..u64::MAX, 1u32..11, 0u8..4), 9..10),
        wide in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let k = [1, 2, 3, 8][k_index];
        let wide = wide == 1;
        // Narrow: every count below (2³² − 1)/9, so n fits the u64 table;
        // wide: at least 2³² undecided agents, so n needs the u128 table.
        let cap = if wide { 10_000_000_000 } else { u64::from(u32::MAX) / 9 };
        let mut counts: Vec<u64> = counts
            .into_iter()
            .map(|(raw, decades, extinct)| count(raw, decades, extinct) % cap)
            .collect();
        if wide {
            counts[k] += 1 << 32;
        }
        prop_assume!(counts[..=k].iter().sum::<u64>() > 0);
        let config = Configuration::from_counts(counts[..k].to_vec(), counts[k]).unwrap();
        prop_assert_eq!(config.population() > u64::from(u32::MAX), wide);
        assert_destinations_match_resolution(k, &config, seed);
    }

    #[test]
    fn signal_is_bit_identical_to_the_vec_based_reference(
        supports in proptest::collection::vec((0u64..111_111_111, 1u32..10, 0u8..4), 1..9),
        undecided in (0u64..111_111_111, 1u32..10, 0u8..4),
    ) {
        let supports: Vec<u64> = supports.into_iter().map(|(r, d, e)| count(r, d, e)).collect();
        let undecided = count(undecided.0, undecided.1, undecided.2);
        prop_assume!(supports.iter().sum::<u64>() + undecided > 0);
        assert_signal_matches_reference(supports, undecided);
    }

    #[test]
    fn evaluate_holds_the_current_fidelity_while_dwelling(
        dwell in 0u64..5_000,
        population in 1u64..1_000_000,
        steps in proptest::collection::vec((0f64..20.0, 0u64..2_000_000, 0u64..2_000_000, 0u64..3_000), 1..40),
    ) {
        let mut ctl = FidelityController::new(FidelityConfig {
            min_dwell: dwell,
            ..FidelityConfig::default()
        });
        let mut interactions = 0u64;
        for (ratio, mass, gap, elapsed) in steps {
            interactions += elapsed;
            let signal = FidelitySignal {
                noise_ratio: ratio,
                min_live_mass: mass,
                gap_to_absorption: gap,
                population,
            };
            if ctl.switches() == 0 {
                prop_assert!(!ctl.dwelling(interactions, population));
            }
            if ctl.dwelling(interactions, population) {
                let before = ctl.clone();
                let current = ctl.current();
                prop_assert_eq!(ctl.evaluate(&signal, interactions), current);
                prop_assert_eq!(&ctl, &before);
            } else {
                ctl.evaluate(&signal, interactions);
            }
        }
    }
}
