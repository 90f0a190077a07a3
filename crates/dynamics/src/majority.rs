//! The 3-Majority and general j-Majority dynamics.
//!
//! # Closed-form conditional sampling
//!
//! The skip-ahead hooks ([`SamplingDynamics::null_activation_probability`] /
//! [`SamplingDynamics::sample_productive_move`]) need the exact law of one
//! activation.  The key observation is that the adopted opinion — when any is
//! adopted — depends only on the *samples*, never on the activated agent:
//! with `q_o = P(opinion o wins the j-sample majority with uniform
//! tie-break)` and `π_c` the category fractions,
//!
//! * an activation is null iff every sample is undecided (`π_⊥^j`) or the
//!   winning opinion equals the activated agent's own
//!   (`Σ_o π_o·q_o`), and
//! * the productive `(current, adopted)` pairs factorize: the pair `(s, o)`
//!   with `s ≠ o` has weight `c_s · q_o`, so the conditional event draw is
//!   "adopted opinion `o` proportional to `q_o·(n − c_o)`, then activated
//!   category proportional to counts excluding `o`" — `O(k)` on top of the
//!   `q` computation, no rejection loop.
//!
//! # The exact integer adoption law and its delta maintenance
//!
//! The adoption law is computed as an **exact integer**: with `L = lcm(1..k)`
//! clearing every `1/(1 + T)` tie share, `Q_o = L·n^j·q_o ∈ ℕ` decomposes
//! over the candidate's sample count `t = m_o` as
//!
//! ```text
//! Q_o = Σ_{t=1..j} C(j,t) · c_o^t · N_{o,t}
//! N_{o,t} = Σ_{assignments of the j−t other samples, all rival counts ≤ t}
//!             multinomial · Π_i c_i^{m_i} · L/(1 + #{rivals tied at t})
//! ```
//!
//! `N_{o,t}` is built by *convolving one factor per other category* into a
//! table `D[s][T]` (samples assigned so far × rivals tied at `t`): category
//! `i` with count `c` maps `D[s][T] += D[s−m][T−[m=t]]·C(s,m)·c^m` for
//! `m ≤ t` (rival counts above `t` are pruned; the undecided factor is
//! uncapped and never ties).  The factor operators commute, have unit
//! constant term, and are therefore **exactly invertible** by ascending-`s`
//! back-substitution — which is the delta rule the maintained law uses:
//!
//! * a `±1` change of one count *deconvolves* that category's old factor
//!   and convolves the new one, an `O(k·j³)` patch instead of the
//!   `O(k²·j³)`-per-candidate full rebuild (one factor touched instead of
//!   `k`, for each of the `k·j` maintained `(o, t)` tables);
//! * every maintained weight is an integer, so a patched law is
//!   **bit-identical** to a freshly built one — the invariant the sampled
//!   debug cross-check (and every refresh under the `exhaustive-checks`
//!   feature) asserts by rebuilding and comparing tables;
//! * all values are bounded by `L·(2n)^j`, checked up front: when that
//!   exceeds `u128` (e.g. `j = 7` at `n = 10⁶`) the law falls back to the
//!   float dynamic program over conditional binomials, rebuilt from the
//!   counts on every change (no patching — float deconvolution would not
//!   round-trip bit-identically).
//!
//! Patches and rebuilds are counted into the sampler's
//! `pp_core::MaintenanceStats` (see [`crate::law_maintenance`]).
//!
//! # The closed form for `j ≤ 3`
//!
//! For at most three samples the tables above collapse into a handful of
//! aggregates, so the same integers `Q_o` are computed in `O(k)` per refresh
//! with no tables at all.  Write `u` for the undecided count, `M = Σ c_i`,
//! `S2 = Σ c_i²`, and for the candidate `o` with `c = c_o` let `R = M − c`
//! (the rival mass) and `E = R² − (S2 − c²) = Σ_{i≠i'} c_i·c_i'` (ordered
//! pairs of distinct rivals).  The only table row `Q_o` reads is `D[j−t][·]`,
//! the `j − t` non-candidate samples split by how many rivals tie at `t`:
//!
//! * `t = j`: no samples are left, so the row is the unit `D[0][0] = 1` and
//!   `N_{o,j} = L`;
//! * `t = j − 1 ≥ 1`: one sample is left, drawn from any of the `n − c`
//!   other agents.  A rival ties only when `t = 1` (`j = 2`), so
//!   `N_{o,2} = (n − c)·L` for `j = 3` and `N_{o,1} = u·L + R·(L/2)` for
//!   `j = 2`;
//! * `t = 1`, `j = 3`: two samples are left, every rival capped at one of
//!   them — both undecided (`u²`, no tie), one undecided and one rival
//!   (`2uR`, one tie), or two distinct rivals (`E`, two ties):
//!   `N_{o,1} = u²·L + 2uR·(L/2) + E·(L/3)`.
//!
//! Hence, with `C(j, t)` in front of each `c^t·N_{o,t}`,
//!
//! ```text
//! j = 3:  Q_o = 3c·N_{o,1} + 3c²·(n − c)·L + c³·L
//! j = 2:  Q_o = 2c·(u·L + R·(L/2)) + c²·L
//! j = 1:  Q_o = c·L
//! ```
//!
//! Each row entry is the same exact count of weighted sample sequences the
//! convolution accumulates, and each `L/(1 + T)` is the same integer
//! division the table read-out performs, so the closed form and
//! `AdoptionDp` agree as integers — not approximately — and the final
//! `Q_o / (L·n^j)` conversion is bit-identical.  (`E = 0` for `k ≤ 2`,
//! where `L/3` would be `0` anyway.)  The closed form serves every
//! refresh under the headroom gate while incremental laws are enabled:
//! a run's first refresh is counted as a rebuild, the rest as patches.
//! With incremental laws disabled the dynamic program is rebuilt instead,
//! which is what lets the law-twin equivalence suites pin the closed form
//! against the DP trajectory for trajectory; the sampled debug cross-check
//! (every refresh under `exhaustive-checks`) compares its integers to a
//! fresh DP.
//!
//! # The law lives in the sampler
//!
//! Both skip-ahead hooks consume the same adoption law, and `k`, `j` and
//! `n` are fixed for a run.  So the sequential sampler owns one
//! `MajorityLaw` per run (through
//! [`SamplingDynamics::activation_law`]): `L`, the headroom verdict and
//! the `L·n^j` denominator are computed once at construction, `M`, `S2`
//! and `u` follow each applied move in `O(1)`, and the law `q` is
//! refreshed once per event — closed form, table patch or rebuild — and
//! read by both the null probability and the event draw.  The closed form
//! computes in `u64` while `L·(2n)^j` stays below `2⁶¹` and in `u128`
//! above: the same integers either way.  The stateless hooks build a cold
//! law from the counts through the same code.
//! `JMajority` itself stays a plain `Copy + Send + Sync` value.

use crate::law_maintenance::{self, ActivationLaw, LawKind};
use crate::sampling::SamplingDynamics;
use pp_core::engine::uniform_u128_below;
use pp_core::{AgentState, Configuration, MaintenanceStats};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// `P(Binomial(n, p) = c)`, evaluated directly (exact for the tiny `n ≤ j`
/// this module needs).
fn binomial_pmf(n: usize, c: usize, p: f64) -> f64 {
    if p <= 0.0 {
        return if c == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if c == n { 1.0 } else { 0.0 };
    }
    let mut coeff = 1.0f64;
    for i in 0..c {
        coeff *= (n - i) as f64 / (i + 1) as f64;
    }
    #[allow(clippy::cast_possible_wrap)]
    {
        coeff * p.powi(c as i32) * (1.0 - p).powi((n - c) as i32)
    }
}

/// `lcm(1..=k)`, or `None` on `u128` overflow (astronomical `k` only).
fn lcm_up_to(k: usize) -> Option<u128> {
    fn gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let mut l: u128 = 1;
    for i in 2..=k as u128 {
        l = l.checked_mul(i / gcd(l, i))?;
    }
    Some(l)
}

/// `bits(L) + j·bits(2n + 1)`: a bound on the bit length of `L·(2n)^j`,
/// which bounds every integer the adoption law manipulates.
fn law_bits(tie_lcm: u128, j: usize, n: u64) -> Option<u32> {
    let l_bits = 128 - tie_lcm.leading_zeros();
    let n_bits = 128 - (2 * u128::from(n) + 1).leading_zeros();
    u32::try_from(j)
        .ok()?
        .checked_mul(n_bits)?
        .checked_add(l_bits)
}

/// The `lcm(1..=k)` tie clearer when every integer the adoption law
/// manipulates fits comfortably in `u128`, `None` otherwise (the caller
/// then uses the float dynamic program).
fn integer_law_headroom(k: usize, j: usize, n: u64) -> Option<u128> {
    let l = lcm_up_to(k)?;
    (law_bits(l, j, n)? < 126).then_some(l)
}

/// One category's factor in a tie-tracking convolution: its count `c`, the
/// per-draw cap on how many of the `j − t` remaining samples it may absorb,
/// and the sample count at which it ties the candidate (opinions tie at
/// exactly `t` draws; the undecided state never ties).
#[derive(Debug, Clone, Copy)]
struct CategoryFactor {
    count: u64,
    cap: usize,
    tie: Option<usize>,
}

/// Convolves one category factor into a tie-tracking table `D[s][T]`
/// (row-major, `width` tie buckets): `D[s][T] += Σ_{m=1..cap}
/// D[s−m][T−[m=tie]]·C(s,m)·c^m`.  Descending `s` makes the update in-place
/// (`D[s]` only reads strictly smaller `s`).  With `INVERT` the factor is
/// removed instead, by ascending-`s` back-substitution (the factor has unit
/// constant term, so `old[s][T] = new[s][T] − Σ_{m≥1} old[s−m][…]·C(s,m)·c^m`
/// with the already-recovered smaller-`s` rows).  Integer-exact: convolving
/// a factor in and back out is the identity, bit for bit.
fn convolve_factor<const INVERT: bool>(
    table: &mut [u128],
    binom: &[u128],
    stride: usize,
    width: usize,
    s_max: usize,
    factor: CategoryFactor,
) {
    let c = u128::from(factor.count);
    if c == 0 {
        return;
    }
    for i in 0..s_max {
        let s = if INVERT { i + 1 } else { s_max - i };
        for t_cur in 0..width {
            let mut sum = 0u128;
            let mut c_pow = 1u128;
            for m in 1..=s.min(factor.cap) {
                c_pow *= c;
                let t_src = match factor.tie {
                    Some(t) if m == t => {
                        if t_cur == 0 {
                            continue;
                        }
                        t_cur - 1
                    }
                    _ => t_cur,
                };
                sum += table[(s - m) * width + t_src] * binom[s * stride + m] * c_pow;
            }
            let cell = &mut table[s * width + t_cur];
            *cell = if INVERT { *cell - sum } else { *cell + sum };
        }
    }
}

/// The maintained integer adoption law: one tie-tracking convolution table
/// per `(candidate opinion o, candidate count t)` over the other categories,
/// plus the count snapshot the tables currently reflect (module docs).
#[derive(Debug, Clone, PartialEq)]
struct AdoptionDp {
    opinions: usize,
    samples: usize,
    /// `lcm(1..=k)`, clearing every `1/(1 + T)` tie share.
    tie_lcm: u128,
    /// Pascal's triangle `C(s, m)` for `s, m ≤ j`, row-major stride `j + 1`.
    binom: Vec<u128>,
    /// Counts the tables reflect: supports `0..k`, then `⊥` at index `k`.
    counts: Vec<u64>,
    /// `k·j` tables of `(j+1)·k` cells each, laid out `[o][t−1][s][T]`.
    tables: Vec<u128>,
}

impl AdoptionDp {
    /// Builds the tables from scratch for `config`, or `None` when the
    /// `L·(2n)^j` bound does not fit `u128`.
    #[cfg(any(test, debug_assertions, feature = "exhaustive-checks"))]
    fn build(dynamics: &JMajority, config: &Configuration) -> Option<AdoptionDp> {
        let tie_lcm =
            integer_law_headroom(dynamics.opinions, dynamics.samples, config.population())?;
        Some(AdoptionDp::new(dynamics, config, tie_lcm))
    }

    /// Builds the tables from scratch for `config` with the tie clearer
    /// `L` the headroom gate admitted.
    fn new(dynamics: &JMajority, config: &Configuration, tie_lcm: u128) -> AdoptionDp {
        let k = dynamics.opinions;
        let j = dynamics.samples;
        let stride = j + 1;
        let mut binom = vec![0u128; stride * stride];
        for s in 0..=j {
            binom[s * stride] = 1;
            for m in 1..=s {
                binom[s * stride + m] =
                    binom[(s - 1) * stride + m - 1] + binom[(s - 1) * stride + m];
            }
        }
        let mut counts = Vec::with_capacity(k + 1);
        counts.extend_from_slice(config.supports());
        counts.push(config.undecided());
        let cells = (j + 1) * k;
        let mut dp = AdoptionDp {
            opinions: k,
            samples: j,
            tie_lcm,
            binom,
            counts,
            tables: vec![0u128; k * j * cells],
        };
        // Every `(o, t)` table is the product of all `k + 1` factors with
        // the candidate's own taken out, so per `t` the full product is
        // convolved once and each candidate removed from a copy — exact, as
        // in a patch, and `O(k)` convolutions per `t` instead of `O(k²)`.
        // (The full product's bucket of `k` ties is dropped: no bucket
        // below it reads it, either way.)
        let mut all = vec![0u128; cells];
        for t in 1..=j {
            all.fill(0);
            all[0] = 1;
            for i in 0..=k {
                let factor = dp.factor(i, t, dp.counts[i]);
                convolve_factor::<false>(&mut all, &dp.binom, j + 1, k, j - t, factor);
            }
            for o in 0..k {
                let (factor, range) = (dp.factor(o, t, dp.counts[o]), dp.table_range(o, t));
                let table = &mut dp.tables[range];
                table.copy_from_slice(&all);
                convolve_factor::<true>(table, &dp.binom, j + 1, k, j - t, factor);
            }
        }
        dp
    }

    /// Category `i`'s factor in the `t` tables at count `count`: an opinion
    /// may take at most `t` samples and ties at `t`, the undecided state is
    /// uncapped and never ties.
    fn factor(&self, i: usize, t: usize, count: u64) -> CategoryFactor {
        let (cap, tie) = if i == self.opinions {
            (self.samples, None)
        } else {
            (t, Some(t))
        };
        CategoryFactor { count, cap, tie }
    }

    /// The `(o, t)` table's cell range in the flat `tables` vector.
    fn table_range(&self, o: usize, t: usize) -> std::ops::Range<usize> {
        let cells = (self.samples + 1) * self.opinions;
        let start = (o * self.samples + (t - 1)) * cells;
        start..start + cells
    }

    /// Replays the count delta between the maintained snapshot and `config`
    /// onto every affected table: per changed category, deconvolve its old
    /// factor and convolve the new one (module docs).  Bit-identical to
    /// [`AdoptionDp::build`] at the new counts.
    fn patch(&mut self, config: &Configuration) {
        let (k, j) = (self.opinions, self.samples);
        for i in 0..=k {
            let old = self.counts[i];
            let new = config.category_count(i);
            if old == new {
                continue;
            }
            for o in 0..k {
                if o == i {
                    // c_o only enters through the outer `c_o^t` weights.
                    continue;
                }
                for t in 1..=j {
                    let (old, new) = (self.factor(i, t, old), self.factor(i, t, new));
                    let range = self.table_range(o, t);
                    let table = &mut self.tables[range];
                    convolve_factor::<true>(table, &self.binom, j + 1, k, j - t, old);
                    convolve_factor::<false>(table, &self.binom, j + 1, k, j - t, new);
                }
            }
            self.counts[i] = new;
        }
    }

    /// The integer adoption weight `Q_o = L·n^j·q_o` from the maintained
    /// tables (module docs).
    fn adoption_integer(&self, o: usize) -> u128 {
        let (k, j) = (self.opinions, self.samples);
        let c_o = u128::from(self.counts[o]);
        if c_o == 0 {
            return 0;
        }
        let mut big_q = 0u128;
        let mut c_pow = 1u128;
        for t in 1..=j {
            c_pow *= c_o;
            let range = self.table_range(o, t);
            let row = &self.tables[range][(j - t) * k..(j - t) * k + k];
            let mut n_ot = 0u128;
            for (ties, &w) in row.iter().enumerate() {
                n_ot += w * (self.tie_lcm / (ties as u128 + 1));
            }
            big_q += self.binom[j * (j + 1) + t] * c_pow * n_ot;
        }
        big_q
    }

    /// Writes the adoption law `q_o = Q_o / denominator` from the
    /// maintained tables into `q`, with `denominator = L·n^j`.  Pure integer
    /// arithmetic up to the final (correctly rounded) `f64` conversions, so
    /// patched and rebuilt tables give bit-equal vectors.
    fn fill_law(&self, denominator: f64, q: &mut Vec<f64>) {
        q.clear();
        q.extend((0..self.opinions).map(|o| self.adoption_integer(o) as f64 / denominator));
    }

    /// The adoption law as a fresh vector.
    #[cfg(test)]
    fn adoption_law(&self) -> Vec<f64> {
        let n: u128 = self.counts.iter().map(|&c| u128::from(c)).sum();
        let mut q = Vec::new();
        self.fill_law(law_denominator(self.tie_lcm, n, self.samples), &mut q);
        q
    }
}

/// `L·n^j` as the `f64` every integer adoption weight is divided by.
fn law_denominator(tie_lcm: u128, n: u128, j: usize) -> f64 {
    #[allow(clippy::cast_possible_truncation)]
    let scale = n.pow(j as u32);
    (tie_lcm * scale) as f64
}

/// The largest sample count [`ClosedFormLaw`] covers.
const CLOSED_FORM_MAX_SAMPLES: usize = 3;

/// An exact unsigned width for the closed form: `u64` while every
/// intermediate stays below `2⁶¹` (see [`law_bits`]), `u128` otherwise.
/// Both widths compute the same integers, and so the same `f64` law.
trait LawInt:
    Copy
    + From<u64>
    + TryFrom<u128>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + SubAssign
{
    /// The nearest `f64`.
    fn to_f64(self) -> f64;
}

impl LawInt for u64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl LawInt for u128 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// The `O(k)` closed form of the integer adoption law for `j ≤ 3` (module
/// docs): the count aggregates every `Q_o` is a polynomial in, in width
/// `W`.  Valid under the [`integer_law_headroom`] gate, which bounds every
/// intermediate.
#[derive(Debug, Clone, Copy)]
struct ClosedFormLaw<W> {
    samples: usize,
    /// `L = lcm(1..=k)`.
    tie_lcm: W,
    /// The tie shares `L/2` and `L/3`, divided once per run.
    tie_shares: [W; 2],
    /// Population `n`.
    n: W,
    /// Undecided count `u`.
    undecided: W,
    /// `M = Σ c_i` over the opinions.
    decided: W,
    /// `S2 = Σ c_i²` over the opinions.
    square_sum: W,
}

impl<W: LawInt> ClosedFormLaw<W> {
    fn new(samples: usize, tie_lcm: u128, config: &Configuration) -> ClosedFormLaw<W> {
        debug_assert!((1..=CLOSED_FORM_MAX_SAMPLES).contains(&samples));
        let width = |x: u128| W::try_from(x).ok().expect("the width rule admits L");
        let mut decided = W::from(0);
        let mut square_sum = W::from(0);
        for &c in config.supports() {
            let c = W::from(c);
            decided += c;
            square_sum += c * c;
        }
        ClosedFormLaw {
            samples,
            tie_lcm: width(tie_lcm),
            tie_shares: [width(tie_lcm / 2), width(tie_lcm / 3)],
            n: W::from(config.population()),
            undecided: W::from(config.undecided()),
            decided,
            square_sum,
        }
    }

    /// Follows one applied move (`config` is the configuration after it):
    /// `c → c − 1` lowers `S2` by `2(c − 1) + 1`, `c → c + 1` raises it by
    /// `2(c + 1) − 1`.
    fn apply_move(&mut self, from: AgentState, to: AgentState, config: &Configuration) {
        let (one, two) = (W::from(1), W::from(2));
        match from {
            AgentState::Decided(o) => {
                self.decided -= one;
                self.square_sum -= two * W::from(config.support(o.index())) + one;
            }
            AgentState::Undecided => self.undecided -= one,
        }
        match to {
            AgentState::Decided(o) => {
                self.decided += one;
                self.square_sum += two * W::from(config.support(o.index())) - one;
            }
            AgentState::Undecided => self.undecided += one,
        }
    }

    /// `Q_o` for an opinion with support `c`, equal as an integer to
    /// [`AdoptionDp::adoption_integer`].
    fn adoption_integer(&self, c: u64) -> W {
        let c = W::from(c);
        let (two, three) = (W::from(2), W::from(3));
        let l = self.tie_lcm;
        let [l_2, l_3] = self.tie_shares;
        let (u, rivals) = (self.undecided, self.decided - c);
        match self.samples {
            1 => c * l,
            2 => two * c * (u * l + rivals * l_2) + c * c * l,
            _ => {
                let rival_pairs = rivals * rivals - (self.square_sum - c * c);
                let one = u * u * l + two * u * rivals * l_2 + rival_pairs * l_3;
                three * c * one + three * c * c * (self.n - c) * l + c * c * c * l
            }
        }
    }
}

/// The closed form in the narrowest width that holds its integers.
#[derive(Debug, Clone, Copy)]
enum ClosedForm {
    Narrow(ClosedFormLaw<u64>),
    Wide(ClosedFormLaw<u128>),
}

impl ClosedForm {
    fn new(samples: usize, tie_lcm: u128, config: &Configuration) -> ClosedForm {
        // `S2 ≤ n²` is kept for every `j`, so the bound takes `j ≥ 2`.
        if law_bits(tie_lcm, samples.max(2), config.population()).is_some_and(|bits| bits < 62) {
            ClosedForm::Narrow(ClosedFormLaw::new(samples, tie_lcm, config))
        } else {
            ClosedForm::Wide(ClosedFormLaw::new(samples, tie_lcm, config))
        }
    }

    fn apply_move(&mut self, from: AgentState, to: AgentState, config: &Configuration) {
        match self {
            ClosedForm::Narrow(law) => law.apply_move(from, to, config),
            ClosedForm::Wide(law) => law.apply_move(from, to, config),
        }
    }

    /// `Q_o` for an opinion with support `c`.
    #[cfg(any(test, debug_assertions, feature = "exhaustive-checks"))]
    fn adoption_integer(&self, c: u64) -> u128 {
        match self {
            ClosedForm::Narrow(law) => law.adoption_integer(c).into(),
            ClosedForm::Wide(law) => law.adoption_integer(c),
        }
    }

    /// Writes `q_o = Q_o / denominator` for every opinion of `config` into `q`.
    fn fill_law(&self, config: &Configuration, denominator: f64, q: &mut Vec<f64>) {
        fn fill<W: LawInt>(
            law: &ClosedFormLaw<W>,
            config: &Configuration,
            d: f64,
            q: &mut Vec<f64>,
        ) {
            q.clear();
            q.extend(
                config
                    .supports()
                    .iter()
                    .map(|&c| law.adoption_integer(c).to_f64() / d),
            );
        }
        match self {
            ClosedForm::Narrow(law) => fill(law, config, denominator, q),
            ClosedForm::Wide(law) => fill(law, config, denominator, q),
        }
    }
}

/// One run's j-Majority adoption law, owned by the sampler (module docs):
/// the run constants (`L`, the headroom verdict and the `L·n^j`
/// denominator — `k`, `j` and `n` are fixed for a run), the closed-form
/// aggregates, the patchable tables, and the law `q` itself.
#[derive(Debug, Clone)]
pub(crate) struct MajorityLaw {
    dynamics: JMajority,
    /// `L = lcm(1..=k)` when the integer law fits `u128` at this
    /// population, `None` past the gate (the float program serves).
    tie_lcm: Option<u128>,
    /// `L·n^j` as the `f64` every `Q_o` is divided by (unused past the gate).
    denominator: f64,
    /// The `j ≤ 3` aggregates, kept in step with every applied move.
    closed: Option<ClosedForm>,
    /// The `j ≥ 4` tables (and the `j ≤ 3` ones while patching is disabled).
    dp: Option<AdoptionDp>,
    q: Vec<f64>,
    /// Whether the law has been refreshed before.
    warm: bool,
    /// Integer refreshes served without a DP rebuild (table patches and
    /// closed-form evaluations): the sampled debug cross-check's cadence.
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    cheap_refreshes: u64,
}

impl MajorityLaw {
    /// A cold law for `config`'s population; the first
    /// [`MajorityLaw::refresh`] computes it.
    fn new(dynamics: JMajority, config: &Configuration) -> MajorityLaw {
        let j = dynamics.samples;
        let tie_lcm = integer_law_headroom(dynamics.opinions, j, config.population());
        MajorityLaw {
            dynamics,
            tie_lcm,
            denominator: tie_lcm.map_or(0.0, |l| {
                law_denominator(l, u128::from(config.population()), j)
            }),
            closed: tie_lcm
                .filter(|_| j <= CLOSED_FORM_MAX_SAMPLES)
                .map(|l| ClosedForm::new(j, l, config)),
            dp: None,
            q: Vec::with_capacity(dynamics.opinions),
            warm: false,
            #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
            cheap_refreshes: 0,
        }
    }

    pub(crate) fn apply_move(&mut self, from: AgentState, to: AgentState, config: &Configuration) {
        if let Some(closed) = &mut self.closed {
            closed.apply_move(from, to, config);
        }
    }

    /// Whether the sampled debug cross-check against a fresh DP is due on
    /// this cheap refresh (every one under `exhaustive-checks`).
    #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
    fn cross_check_due(&mut self) -> bool {
        self.cheap_refreshes += 1;
        cfg!(feature = "exhaustive-checks") || self.cheap_refreshes.is_multiple_of(64)
    }

    /// Brings the law to `config`: evaluates the closed form for `j ≤ 3`,
    /// delta-patches the integer tables for larger `j`, and otherwise
    /// rebuilds (integer DP under the gate, float program past it).
    /// Disabling incremental laws forces the rebuild.  A closed-form
    /// evaluation counts as the rebuild only on a run's first refresh (a
    /// restored run has refreshed before: its counters say so).
    pub(crate) fn refresh(&mut self, config: &Configuration, stats: &mut MaintenanceStats) {
        let incremental = law_maintenance::incremental_laws_enabled();
        match (self.tie_lcm, &self.closed) {
            (Some(_), Some(law)) if incremental => {
                law.fill_law(config, self.denominator, &mut self.q);
                if self.warm || *stats != MaintenanceStats::default() {
                    stats.law_patches += 1;
                } else {
                    stats.law_rebuilds += 1;
                }
                #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
                if self.cross_check_due() {
                    let law = self.closed.expect("matched above");
                    let fresh = AdoptionDp::build(&self.dynamics, config)
                        .expect("the headroom gate admitted this configuration");
                    for (o, &c) in config.supports().iter().enumerate() {
                        assert_eq!(
                            law.adoption_integer(c),
                            fresh.adoption_integer(o),
                            "closed-form adoption weight diverged from the DP at opinion {o}"
                        );
                    }
                }
            }
            (Some(_), _) if incremental && self.dp.is_some() => {
                let dp = self.dp.as_mut().expect("checked above");
                dp.patch(config);
                dp.fill_law(self.denominator, &mut self.q);
                stats.law_patches += 1;
                #[cfg(any(debug_assertions, feature = "exhaustive-checks"))]
                if self.cross_check_due() {
                    let fresh = AdoptionDp::build(&self.dynamics, config)
                        .expect("the headroom gate admitted this configuration");
                    assert_eq!(
                        self.dp.as_ref(),
                        Some(&fresh),
                        "patched adoption tables diverged from a fresh rebuild"
                    );
                }
            }
            (Some(tie_lcm), _) => {
                let dp = AdoptionDp::new(&self.dynamics, config, tie_lcm);
                dp.fill_law(self.denominator, &mut self.q);
                self.dp = Some(dp);
                stats.law_rebuilds += 1;
            }
            (None, _) => {
                // Past the u128-headroom gate: the float program runs again
                // on *every* counts change — a per-event cost counted apart
                // from intentional cold rebuilds.
                self.q = self.dynamics.float_adoption_probabilities(config);
                stats.law_fallback_rebuilds += 1;
            }
        }
        self.warm = true;
    }

    pub(crate) fn null_probability(&self, config: &Configuration) -> f64 {
        self.dynamics.null_from_q(config, &self.q)
    }

    pub(crate) fn sample_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        self.dynamics.draw_move_from_adoption(config, &self.q, rng)
    }
}

/// The general j-Majority dynamic: the activated agent samples `j` agents and
/// adopts the most frequent opinion among the decided samples, breaking ties
/// uniformly at random.  If every sample is undecided the agent keeps its
/// state.
///
/// # Examples
///
/// ```
/// use consensus_dynamics::JMajority;
/// use consensus_dynamics::SamplingDynamics;
///
/// let dyn5 = JMajority::new(4, 5);
/// assert_eq!(dyn5.sample_size(), 5);
/// assert_eq!(dyn5.num_opinions(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JMajority {
    opinions: usize,
    samples: usize,
}

impl JMajority {
    /// Creates a j-Majority dynamic for `k` opinions sampling `j` agents per
    /// activation.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `j == 0`.
    #[must_use]
    pub fn new(k: usize, j: usize) -> Self {
        assert!(k >= 1, "the majority dynamics need at least one opinion");
        assert!(j >= 1, "the majority dynamics need at least one sample");
        JMajority {
            opinions: k,
            samples: j,
        }
    }

    /// `P(opinion o wins the j-sample majority | m_o = t)`: the other
    /// opinions are walked as a chain of conditional binomials in a dynamic
    /// program over `(samples left, ties at t)`; branches where any other
    /// opinion exceeds `t` are pruned, leftover samples are undecided, and a
    /// `1 + T`-way tie contributes `1/(1 + T)`.
    ///
    /// `states`/`scratch` are caller-provided buffers of size
    /// `(j − t + 1) · k` laid out as `[samples left][ties]`.
    fn win_given_count(
        &self,
        o: usize,
        t: usize,
        pi: &[f64],
        states: &mut [f64],
        scratch: &mut [f64],
    ) -> f64 {
        let k = self.opinions;
        let r0 = self.samples - t;
        let width = k.max(1);
        let cells = (r0 + 1) * width;
        let (states, scratch) = (&mut states[..cells], &mut scratch[..cells]);
        states.fill(0.0);
        states[r0 * width] = 1.0;
        // Probability mass of the categories not yet walked (remaining
        // opinions plus undecided), for the conditional-binomial chain.
        let mut mass_left = 1.0 - pi[o];
        for (i, &pi_i) in pi.iter().enumerate() {
            if i == o {
                continue;
            }
            let p = if mass_left > 0.0 {
                (pi_i / mass_left).min(1.0)
            } else {
                0.0
            };
            mass_left -= pi_i;
            if pi_i == 0.0 {
                continue;
            }
            scratch.fill(0.0);
            for r in 0..=r0 {
                for ties in 0..width {
                    let w = states[r * width + ties];
                    if w == 0.0 {
                        continue;
                    }
                    // Branches where opinion i draws more than t samples can
                    // never let o win; they are dropped, not transitioned.
                    for c in 0..=r.min(t) {
                        let pb = binomial_pmf(r, c, p);
                        if pb == 0.0 {
                            continue;
                        }
                        let nt = ties + usize::from(c == t);
                        scratch[(r - c) * width + nt.min(width - 1)] += w * pb;
                    }
                }
            }
            states.copy_from_slice(scratch);
        }
        // Whatever samples remain are undecided: every surviving branch is a
        // win, shared uniformly among the 1 + T tied leaders.
        let mut win = 0.0;
        for r in 0..=r0 {
            for ties in 0..width {
                win += states[r * width + ties] / (ties + 1) as f64;
            }
        }
        win
    }

    /// The law the stateless hooks read: a cold [`MajorityLaw`] refreshed
    /// once for `config`, through the code the sampler's own law runs.
    fn cold_law(&self, config: &Configuration) -> MajorityLaw {
        let mut law = MajorityLaw::new(*self, config);
        law.refresh(config, &mut MaintenanceStats::default());
        law
    }

    /// The exact adoption law of one activation: `q[o] = P(opinion o is
    /// adopted)`, marginalized over sample compositions (see the module
    /// docs).  `Σ_o q[o] = 1 − π_⊥^j` up to floating-point rounding.
    #[cfg(test)]
    fn adoption_probabilities(&self, config: &Configuration) -> Vec<f64> {
        self.cold_law(config).q
    }

    /// The float-fallback adoption-law dynamic program (conditional-binomial
    /// chain), used when the integer tables would overflow `u128`.
    fn float_adoption_probabilities(&self, config: &Configuration) -> Vec<f64> {
        let k = self.opinions;
        let j = self.samples;
        let n = config.population() as f64;
        let pi: Vec<f64> = (0..k).map(|i| config.support(i) as f64 / n).collect();
        let cells = (j + 1) * k.max(1);
        let mut states = vec![0.0; cells];
        let mut scratch = vec![0.0; cells];
        let mut q = vec![0.0; k];
        for o in 0..k {
            if pi[o] == 0.0 {
                continue;
            }
            for t in 1..=j {
                let pm = binomial_pmf(j, t, pi[o]);
                if pm == 0.0 {
                    continue;
                }
                q[o] += pm * self.win_given_count(o, t, &pi, &mut states, &mut scratch);
            }
        }
        q
    }

    /// The null-activation probability derived from an adoption law `q`:
    /// `π_⊥^j + Σ_o π_o·q_o`.
    fn null_from_q(&self, config: &Configuration, q: &[f64]) -> f64 {
        let n = config.population() as f64;
        #[allow(clippy::cast_possible_wrap)]
        let mut p_null = (config.undecided() as f64 / n).powi(self.samples as i32);
        for (o, &qo) in q.iter().enumerate() {
            p_null += config.support(o) as f64 / n * qo;
        }
        p_null.clamp(0.0, 1.0)
    }

    /// Draws the productive `(current, adopted)` transition given the
    /// adoption law `q` (module docs): adopted opinion `o ∝ q_o·(n − c_o)`,
    /// then the activated category `∝ c_s`, `s ≠ o`.
    fn draw_move_from_adoption<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        q: &[f64],
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        let k = config.num_opinions();
        let n = config.population();
        // Two passes over the same products in the same order (sum, then
        // walk) instead of a per-event row vector.
        let row = |o: usize| q[o] * (n - config.support(o)) as f64;
        let total: f64 = (0..k).map(row).sum();
        debug_assert!(total > 0.0, "no productive activation exists");
        if total <= 0.0 {
            return None;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut winner = None;
        for o in 0..k {
            let row = row(o);
            if row <= 0.0 {
                continue;
            }
            // Remember the last eligible row so floating-point shortfall in
            // the running subtraction can never fall off the end.
            winner = Some(o);
            if target < row {
                break;
            }
            target -= row;
        }
        let winner = winner.expect("a positive total implies an eligible row");
        let c_winner = config.support(winner);
        let mut ctarget = uniform_u128_below(rng, u128::from(n - c_winner));
        for cat in 0..=k {
            if cat == winner {
                continue;
            }
            let c = u128::from(config.category_count(cat));
            if ctarget < c {
                return Some((
                    AgentState::from_category(cat, k),
                    AgentState::decided(winner),
                ));
            }
            ctarget -= c;
        }
        unreachable!("activated-agent weight exceeded the available counts")
    }
}

impl SamplingDynamics for JMajority {
    fn num_opinions(&self) -> usize {
        self.opinions
    }

    fn sample_size(&self) -> usize {
        self.samples
    }

    fn update<R: Rng + ?Sized>(
        &self,
        current: AgentState,
        samples: &[AgentState],
        rng: &mut R,
    ) -> AgentState {
        let mut counts = vec![0u32; self.opinions];
        for s in samples {
            if let AgentState::Decided(o) = s {
                counts[o.index()] += 1;
            }
        }
        let best = counts.iter().copied().max().unwrap_or(0);
        if best == 0 {
            return current;
        }
        // Reservoir-style uniform choice among the tied leaders.
        let mut chosen = None;
        let mut seen = 0u32;
        for (i, &c) in counts.iter().enumerate() {
            if c == best {
                seen += 1;
                if rng.gen_range(0..seen) == 0 {
                    chosen = Some(i);
                }
            }
        }
        AgentState::decided(chosen.expect("at least one opinion attains the maximum"))
    }

    fn name(&self) -> &str {
        "j-majority"
    }

    /// Closed form (module docs): null iff every sample is undecided or the
    /// winning opinion matches the activated agent's own —
    /// `π_⊥^j + Σ_o π_o·q_o`, from a cold law.
    fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
        Some(self.cold_law(config).null_probability(config))
    }

    /// Closed form (module docs): the adopted opinion and the activated
    /// agent are independent given the activation is productive, so draw
    /// `o ∝ q_o·(n − c_o)` and then the activated category `∝ c_s`, `s ≠ o`,
    /// from a cold law.
    fn sample_productive_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        self.cold_law(config).sample_move(config, rng)
    }

    /// The maintained adoption law (module docs).
    fn activation_law(&self, config: &Configuration) -> Option<ActivationLaw> {
        Some(ActivationLaw::cold(LawKind::Majority(MajorityLaw::new(
            *self, config,
        ))))
    }
}

/// The 3-Majority dynamic (`j = 3`), analyzed by Becchetti et al. and
/// Ghaffari–Lengler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreeMajority {
    inner: JMajority,
}

impl ThreeMajority {
    /// Creates the 3-Majority dynamic for `k` opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        ThreeMajority {
            inner: JMajority::new(k, 3),
        }
    }
}

impl SamplingDynamics for ThreeMajority {
    fn num_opinions(&self) -> usize {
        self.inner.num_opinions()
    }

    fn sample_size(&self) -> usize {
        3
    }

    fn update<R: Rng + ?Sized>(
        &self,
        current: AgentState,
        samples: &[AgentState],
        rng: &mut R,
    ) -> AgentState {
        self.inner.update(current, samples, rng)
    }

    fn name(&self) -> &str {
        "3-majority"
    }

    fn null_activation_probability(&self, config: &Configuration) -> Option<f64> {
        self.inner.null_activation_probability(config)
    }

    fn sample_productive_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        self.inner.sample_productive_move(config, rng)
    }

    fn activation_law(&self, config: &Configuration) -> Option<ActivationLaw> {
        self.inner.activation_law(config)
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
    fn clear_majority_among_samples_wins() {
        let m = ThreeMajority::new(3);
        let mut rng = SimSeed::from_u64(0).rng();
        assert_eq!(m.update(d(0), &[d(1), d(1), d(2)], &mut rng), d(1));
        assert_eq!(m.update(d(0), &[d(2), d(2), d(2)], &mut rng), d(2));
    }

    #[test]
    fn all_undecided_samples_keep_current_state() {
        let m = ThreeMajority::new(3);
        let mut rng = SimSeed::from_u64(0).rng();
        let u = AgentState::Undecided;
        assert_eq!(m.update(d(1), &[u, u, u], &mut rng), d(1));
        assert_eq!(m.update(u, &[u, u, u], &mut rng), u);
    }

    #[test]
    fn three_way_tie_is_broken_uniformly() {
        let m = ThreeMajority::new(3);
        let mut rng = SimSeed::from_u64(42).rng();
        let mut hits = [0u32; 3];
        for _ in 0..9_000 {
            let out = m.update(AgentState::Undecided, &[d(0), d(1), d(2)], &mut rng);
            hits[out.opinion().unwrap().index()] += 1;
        }
        for &h in &hits {
            let frac = f64::from(h) / 9_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.03, "tie-break frac = {frac}");
        }
    }

    #[test]
    fn undecided_samples_are_ignored_in_the_count() {
        let m = ThreeMajority::new(2);
        let mut rng = SimSeed::from_u64(0).rng();
        assert_eq!(
            m.update(
                d(0),
                &[AgentState::Undecided, d(1), AgentState::Undecided],
                &mut rng
            ),
            d(1)
        );
    }

    #[test]
    fn three_majority_converges_sequentially() {
        let config = Configuration::from_counts(vec![500, 300, 200], 0).unwrap();
        let mut sim = SequentialSampler::new(ThreeMajority::new(3), config, SimSeed::from_u64(2));
        let result = sim.run(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
    }

    #[test]
    fn three_majority_converges_in_few_synchronous_rounds() {
        let config = Configuration::from_counts(vec![600, 250, 150], 0).unwrap();
        let mut sim = SynchronousRunner::new(ThreeMajority::new(3), &config, SimSeed::from_u64(3));
        let result = sim.run(500);
        assert!(result.reached_consensus());
        assert!(
            result.interactions() < 100,
            "rounds = {}",
            result.interactions()
        );
    }

    /// Brute-force adoption law by enumerating all `(k+1)^j` ordered sample
    /// vectors and averaging `update`'s tie-break over many RNG draws would
    /// be noisy; instead enumerate compositions implicitly by recursing over
    /// ordered samples and computing the tie-break weight analytically.
    fn brute_force_adoption(config: &Configuration, j: usize) -> Vec<f64> {
        let k = config.num_opinions();
        let n = config.population() as f64;
        let mut q = vec![0.0; k];
        let mut counts = vec![0u32; k];
        fn recurse(
            config: &Configuration,
            n: f64,
            j_left: usize,
            weight: f64,
            counts: &mut Vec<u32>,
            q: &mut [f64],
        ) {
            let k = config.num_opinions();
            if j_left == 0 {
                let best = counts.iter().copied().max().unwrap_or(0);
                if best == 0 {
                    return;
                }
                let ties = counts.iter().filter(|&&c| c == best).count();
                for (o, &c) in counts.iter().enumerate() {
                    if c == best {
                        q[o] += weight / ties as f64;
                    }
                }
                return;
            }
            for cat in 0..=k {
                let p = config.category_count(cat) as f64 / n;
                if p == 0.0 {
                    continue;
                }
                if cat < k {
                    counts[cat] += 1;
                }
                recurse(config, n, j_left - 1, weight * p, counts, q);
                if cat < k {
                    counts[cat] -= 1;
                }
            }
        }
        recurse(config, n, j, 1.0, &mut counts, &mut q);
        q
    }

    #[test]
    fn adoption_probabilities_match_brute_force_enumeration() {
        for (counts, undecided, j) in [
            (vec![5, 3], 2u64, 3usize),
            (vec![5, 3], 2, 5),
            (vec![7, 0, 2, 1], 4, 3),
            (vec![1, 2, 3, 4, 5], 0, 5),
            (vec![10, 1], 0, 7),
            (vec![2, 2, 2], 3, 4),
        ] {
            let config = Configuration::from_counts(counts, undecided).unwrap();
            let m = JMajority::new(config.num_opinions(), j);
            let q = m.adoption_probabilities(&config);
            let brute = brute_force_adoption(&config, j);
            for (o, (&a, &b)) in q.iter().zip(&brute).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "q[{o}] = {a} vs brute force {b} at {config}, j = {j}"
                );
            }
            // The adoption law is a sub-probability missing only the
            // all-undecided mass.
            let n = config.population() as f64;
            #[allow(clippy::cast_possible_wrap)]
            let p_none = (config.undecided() as f64 / n).powi(j as i32);
            assert!((q.iter().sum::<f64>() + p_none - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn integer_law_agrees_with_the_float_dynamic_program() {
        for (counts, undecided, j) in [
            (vec![5, 3], 2u64, 3usize),
            (vec![7, 0, 2, 1], 4, 3),
            (vec![1, 2, 3, 4, 5], 0, 5),
            (vec![40, 25, 15, 20], 20, 5),
        ] {
            let config = Configuration::from_counts(counts, undecided).unwrap();
            let m = JMajority::new(config.num_opinions(), j);
            let dp = AdoptionDp::build(&m, &config).expect("small configs fit the integer law");
            let integer = dp.adoption_law();
            let float = m.float_adoption_probabilities(&config);
            for (o, (&a, &b)) in integer.iter().zip(&float).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "q[{o}]: integer {a} vs float DP {b} at {config}, j = {j}"
                );
            }
        }
    }

    #[test]
    fn patched_tables_are_bit_identical_to_fresh_builds() {
        // Walk a random-ish trajectory of single moves and patch the tables
        // across each; after every patch the tables and the derived law must
        // equal a from-scratch build exactly (not approximately).
        let mut config = Configuration::from_counts(vec![30, 20, 10, 5], 15).unwrap();
        let m = JMajority::new(4, 5);
        let mut dp = AdoptionDp::build(&m, &config).unwrap();
        let moves = [
            (AgentState::Undecided, d(0)),
            (d(1), d(0)),
            (d(2), d(3)),
            (d(3), d(0)),
            (AgentState::Undecided, d(2)),
            (d(0), d(1)),
        ];
        for &(from, to) in &moves {
            config.apply_move(from, to).unwrap();
            dp.patch(&config);
            let fresh = AdoptionDp::build(&m, &config).unwrap();
            assert_eq!(dp, fresh, "patched tables diverged after {from} -> {to}");
            let (patched_q, fresh_q) = (dp.adoption_law(), fresh.adoption_law());
            for (a, b) in patched_q.iter().zip(&fresh_q) {
                assert_eq!(a.to_bits(), b.to_bits(), "law not bit-identical");
            }
        }
    }

    #[test]
    fn deconvolution_round_trips_exactly() {
        let m = JMajority::new(3, 5);
        let config = Configuration::from_counts(vec![12, 7, 4], 6).unwrap();
        let mut dp = AdoptionDp::build(&m, &config).unwrap();
        let reference = dp.clone();
        // Remove and re-add one opinion factor and the undecided factor on
        // every table: the round trip must be the identity, bit for bit.
        for o in 0..3 {
            for t in 1..=5 {
                for i in [1usize, 3] {
                    if i == o {
                        continue;
                    }
                    let (cap, tie) = if i == 3 { (5, None) } else { (t, Some(t)) };
                    let factor = CategoryFactor {
                        count: dp.counts[i],
                        cap,
                        tie,
                    };
                    let range = dp.table_range(o, t);
                    let binom = dp.binom.clone();
                    let table = &mut dp.tables[range];
                    convolve_factor::<true>(table, &binom, 6, 3, 5 - t, factor);
                    convolve_factor::<false>(table, &binom, 6, 3, 5 - t, factor);
                }
            }
        }
        assert_eq!(dp, reference);
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
        law: &mut MajorityLaw,
        config: &mut Configuration,
        (from, to): (AgentState, AgentState),
        stats: &mut MaintenanceStats,
    ) {
        config.apply_move(from, to).unwrap();
        law.apply_move(from, to, config);
        law.refresh(config, stats);
    }

    #[test]
    fn oversized_laws_fall_back_to_the_float_program() {
        // j = 7 at n = 10⁶ needs ~150 bits: the gate must reject it and the
        // law must come from the float program, recomputed per counts.
        let mut config = Configuration::from_counts(vec![600_000, 400_000], 0).unwrap();
        let m = JMajority::new(2, 7);
        assert!(integer_law_headroom(2, 7, config.population()).is_none());
        assert!(AdoptionDp::build(&m, &config).is_none());
        let mut law = MajorityLaw::new(m, &config);
        let mut stats = MaintenanceStats::default();
        law.refresh(&config, &mut stats);
        assert!((0.0..=1.0).contains(&law.null_probability(&config)));
        apply_and_refresh(&mut law, &mut config, (d(1), d(0)), &mut stats);
        assert!((0.0..=1.0).contains(&law.null_probability(&config)));
        let (patches, rebuilds, fallbacks) = tally(&stats);
        assert_eq!(patches, 0, "float laws must never be patched");
        assert_eq!(
            rebuilds, 0,
            "per-event float recomputations must not be reported as intentional rebuilds"
        );
        assert_eq!(fallbacks, 2, "each counts change pays one fallback rebuild");
    }

    #[test]
    fn law_refreshes_are_patches_after_the_first_rebuild() {
        let m = JMajority::new(3, 3);
        let mut config = Configuration::from_counts(vec![40, 30, 20], 10).unwrap();
        let mut law = ActivationLaw::cold(LawKind::Majority(MajorityLaw::new(m, &config)));
        let mut stats = MaintenanceStats::default();
        law.refresh(&config, &mut stats);
        let first = law.null_probability(&config);
        config.apply_move(AgentState::Undecided, d(1)).unwrap();
        law.apply_move(AgentState::Undecided, d(1), &config);
        law.refresh(&config, &mut stats);
        let second = law.null_probability(&config);
        assert_ne!(first, second, "the law must react to the count change");
        assert_eq!(tally(&stats), (1, 1, 0));
        // No move since: the law is fresh, no maintenance at all.
        law.refresh(&config, &mut stats);
        assert_eq!(tally(&stats), (1, 1, 0));
    }

    #[test]
    fn disabling_incremental_laws_forces_rebuilds_with_identical_values() {
        let m = JMajority::new(3, 3);
        let c1 = Configuration::from_counts(vec![40, 30, 20], 10).unwrap();
        let mut config = c1.clone();
        let mut law = MajorityLaw::new(m, &config);
        let mut stats = MaintenanceStats::default();
        law.refresh(&config, &mut stats);
        apply_and_refresh(&mut law, &mut config, (d(0), d(2)), &mut stats);
        assert_eq!(tally(&stats), (1, 1, 0));
        let patched = law.q.clone();
        // A fresh thread with patching disabled rebuilds every refresh from
        // scratch; the values must still be bit-identical.
        let rebuilt = std::thread::spawn(move || {
            crate::law_maintenance::set_incremental_laws(false);
            let mut config = c1.clone();
            let mut law = MajorityLaw::new(m, &config);
            let mut stats = MaintenanceStats::default();
            law.refresh(&config, &mut stats);
            apply_and_refresh(&mut law, &mut config, (d(0), d(2)), &mut stats);
            assert_eq!(tally(&stats), (0, 2, 0));
            law.q
        })
        .join()
        .expect("rebuild thread panicked");
        for (a, b) in patched.iter().zip(&rebuilt) {
            assert_eq!(a.to_bits(), b.to_bits(), "patched vs rebuilt law differ");
        }
    }

    #[test]
    fn null_probability_matches_empirical_null_frequency() {
        let config = Configuration::from_counts(vec![40, 25, 15], 20).unwrap();
        let m = JMajority::new(3, 3);
        let p = m.null_activation_probability(&config).unwrap();
        let mut rng = SimSeed::from_u64(33).rng();
        let trials = 200_000u32;
        let mut nulls = 0u32;
        let n = config.population();
        let sample = |rng: &mut rand::rngs::SmallRng| {
            let mut target = rng.gen_range(0..n);
            for cat in 0..=3usize {
                let c = config.category_count(cat);
                if target < c {
                    return AgentState::from_category(cat, 3);
                }
                target -= c;
            }
            unreachable!()
        };
        for _ in 0..trials {
            let current = sample(&mut rng);
            let samples = [sample(&mut rng), sample(&mut rng), sample(&mut rng)];
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
    fn conditional_moves_are_productive_and_consistent() {
        let config = Configuration::from_counts(vec![30, 20, 10], 15).unwrap();
        let m = JMajority::new(3, 5);
        let mut rng = SimSeed::from_u64(9).rng();
        for _ in 0..2_000 {
            let (from, to) = m.sample_productive_move(&config, &mut rng).unwrap();
            assert_ne!(from, to);
            assert!(to.is_decided(), "majority moves always adopt an opinion");
            let mut c = config.clone();
            c.apply_move(from, to).expect("move must be applicable");
        }
    }

    #[test]
    fn skip_ahead_runs_to_consensus_with_zero_rejection_misses() {
        use pp_core::engine::StepEngine;
        let config = Configuration::from_counts(vec![500, 300, 200], 0).unwrap();
        let mut sim = SequentialSampler::new(ThreeMajority::new(3), config, SimSeed::from_u64(21));
        let result = sim.run_engine(StopCondition::consensus().or_max_interactions(5_000_000));
        assert!(result.reached_consensus());
        assert_eq!(result.rejection_misses(), Some(0));
        assert_eq!(sim.rejection_fallbacks(), 0);
        // The incremental layer reports through the run result: one rebuild
        // to build the law, patches from then on.
        let maintenance = result.maintenance().expect("samplers count law work");
        assert!(maintenance.law_patches > 0, "patching never engaged");
        assert!(maintenance.law_rebuilds >= 1);
        assert!(maintenance.law_patches > maintenance.law_rebuilds);
    }

    #[test]
    fn j_equals_one_matches_the_voter_closed_form() {
        // j = 1 j-Majority is the Voter process; their null probabilities
        // must agree exactly.
        use crate::voter::Voter;
        let config = Configuration::from_counts(vec![300, 200], 500).unwrap();
        let m = JMajority::new(2, 1)
            .null_activation_probability(&config)
            .unwrap();
        let v = Voter::new(2).null_activation_probability(&config).unwrap();
        assert!((m - v).abs() < 1e-12, "j-majority {m} vs voter {v}");
    }

    #[test]
    fn majority_dynamics_are_plain_send_sync_values() {
        // The parallel ensemble moves samplers (and the dynamics they own)
        // across worker threads; the law lives in the sampler, so JMajority
        // stays a plain value.  A regression (law state creeping into the
        // struct) fails here, not in the ensemble layer.
        fn assert_send_sync<T: Send + Sync + Copy>() {}
        assert_send_sync::<JMajority>();
        assert_send_sync::<ThreeMajority>();
    }

    #[test]
    fn memo_is_invisible_across_interleaved_parameters_and_counts() {
        // Two dynamics with different parameters and two configurations,
        // interleaved: every stateless call must see the law for *its*
        // inputs, and so must samplers advanced in turns on one thread.
        let c1 = Configuration::from_counts(vec![30, 20], 10).unwrap();
        let c2 = Configuration::from_counts(vec![5, 45], 0).unwrap();
        let m3 = JMajority::new(2, 3);
        let m5 = JMajority::new(2, 5);
        let cases = [(&m3, &c1), (&m5, &c1), (&m3, &c2), (&m5, &c2)];
        let fresh: Vec<f64> = cases
            .iter()
            .map(|(m, c)| m.adoption_probabilities(c).into_iter().sum())
            .collect();
        for _ in 0..3 {
            for (i, (m, c)) in cases.iter().enumerate() {
                let p = m.null_activation_probability(c).unwrap();
                let law = MajorityLaw::new(**m, c);
                let mut law = ActivationLaw::cold(LawKind::Majority(law));
                law.refresh(c, &mut MaintenanceStats::default());
                assert_eq!(p.to_bits(), law.null_probability(c).to_bits(), "case {i}");
                let sum: f64 = m.adoption_probabilities(c).into_iter().sum();
                assert!((sum - fresh[i]).abs() < 1e-15, "law diverged for case {i}");
            }
        }
        // Samplers advanced in turns walk what each walks alone.
        use pp_core::engine::StepEngine;
        let sampler = |i: usize| {
            let (m, c) = cases[i];
            SequentialSampler::new(*m, c.clone(), SimSeed::from_u64(i as u64))
        };
        let alone: Vec<Vec<Configuration>> = (0..cases.len())
            .map(|i| {
                let mut sim = sampler(i);
                (0..5)
                    .map(|_| {
                        let _ = sim.advance(u64::MAX);
                        sim.configuration().clone()
                    })
                    .collect()
            })
            .collect();
        let mut samplers: Vec<_> = (0..cases.len()).map(sampler).collect();
        let mut walks: Vec<_> = alone.iter().map(|walk| walk.iter()).collect();
        for _ in 0..5 {
            for (i, (sim, walk)) in samplers.iter_mut().zip(&mut walks).enumerate() {
                let _ = sim.advance(u64::MAX);
                assert_eq!(Some(sim.configuration()), walk.next(), "case {i}");
            }
        }
    }

    #[test]
    fn generation_change_is_a_cold_miss_never_a_cross_run_patch() {
        // Two runs back to back on one thread, same dynamic parameters but
        // different counts: the second run's first refresh must be a full
        // rebuild of its own law, never a patch from the first run's counts,
        // and its law must equal a fresh one.  j = 4 keeps the law on the
        // patchable integer tables.
        use pp_core::engine::StepEngine;
        let m = JMajority::new(3, 4);
        let c1 = Configuration::from_counts(vec![40, 30, 20], 10).unwrap();
        let c2 = Configuration::from_counts(vec![10, 60, 20], 10).unwrap();
        let mut first = SequentialSampler::new(m, c1, SimSeed::from_u64(1));
        let _ = first.advance(u64::MAX);
        let mut second = SequentialSampler::new(m, c2.clone(), SimSeed::from_u64(2));
        let _ = second.advance(u64::MAX);
        assert_eq!(
            tally(&second.maintenance().unwrap()),
            (0, 1, 0),
            "a new run must rebuild, not patch the previous run's law"
        );
        let mut alone = std::thread::spawn(move || {
            let mut sim = SequentialSampler::new(m, c2, SimSeed::from_u64(2));
            let _ = sim.advance(u64::MAX);
            sim
        })
        .join()
        .expect("reference thread panicked");
        assert_eq!(second.configuration(), alone.configuration());
        assert_eq!(second.steps(), alone.steps());
        assert_eq!(second.advance(u64::MAX), alone.advance(u64::MAX));
        assert_eq!(second.configuration(), alone.configuration());
    }

    /// The largest population the `u128` headroom gate admits for `(k, j)`,
    /// capped at `2^62` (for `j = 1` the gate admits every such population).
    fn headroom_edge(k: usize, j: usize) -> u64 {
        edge(|n| integer_law_headroom(k, j, n).is_some())
    }

    /// The largest population the closed form computes in `u64` for
    /// `(k, j)`, capped at `2^62`.
    fn narrow_edge(k: usize, j: usize) -> u64 {
        let l = lcm_up_to(k).unwrap();
        edge(|n| {
            matches!(
                ClosedForm::new(j, l, &Configuration::from_counts(vec![n], 0).unwrap()),
                ClosedForm::Narrow(_)
            )
        })
    }

    /// The largest `n ≤ 2^62` that `admits` (which holds for `n = 1` and is
    /// monotone).
    fn edge(admits: impl Fn(u64) -> bool) -> u64 {
        let (mut admitted, mut rejected) = (1u64, 1u64 << 62);
        if admits(rejected) {
            return rejected;
        }
        while rejected - admitted > 1 {
            let mid = admitted + (rejected - admitted) / 2;
            if admits(mid) {
                admitted = mid;
            } else {
                rejected = mid;
            }
        }
        admitted
    }

    /// Splits `n` over `k` opinions and the undecided state in proportion
    /// to `weights` (the first `k + 1` entries; a zero weight is an empty
    /// category), the rounding remainder going to the last non-empty one.
    fn split_population(n: u64, k: usize, weights: &[u64]) -> Configuration {
        let weights = &weights[..=k];
        let total: u64 = weights.iter().sum();
        let mut counts: Vec<u64> = weights
            .iter()
            .map(|&w| (u128::from(n) * u128::from(w) / u128::from(total)) as u64)
            .collect();
        let last = weights.iter().rposition(|&w| w > 0).expect("total > 0");
        counts[last] += n - counts.iter().sum::<u64>();
        let undecided = counts.pop().expect("k + 1 categories");
        Configuration::from_counts(counts, undecided).unwrap()
    }

    /// The closed form's `Q_o` integers and `f64` law against a fresh
    /// [`AdoptionDp::build`] at `config`.
    fn assert_closed_form_matches_dp(
        config: &Configuration,
        j: usize,
    ) -> Result<(), proptest::TestCaseError> {
        let k = config.num_opinions();
        let m = JMajority::new(k, j);
        let tie_lcm = integer_law_headroom(k, j, config.population())
            .expect("the case lies inside the headroom gate");
        let dp = AdoptionDp::build(&m, config).expect("the gate admits the DP too");
        let law = ClosedForm::new(j, tie_lcm, config);
        let denominator = law_denominator(tie_lcm, u128::from(config.population()), j);
        let mut q = Vec::new();
        law.fill_law(config, denominator, &mut q);
        for (o, dp_q) in dp.adoption_law().into_iter().enumerate() {
            let closed = law.adoption_integer(config.support(o));
            proptest::prop_assert_eq!(
                closed,
                dp.adoption_integer(o),
                "Q_{} at {}, j = {}",
                o,
                config,
                j
            );
            proptest::prop_assert_eq!(q[o].to_bits(), dp_q.to_bits());
        }
        Ok(())
    }

    /// The reference build: each `(o, t)` table convolved from the unit
    /// table over every other category's factor.
    fn reference_tables(dp: &AdoptionDp) -> Vec<u128> {
        let (k, j) = (dp.opinions, dp.samples);
        let mut tables = vec![0u128; dp.tables.len()];
        for o in 0..k {
            for t in 1..=j {
                let table = &mut tables[dp.table_range(o, t)];
                table[0] = 1;
                for i in (0..=k).filter(|&i| i != o) {
                    let factor = dp.factor(i, t, dp.counts[i]);
                    convolve_factor::<false>(table, &dp.binom, j + 1, k, j - t, factor);
                }
            }
        }
        tables
    }

    mod closed_form {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn built_tables_equal_the_per_table_reference(
                (k, j) in (1usize..9, 1usize..8),
                raw in collection::vec(0u64..2_000, 9..10),
                empty_mask in 0u64..512,
            ) {
                let counts: Vec<u64> = (0..k)
                    .map(|i| if (empty_mask >> i) & 1 == 1 { 0 } else { raw[i] })
                    .collect();
                let undecided = if (empty_mask >> 8) & 1 == 1 { 0 } else { raw[8] };
                prop_assume!(counts.iter().sum::<u64>() + undecided > 0);
                let config = Configuration::from_counts(counts, undecided).unwrap();
                let dp = AdoptionDp::build(&JMajority::new(k, j), &config)
                    .expect("small populations fit the integer law");
                prop_assert!(dp.tables == reference_tables(&dp), "tables differ at {}, j = {}", config, j);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn closed_form_integers_equal_the_dp(
                (k, j) in (1usize..9, 1usize..4),
                raw in collection::vec(0u64..60, 9..10),
                empty_mask in 0u64..512,
            ) {
                // Each of the k + 1 categories is empty with probability ½.
                let counts: Vec<u64> = (0..k)
                    .map(|i| if (empty_mask >> i) & 1 == 1 { 0 } else { raw[i] })
                    .collect();
                let undecided = if (empty_mask >> 8) & 1 == 1 { 0 } else { raw[8] };
                prop_assume!(counts.iter().sum::<u64>() + undecided > 0);
                let config = Configuration::from_counts(counts, undecided).unwrap();
                assert_closed_form_matches_dp(&config, j)?;
            }

            #[test]
            fn closed_form_is_exact_at_the_headroom_edge(
                (k, j) in (1usize..9, 1usize..4),
                weights in collection::vec(0u64..1_000, 9..10),
                below in 0u64..1_000,
            ) {
                prop_assume!(weights[..=k].iter().any(|&w| w > 0));
                let edge = headroom_edge(k, j);
                let config = split_population(edge - below, k, &weights);
                assert_closed_form_matches_dp(&config, j)?;
            }

            #[test]
            fn closed_form_is_exact_across_its_width_edge(
                (k, j) in (1usize..9, 1usize..4),
                weights in collection::vec(0u64..1_000, 9..10),
                offset in 0u64..2_000,
            ) {
                // Populations from 1,000 below the largest one the u64
                // closed form admits to 1,000 above it (the u128 one).
                prop_assume!(weights[..=k].iter().any(|&w| w > 0));
                let n = (narrow_edge(k, j) + offset).saturating_sub(999);
                prop_assume!(integer_law_headroom(k, j, n).is_some());
                assert_closed_form_matches_dp(&split_population(n, k, &weights), j)?;
            }
        }
    }

    #[test]
    fn the_float_fallback_engages_just_past_the_headroom_edge() {
        for j in 2..=CLOSED_FORM_MAX_SAMPLES {
            for k in [1usize, 2, 3, 8] {
                let edge = headroom_edge(k, j);
                let m = JMajority::new(k, j);
                let weights = [3u64, 0, 2, 1, 5, 0, 4, 1, 2];
                let inside = split_population(edge, k, &weights);
                let past = split_population(edge + 1, k, &weights);
                assert!(integer_law_headroom(k, j, past.population()).is_none());
                let mut stats = MaintenanceStats::default();
                let mut law = MajorityLaw::new(m, &inside);
                law.refresh(&inside, &mut stats);
                let q_inside = law.q;
                let (patches, rebuilds, fallbacks) = tally(&stats);
                assert_eq!(fallbacks, 0, "k = {k}, j = {j}: inside the gate");
                assert_eq!(patches + rebuilds, 1);
                let mut stats = MaintenanceStats::default();
                let mut law = MajorityLaw::new(m, &past);
                law.refresh(&past, &mut stats);
                let q_past = law.q;
                assert_eq!(
                    tally(&stats),
                    (0, 0, 1),
                    "k = {k}, j = {j}: past the gate the float program must run"
                );
                assert_eq!(
                    q_past.iter().map(|q| q.to_bits()).collect::<Vec<_>>(),
                    m.float_adoption_probabilities(&past)
                        .iter()
                        .map(|q| q.to_bits())
                        .collect::<Vec<_>>()
                );
                // One agent apart, the two laws agree to float precision.
                for (a, b) in q_inside.iter().zip(&q_past) {
                    assert!((a - b).abs() < 1e-9, "k = {k}, j = {j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn five_majority_behaves_like_a_majority_rule() {
        let m = JMajority::new(4, 5);
        let mut rng = SimSeed::from_u64(1).rng();
        assert_eq!(
            m.update(d(3), &[d(0), d(0), d(0), d(1), d(2)], &mut rng),
            d(0)
        );
        assert_eq!(m.name(), "j-majority");
    }
}
