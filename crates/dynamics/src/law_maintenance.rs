//! The activation law a [`SequentialSampler`](crate::sampling::SequentialSampler)
//! maintains for its dynamic, and the incremental-law switch.
//!
//! The expensive laws — the j-Majority adoption law ([`crate::majority`])
//! and the MedianRule prefix/suffix sums ([`crate::median`]) — are per-run
//! state: the sampler owns one [`ActivationLaw`], applies every move it
//! makes to it, and refreshes it once per event, counting each refresh
//! into its own [`pp_core::MaintenanceStats`]:
//!
//! * a **patch** is an `O(delta)` refresh from the previous counts;
//! * a **rebuild** is an intentional from-scratch computation — the law's
//!   first refresh, or every refresh while patching is disabled;
//! * a **fallback rebuild** is the per-event recomputation a law pays past
//!   its integer-headroom gate (see `crate::majority::integer_law_headroom`),
//!   counted apart so the `u128`-headroom caveat stays visible
//!   ([`pp_core::MaintenanceStats::law_fallback_rebuilds`]).
//!
//! Because the law lives in the sampler, a replica keeps patching its own
//! law whichever worker thread serves it, and reports what a standalone
//! run with the same seed does.  The stateless
//! [`SamplingDynamics`](crate::sampling::SamplingDynamics) hooks build a
//! cold law from the counts through the same code.
//!
//! [`set_incremental_laws`] disables patching on the current thread, forcing
//! every refresh down the rebuild-from-counts path.  Patched and rebuilt
//! laws are bit-identical by construction, so the switch never changes
//! results, only cost; it exists for benchmark baselines and equivalence
//! tests.

use crate::majority::MajorityLaw;
use crate::median::MedianLaw;
use pp_core::{AgentState, Configuration, MaintenanceStats};
use rand::Rng;
use std::cell::Cell;

thread_local! {
    static INCREMENTAL_LAWS: Cell<bool> = const { Cell::new(true) };
}

/// Enables or disables incremental law patching on the current thread
/// (enabled by default).  Disabling never changes results — patched and
/// rebuilt laws are bit-identical — it only forces every refresh to pay
/// the full per-counts computation, which is the baseline the
/// `engine_microbench` incremental-vs-rebuild groups measure.
pub fn set_incremental_laws(enabled: bool) {
    INCREMENTAL_LAWS.with(|c| c.set(enabled));
}

/// Whether incremental law patching is enabled on the current thread.
#[must_use]
pub fn incremental_laws_enabled() -> bool {
    INCREMENTAL_LAWS.get()
}

/// One run's maintained activation law (module docs).  Built cold by
/// [`SamplingDynamics::activation_law`](crate::sampling::SamplingDynamics::activation_law);
/// only this crate's dynamics construct one.
#[derive(Debug, Clone)]
pub struct ActivationLaw {
    kind: LawKind,
    /// Whether the law reflects the counts it was last refreshed for, with
    /// no move applied since.
    fresh: bool,
}

/// The law of each dynamic that keeps one.
// One law per sampler: its size is immaterial, a box would add an
// indirection to every event.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum LawKind {
    Majority(MajorityLaw),
    Median(MedianLaw),
}

impl ActivationLaw {
    /// A cold law, computed at its first refresh.
    pub(crate) fn cold(kind: LawKind) -> Self {
        ActivationLaw { kind, fresh: false }
    }

    /// Applies one move the sampler made; `config` is the configuration
    /// after it.  Updates the aggregates that follow a move in `O(1)`–`O(k)`
    /// and leaves the rest to the next [`ActivationLaw::refresh`].
    pub(crate) fn apply_move(&mut self, from: AgentState, to: AgentState, config: &Configuration) {
        match &mut self.kind {
            LawKind::Majority(law) => law.apply_move(from, to, config),
            LawKind::Median(law) => law.apply_move(from, to, config),
        }
        self.fresh = false;
    }

    /// Brings the law to `config` unless it is already there, counting the
    /// refresh (patch, rebuild or fallback rebuild) into `stats`.
    pub(crate) fn refresh(&mut self, config: &Configuration, stats: &mut MaintenanceStats) {
        if self.fresh {
            return;
        }
        match &mut self.kind {
            LawKind::Majority(law) => law.refresh(config, stats),
            LawKind::Median(law) => law.refresh(config, stats),
        }
        self.fresh = true;
    }

    /// The probability that one activation from `config` changes nothing.
    /// The law must be fresh.
    pub(crate) fn null_probability(&self, config: &Configuration) -> f64 {
        debug_assert!(self.fresh, "the law was read before its refresh");
        match &self.kind {
            LawKind::Majority(law) => law.null_probability(config),
            LawKind::Median(law) => law.null_probability(config),
        }
    }

    /// Draws the `(current, new)` transition of a productive activation
    /// from `config`.  The law must be fresh.
    pub(crate) fn sample_move<R: Rng + ?Sized>(
        &self,
        config: &Configuration,
        rng: &mut R,
    ) -> Option<(AgentState, AgentState)> {
        debug_assert!(self.fresh, "the law was read before its refresh");
        match &self.kind {
            LawKind::Majority(law) => law.sample_move(config, rng),
            LawKind::Median(law) => law.sample_move(config, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_switch_is_thread_local() {
        assert!(incremental_laws_enabled());
        set_incremental_laws(false);
        assert!(!incremental_laws_enabled());
        let other = std::thread::spawn(incremental_laws_enabled)
            .join()
            .expect("probe thread panicked");
        assert!(other, "fresh threads must default to incremental");
        set_incremental_laws(true);
    }
}
