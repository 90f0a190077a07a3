//! Thread-local bookkeeping for incremental activation-law maintenance.
//!
//! The sampling dynamics keep their per-counts activation laws in
//! single-entry thread-local memos (see [`crate::majority`] and
//! [`crate::median`]): a law evaluated for counts that differ from the
//! memoized ones by a small delta is *patched* in place instead of being
//! recomputed from scratch.  Three pieces of shared state live here:
//!
//! * **Counters** — every patch/rebuild is noted on the executing thread;
//!   [`SequentialSampler`](crate::sampling::SequentialSampler) snapshots the
//!   counters around each `advance` call and attributes the delta to its own
//!   [`pp_core::MaintenanceStats`].  Attribution is exact because law
//!   evaluations happen synchronously inside the call being measured.
//!   Rebuilds split into two counters: *intentional* cold rebuilds (first
//!   use, parameter change, patching disabled) and *fallback* rebuilds — the
//!   per-event recomputations a workload pays when its law exceeds the
//!   integer-headroom gate and falls back to the floating-point program
//!   (see `crate::majority::integer_law_headroom`).  Lumping the two
//!   together silently hid the u128-headroom caveat; they are reported
//!   separately through [`pp_core::MaintenanceStats::law_fallback_rebuilds`].
//! * **The incremental switch** — [`set_incremental_laws`] disables patching
//!   on the current thread, forcing every memo miss down the
//!   rebuild-from-counts path.  This restores the pre-incremental behaviour
//!   (the memo still serves exact-counts hits) and exists for benchmark
//!   baselines and equivalence tests; patched and rebuilt laws are
//!   bit-identical by construction, so the switch never changes results,
//!   only cost.
//! * **The run generation** — memos outlive the run that warmed them (they
//!   are thread-local, runs are not), so a second run scheduled on the same
//!   worker thread used to inherit the previous run's memo and silently
//!   *patch* from its counts: bit-identical values (patches are exact), but
//!   cross-run state leakage and misattributed maintenance counters.  Every
//!   engine that owns law evaluations now takes a fresh token from
//!   [`new_run_generation`] and announces it via [`set_active_generation`]
//!   before touching a law; memos record the generation that warmed them
//!   and treat a mismatch as a cold miss (full rebuild, no cross-run
//!   patch).  The announcement also carries whether the run has evaluated
//!   a law before (`active_run_warm`): closed-form laws read nothing from
//!   a memo, so they count a run's first evaluation as the rebuild and
//!   every later one as a patch, whichever thread serves it — replicas
//!   interleaved on shared worker threads report what standalone runs
//!   do.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static LAW_PATCHES: Cell<u64> = const { Cell::new(0) };
    static LAW_REBUILDS: Cell<u64> = const { Cell::new(0) };
    static LAW_FALLBACK_REBUILDS: Cell<u64> = const { Cell::new(0) };
    static INCREMENTAL_LAWS: Cell<bool> = const { Cell::new(true) };
    /// The run generation law evaluations on this thread belong to right
    /// now.  `0` is the "no run announced" generation fresh threads (and
    /// direct law calls outside any engine) evaluate under.
    static ACTIVE_GENERATION: Cell<u64> = const { Cell::new(0) };
    /// Whether the active run has evaluated a law before: cleared by every
    /// run announcement, set by every noted law evaluation.
    static ACTIVE_RUN_WARM: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide source of run-generation tokens (see [`new_run_generation`]).
static RUN_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Counter snapshot `(patches, rebuilds, fallback_rebuilds)` for the current
/// thread, used to attribute law-maintenance work to the engine that
/// triggered it.
#[must_use]
pub fn law_event_snapshot() -> (u64, u64, u64) {
    (
        LAW_PATCHES.get(),
        LAW_REBUILDS.get(),
        LAW_FALLBACK_REBUILDS.get(),
    )
}

/// `(patches, rebuilds, fallback_rebuilds)` noted on this thread since
/// `before` was taken with [`law_event_snapshot`].
#[must_use]
pub fn law_events_since(before: (u64, u64, u64)) -> (u64, u64, u64) {
    let (patches, rebuilds, fallbacks) = law_event_snapshot();
    (
        patches - before.0,
        rebuilds - before.1,
        fallbacks - before.2,
    )
}

/// Notes one in-place activation-law patch on this thread.
pub(crate) fn note_law_patch() {
    LAW_PATCHES.with(|c| c.set(c.get() + 1));
    ACTIVE_RUN_WARM.set(true);
}

/// Notes one intentional from-scratch activation-law computation on this
/// thread (first use, parameter change, or patching disabled).
pub(crate) fn note_law_rebuild() {
    LAW_REBUILDS.with(|c| c.set(c.get() + 1));
    ACTIVE_RUN_WARM.set(true);
}

/// Notes one *fallback* law computation on this thread: the law exceeded the
/// integer-headroom gate and was recomputed through the floating-point
/// program — a per-event cost the headroom caveat makes visible.
pub(crate) fn note_law_fallback_rebuild() {
    LAW_FALLBACK_REBUILDS.with(|c| c.set(c.get() + 1));
    ACTIVE_RUN_WARM.set(true);
}

/// Enables or disables incremental law patching on the current thread
/// (enabled by default).  Disabling never changes results — patched and
/// rebuilt laws are bit-identical — it only forces every memo miss to pay
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

/// Takes a fresh run-generation token (process-wide unique, never `0`).
/// Engines that own law evaluations take one at construction and announce
/// it through [`set_active_generation`] before each stretch of law work.
#[must_use]
pub fn new_run_generation() -> u64 {
    RUN_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Announces the run generation subsequent law evaluations on this thread
/// belong to, as a run that has not evaluated a law yet (see the module
/// docs).  Memos warmed under a different generation treat
/// their next refresh as a cold miss (full rebuild) instead of patching
/// from the previous run's counts.
pub fn set_active_generation(generation: u64) {
    ACTIVE_GENERATION.with(|c| c.set(generation));
    ACTIVE_RUN_WARM.set(false);
}

/// Marks the announced run as one that has evaluated a law before — on
/// another thread, or before another run's evaluations took this thread.
pub(crate) fn mark_active_run_warm() {
    ACTIVE_RUN_WARM.set(true);
}

/// Whether the announced run has evaluated a law before.
pub(crate) fn active_run_warm() -> bool {
    ACTIVE_RUN_WARM.get()
}

/// The run generation law evaluations on this thread currently belong to
/// (`0` when no engine announced one).
#[must_use]
pub fn active_generation() -> u64 {
    ACTIVE_GENERATION.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_deltas() {
        let before = law_event_snapshot();
        note_law_patch();
        note_law_patch();
        note_law_rebuild();
        note_law_fallback_rebuild();
        assert_eq!(law_events_since(before), (2, 1, 1));
    }

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

    #[test]
    fn run_generations_are_unique_and_thread_locally_announced() {
        let a = new_run_generation();
        let b = new_run_generation();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        set_active_generation(a);
        assert_eq!(active_generation(), a);
        let other = std::thread::spawn(active_generation)
            .join()
            .expect("probe thread panicked");
        assert_eq!(other, 0, "fresh threads start at the null generation");
        set_active_generation(0);
    }
}
