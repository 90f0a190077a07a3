//! The k-opinion Undecided State Dynamics transition function.

use pp_core::{AgentState, OpinionProtocol};
use serde::{Deserialize, Serialize};

/// The k-opinion Undecided State Dynamics (USD) of the paper.
///
/// State space `Q = {1, …, k, ⊥}` and transition function (only the responder
/// `q` updates):
///
/// ```text
/// (q, q')  ->  (⊥, q')   if q, q' decided and q ≠ q'
/// (q, q')  ->  (q', q')  if q = ⊥ and q' decided
/// (q, q')  ->  (q, q')   otherwise
/// ```
///
/// # Examples
///
/// ```
/// use usd_core::UndecidedStateDynamics;
/// use pp_core::{AgentState, OpinionProtocol};
///
/// let usd = UndecidedStateDynamics::new(3);
/// // Disagreeing responder becomes undecided.
/// assert_eq!(
///     usd.respond(AgentState::decided(0), AgentState::decided(2)),
///     AgentState::Undecided
/// );
/// // Undecided responder adopts the initiator's opinion.
/// assert_eq!(
///     usd.respond(AgentState::Undecided, AgentState::decided(1)),
///     AgentState::decided(1)
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UndecidedStateDynamics {
    opinions: usize,
}

impl UndecidedStateDynamics {
    /// Creates the USD for `k` opinions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the USD needs at least one opinion");
        UndecidedStateDynamics { opinions: k }
    }

    /// The number of opinions `k`.
    #[must_use]
    pub fn opinions(&self) -> usize {
        self.opinions
    }

    /// Number of protocol states (`k + 1`, including `⊥`), the paper's `|Q|`.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.opinions + 1
    }
}

impl OpinionProtocol for UndecidedStateDynamics {
    fn num_opinions(&self) -> usize {
        self.opinions
    }

    fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
        match (responder, initiator) {
            // Two decided agents with different opinions: responder resets.
            (AgentState::Decided(a), AgentState::Decided(b)) if a != b => AgentState::Undecided,
            // Undecided responder adopts a decided initiator's opinion.
            (AgentState::Undecided, AgentState::Decided(b)) => AgentState::Decided(b),
            // Same opinion, or initiator undecided: nothing changes.
            _ => responder,
        }
    }

    fn name(&self) -> &str {
        "undecided state dynamics"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> AgentState {
        AgentState::decided(i)
    }

    #[test]
    fn transition_table_matches_paper_exactly() {
        let usd = UndecidedStateDynamics::new(4);
        // (q, q') with q, q' decided and different -> (⊥, q').
        assert_eq!(usd.respond(d(0), d(1)), AgentState::Undecided);
        assert_eq!(usd.respond(d(3), d(2)), AgentState::Undecided);
        // (⊥, q') with q' decided -> (q', q').
        assert_eq!(usd.respond(AgentState::Undecided, d(2)), d(2));
        // Same opinions: no change.
        assert_eq!(usd.respond(d(1), d(1)), d(1));
        // Initiator undecided: no change (decided responder).
        assert_eq!(usd.respond(d(1), AgentState::Undecided), d(1));
        // Both undecided: no change.
        assert_eq!(
            usd.respond(AgentState::Undecided, AgentState::Undecided),
            AgentState::Undecided
        );
    }

    #[test]
    fn only_responder_changes_under_pairwise_view() {
        use pp_core::PairwiseProtocol;
        let usd = UndecidedStateDynamics::new(2);
        let (r, i) = PairwiseProtocol::transition(&usd, d(0), d(1));
        assert_eq!(r, AgentState::Undecided);
        assert_eq!(i, d(1));
    }

    #[test]
    fn productive_interactions_are_exactly_the_two_first_rules() {
        let usd = UndecidedStateDynamics::new(3);
        for r in 0..4usize {
            for i in 0..4usize {
                let rs = if r == 3 { AgentState::Undecided } else { d(r) };
                let is = if i == 3 { AgentState::Undecided } else { d(i) };
                let productive = usd.respond(rs, is) != rs;
                let expected = (rs.is_decided() && is.is_decided() && rs != is)
                    || (rs.is_undecided() && is.is_decided());
                assert_eq!(productive, expected, "r={rs:?} i={is:?}");
            }
        }
    }

    #[test]
    fn state_count_includes_undecided() {
        assert_eq!(UndecidedStateDynamics::new(5).state_count(), 6);
        assert_eq!(UndecidedStateDynamics::new(5).opinions(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one opinion")]
    fn zero_opinions_rejected() {
        let _ = UndecidedStateDynamics::new(0);
    }

    #[test]
    fn name_is_descriptive() {
        assert_eq!(
            OpinionProtocol::name(&UndecidedStateDynamics::new(2)),
            "undecided state dynamics"
        );
    }
}
