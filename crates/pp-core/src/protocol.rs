//! Protocol traits.
//!
//! Two levels of generality are provided:
//!
//! * [`PairwiseProtocol`] — a general population protocol over an arbitrary
//!   state type: the transition function `δ : Q² → Q²` may update both the
//!   responder and the initiator.
//! * [`OpinionProtocol`] — the specialization used by the paper and by every
//!   opinion dynamic in this repository: the state space is
//!   `{opinion 1..k, ⊥}` ([`AgentState`]) and only the responder updates.
//!   Every `OpinionProtocol` is automatically a `PairwiseProtocol`, and it is
//!   the interface the fast count-based simulator requires.

use crate::opinion::AgentState;

/// A general population protocol with transition function `δ : Q² → Q²`.
///
/// An interaction is an ordered pair *(responder, initiator)*; `transition`
/// returns the new states of the responder and the initiator in that order.
pub trait PairwiseProtocol {
    /// The agent state type `Q`.
    type State: Copy + Eq;

    /// Applies the transition function to the pair *(responder, initiator)*.
    fn transition(
        &self,
        responder: Self::State,
        initiator: Self::State,
    ) -> (Self::State, Self::State);

    /// A short human-readable protocol name used in reports.
    fn name(&self) -> &str {
        "unnamed protocol"
    }
}

/// A *one-way* opinion dynamic over the state space `{1..k, ⊥}`: in an
/// interaction only the responder updates, as in the paper's USD.
///
/// Implementors only define [`respond`](OpinionProtocol::respond); the blanket
/// [`PairwiseProtocol`] implementation keeps the initiator unchanged.
///
/// # Contract
///
/// `respond` must be a pure function of the two states: the same pair
/// always yields the same state, whatever the counts, the call order or
/// any interior state of the protocol.  [`crate::engine::BatchedEngine`]
/// relies on it: it calls `respond` once per ordered category pair, at
/// construction, and from then on reads only that
/// [`transition_table`](crate::engine::transition_table).  Its rows, its
/// event draws and its row patches are exact only while the table is the
/// protocol.
///
/// # Examples
///
/// ```
/// use pp_core::{AgentState, OpinionProtocol};
///
/// /// The Voter dynamic: the responder always adopts the initiator's opinion.
/// struct Voter { k: usize }
///
/// impl OpinionProtocol for Voter {
///     fn num_opinions(&self) -> usize { self.k }
///     fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
///         match initiator {
///             AgentState::Decided(_) => initiator,
///             AgentState::Undecided => responder,
///         }
///     }
/// }
/// ```
pub trait OpinionProtocol {
    /// The number of opinions `k` the protocol is configured for.
    fn num_opinions(&self) -> usize;

    /// New state of the responder after interacting with `initiator`; a
    /// pure function of the pair (see the trait's contract).
    fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState;

    /// A short human-readable protocol name used in reports.
    fn name(&self) -> &str {
        "unnamed opinion protocol"
    }
}

impl<P: OpinionProtocol> PairwiseProtocol for P {
    type State = AgentState;

    fn transition(&self, responder: AgentState, initiator: AgentState) -> (AgentState, AgentState) {
        (self.respond(responder, initiator), initiator)
    }

    fn name(&self) -> &str {
        OpinionProtocol::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;

    struct AdoptAlways {
        k: usize,
    }

    impl OpinionProtocol for AdoptAlways {
        fn num_opinions(&self) -> usize {
            self.k
        }
        fn respond(&self, responder: AgentState, initiator: AgentState) -> AgentState {
            match initiator {
                AgentState::Decided(_) => initiator,
                AgentState::Undecided => responder,
            }
        }
        fn name(&self) -> &str {
            "adopt-always"
        }
    }

    #[test]
    fn blanket_pairwise_impl_keeps_initiator_fixed() {
        let p = AdoptAlways { k: 3 };
        let (r, i) = PairwiseProtocol::transition(
            &p,
            AgentState::Undecided,
            AgentState::Decided(Opinion::new(2)),
        );
        assert_eq!(r, AgentState::decided(2));
        assert_eq!(i, AgentState::decided(2));
    }

    #[test]
    fn names_propagate_through_blanket_impl() {
        let p = AdoptAlways { k: 2 };
        assert_eq!(OpinionProtocol::name(&p), "adopt-always");
        assert_eq!(PairwiseProtocol::name(&p), "adopt-always");
    }
}
