//! Cache line state: MESI coherence states.

use serde::{Deserialize, Serialize};

/// MESI coherence state of a cache line held in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MesiState {
    /// The line is dirty and owned exclusively by one core.
    Modified,
    /// The line is clean and held by exactly one core.
    Exclusive,
    /// The line is clean and may be held by several cores.
    Shared,
    /// The line is not valid in this cache.  (Represented by absence in practice; this
    /// variant exists so transitions can be expressed exhaustively.)
    Invalid,
}

impl MesiState {
    /// True if a local write can proceed without a coherence transaction.
    pub fn can_write_silently(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// True if the line holds valid data.
    pub fn is_valid(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// The state after a local write hit.
    pub fn after_local_write(self) -> MesiState {
        match self {
            MesiState::Invalid => MesiState::Invalid,
            _ => MesiState::Modified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_write_only_in_m_or_e() {
        assert!(MesiState::Modified.can_write_silently());
        assert!(MesiState::Exclusive.can_write_silently());
        assert!(!MesiState::Shared.can_write_silently());
        assert!(!MesiState::Invalid.can_write_silently());
    }

    #[test]
    fn local_write_transitions_to_modified() {
        assert_eq!(
            MesiState::Exclusive.after_local_write(),
            MesiState::Modified
        );
        assert_eq!(MesiState::Shared.after_local_write(), MesiState::Modified);
        assert_eq!(MesiState::Modified.after_local_write(), MesiState::Modified);
        assert_eq!(MesiState::Invalid.after_local_write(), MesiState::Invalid);
    }

    #[test]
    fn validity() {
        assert!(MesiState::Modified.is_valid());
        assert!(MesiState::Shared.is_valid());
        assert!(!MesiState::Invalid.is_valid());
    }
}
