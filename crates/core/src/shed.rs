//! Load-shedding policy for per-SPU admission control.
//!
//! Entitlement caps what an SPU may *consume*; it says nothing about
//! what clients may *offer*. Under open-loop load an entitled-but-
//! overloaded SPU builds an unbounded request queue whose sojourn times
//! grow without limit — the metastable failure mode — and its queued
//! work leaks pressure into shared kernel structures. A [`ShedPolicy`]
//! decides which queued requests to refuse so that the requests the SPU
//! *does* serve still meet their deadlines.
//!
//! This is pure policy — the kernel's admission queue consults it; this
//! crate never touches a queue itself.

use std::fmt;

/// How an SPU's admission queue sheds load when overloaded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ShedPolicy {
    /// Never shed: the wait queue is unbounded. Under sustained
    /// overload this is the metastable regime — queue sojourn grows
    /// without bound and goodput collapses.
    #[default]
    None,
    /// Classic bounded queue: refuse new arrivals while the queue is at
    /// capacity. Bounds memory and sojourn, but spends service on stale
    /// requests already past their deadlines.
    TailDrop,
    /// Deadline-aware: expire queued requests whose deadlines have
    /// already passed (they can only become dead work), then bound the
    /// queue like tail-drop. Sheds exactly the work that cannot
    /// succeed.
    DeadlineAware,
    /// CoDel-style: watch queue sojourn; once it has exceeded a target
    /// continuously for a full interval, drop from the head until
    /// sojourn recovers. Adapts to load without a tuned queue length.
    Codel,
}

impl ShedPolicy {
    /// All policies, mildest first.
    pub const ALL: [ShedPolicy; 4] = [
        ShedPolicy::None,
        ShedPolicy::TailDrop,
        ShedPolicy::DeadlineAware,
        ShedPolicy::Codel,
    ];

    /// Short stable label for tables and cell keys.
    pub const fn name(self) -> &'static str {
        match self {
            ShedPolicy::None => "none",
            ShedPolicy::TailDrop => "tail-drop",
            ShedPolicy::DeadlineAware => "deadline",
            ShedPolicy::Codel => "codel",
        }
    }

    /// Whether the policy bounds the wait queue's length.
    pub const fn bounds_queue(self) -> bool {
        !matches!(self, ShedPolicy::None | ShedPolicy::Codel)
    }

    /// Whether the policy ever drops an already-queued request (as
    /// opposed to only refusing new arrivals).
    pub const fn drops_queued(self) -> bool {
        matches!(self, ShedPolicy::DeadlineAware | ShedPolicy::Codel)
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl event_sim::Fingerprint for ShedPolicy {
    fn fingerprint(&self, h: &mut event_sim::Fnv64) {
        h.write_str(self.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_each_once() {
        assert_eq!(ShedPolicy::ALL.len(), 4);
        let mut names: Vec<&str> = ShedPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn default_is_none() {
        assert_eq!(ShedPolicy::default(), ShedPolicy::None);
    }

    #[test]
    fn properties() {
        assert!(!ShedPolicy::None.bounds_queue());
        assert!(!ShedPolicy::None.drops_queued());
        assert!(ShedPolicy::TailDrop.bounds_queue());
        assert!(!ShedPolicy::TailDrop.drops_queued());
        assert!(ShedPolicy::DeadlineAware.bounds_queue());
        assert!(ShedPolicy::DeadlineAware.drops_queued());
        assert!(!ShedPolicy::Codel.bounds_queue());
        assert!(ShedPolicy::Codel.drops_queued());
    }

    #[test]
    fn display_matches_name() {
        for p in ShedPolicy::ALL {
            assert_eq!(p.to_string(), p.name());
        }
    }
}
