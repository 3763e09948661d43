//! Event payloads and link selectors.

use mwr_types::ProcessId;

use crate::automaton::TimerId;

/// Selects a set of directed links, with `None` acting as a wildcard.
///
/// Used by hold/release controls: the proofs' "operation *O* skips server
/// *s*" is expressed by holding both directed links between the client and
/// the server for the duration of the round-trip.
///
/// # Examples
///
/// ```
/// use mwr_sim::LinkStatus; // re-exported alongside the selector helpers
/// use mwr_types::ProcessId;
///
/// let sel = mwr_sim::EventKind::<()>::link_between(
///     ProcessId::reader(0),
///     ProcessId::server(2),
/// );
/// assert_eq!(sel.len(), 2); // both directions
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSelector {
    /// Source endpoint; `None` matches any source.
    pub from: Option<ProcessId>,
    /// Destination endpoint; `None` matches any destination.
    pub to: Option<ProcessId>,
}

impl LinkSelector {
    /// Selects the single directed link `from → to`.
    pub const fn directed(from: ProcessId, to: ProcessId) -> Self {
        LinkSelector {
            from: Some(from),
            to: Some(to),
        }
    }

    /// Selects every link into `to`.
    pub const fn into(to: ProcessId) -> Self {
        LinkSelector { from: None, to: Some(to) }
    }

    /// Selects every link out of `from`.
    pub const fn out_of(from: ProcessId) -> Self {
        LinkSelector { from: Some(from), to: None }
    }

    /// Whether this selector matches the directed link `from → to`.
    pub fn matches(&self, from: ProcessId, to: ProcessId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// Network control actions, schedulable like any other event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Start holding messages on the selected links.
    Hold(LinkSelector),
    /// Stop holding and re-inject parked messages on the selected links.
    Release(LinkSelector),
}

/// The payload of a scheduled event.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// A message arriving at a process.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// An external input injected by the harness (e.g. an operation
    /// invocation delivered to a client automaton).
    External {
        /// Recipient.
        to: ProcessId,
        /// The input.
        msg: M,
    },
    /// A timer set by an automaton firing.
    Timer {
        /// The process whose timer fires.
        process: ProcessId,
        /// The identifier returned when the timer was set.
        timer: TimerId,
    },
    /// A process crashing (it stops processing everything afterwards).
    Crash {
        /// The crashing process.
        process: ProcessId,
    },
    /// A network control action.
    Control(ControlAction),
}

impl<M> EventKind<M> {
    /// Convenience: the pair of selectors covering both directions between
    /// two processes (the shape used to make an operation "skip" a server).
    pub fn link_between(a: ProcessId, b: ProcessId) -> Vec<LinkSelector> {
        vec![LinkSelector::directed(a, b), LinkSelector::directed(b, a)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_wildcards_match() {
        let r = ProcessId::reader(0);
        let s = ProcessId::server(1);
        let exact = LinkSelector::directed(r, s);
        assert!(exact.matches(r, s));
        assert!(!exact.matches(s, r));

        let any_into = LinkSelector::into(s);
        assert!(any_into.matches(r, s));
        assert!(any_into.matches(ProcessId::writer(0), s));
        assert!(!any_into.matches(s, r));

        let any_from = LinkSelector::out_of(r);
        assert!(any_from.matches(r, s));
        assert!(!any_from.matches(s, r));
    }

    #[test]
    fn link_between_covers_both_directions() {
        let r = ProcessId::reader(0);
        let s = ProcessId::server(0);
        let sels = EventKind::<()>::link_between(r, s);
        assert!(sels.iter().any(|sel| sel.matches(r, s)));
        assert!(sels.iter().any(|sel| sel.matches(s, r)));
    }
}
