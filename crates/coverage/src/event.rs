//! Identifier newtypes shared across the coverage subsystem.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense index of a coverage event within a [`crate::CoverageModel`].
///
/// Event ids are only meaningful relative to the model that produced them;
/// mixing ids across models is a logic error that the repository guards
/// against by checking vector lengths.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::EventId;
/// let e = EventId(3);
/// assert_eq!(e.index(), 3);
/// assert_eq!(format!("{e}"), "event#3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId(pub u32);

impl EventId {
    /// Returns the id as a `usize` index into model-sized arrays.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

impl From<u32> for EventId {
    fn from(value: u32) -> Self {
        EventId(value)
    }
}

/// Dense index of a test-template within a template library.
///
/// The coverage repository keys per-template statistics by `TemplateId` so it
/// stays decoupled from the template crate.
///
/// # Examples
///
/// ```
/// use ascdg_coverage::TemplateId;
/// assert_eq!(TemplateId(7).index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TemplateId(pub u32);

impl TemplateId {
    /// Returns the id as a `usize` index into library-sized arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template#{}", self.0)
    }
}

impl From<u32> for TemplateId {
    fn from(value: u32) -> Self {
        TemplateId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_id_roundtrip() {
        let e = EventId::from(9u32);
        assert_eq!(e.index(), 9);
        assert_eq!(e, EventId(9));
        assert!(EventId(1) < EventId(2));
    }

    #[test]
    fn template_id_display() {
        assert_eq!(TemplateId(4).to_string(), "template#4");
        assert_eq!(EventId(4).to_string(), "event#4");
    }

    #[test]
    fn ids_hash_and_order() {
        use std::collections::BTreeSet;
        let set: BTreeSet<_> = [EventId(3), EventId(1), EventId(3)].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().next(), Some(&EventId(1)));
    }
}
