//! Feature metadata for assembled vectors.
//!
//! A fitted [`crate::KddPipeline`] carries a [`FeatureSchema`] naming
//! every output column (38 continuous names, then one `field=value`
//! entry per one-hot categorical column) and tagging its
//! [`FeatureKind`]. Downstream tools use it to explain map dimensions —
//! e.g. `detect::explain` reports the most-deviant *named* features of
//! an anomalous record — and [`FeatureSchema::project`] keeps names
//! aligned after feature selection ([`crate::select`]).

use serde::{Deserialize, Serialize};

/// The kind of a single output feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Unbounded non-negative quantity (bytes, counts, seconds).
    Continuous,
    /// A rate in `[0, 1]`.
    Rate,
    /// A `{0, 1}` indicator.
    Binary,
    /// One column of a one-hot encoded categorical field.
    OneHot,
}

/// Ordered metadata describing every column of a feature vector.
///
/// # Example
///
/// ```
/// use featurize::{FeatureKind, FeatureSchema};
///
/// let mut schema = FeatureSchema::new();
/// schema.push("duration", FeatureKind::Continuous);
/// schema.push("protocol=tcp", FeatureKind::OneHot);
/// assert_eq!(schema.len(), 2);
/// assert_eq!(schema.name(1), "protocol=tcp");
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureSchema {
    names: Vec<String>,
    kinds: Vec<FeatureKind>,
}

impl FeatureSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a feature.
    pub fn push(&mut self, name: impl Into<String>, kind: FeatureKind) {
        self.names.push(name.into());
        self.kinds.push(kind);
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the schema has no features.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of feature `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Kind of feature `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    // LINT-ALLOW(no-index): reachable by name only, through the `io::Error::kind()` calls of the shared frame readers; no serving path calls FeatureSchema::kind
    pub fn kind(&self, i: usize) -> FeatureKind {
        self.kinds[i]
    }

    /// All names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a feature by name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// A schema containing only the features at `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    // LINT-ALLOW(no-index): documented panicking precondition; serving passes selector indices already bounded by the fitted schema width
    pub fn project(&self, indices: &[usize]) -> FeatureSchema {
        FeatureSchema {
            names: indices.iter().map(|&i| self.names[i].clone()).collect(),
            kinds: indices.iter().map(|&i| self.kinds[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureSchema {
        let mut s = FeatureSchema::new();
        s.push("a", FeatureKind::Continuous);
        s.push("b", FeatureKind::Rate);
        s.push("c", FeatureKind::Binary);
        s
    }

    #[test]
    fn push_and_accessors() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.name(0), "a");
        assert_eq!(s.kind(1), FeatureKind::Rate);
        assert_eq!(s.names(), &["a", "b", "c"]);
    }

    #[test]
    fn index_of_finds_by_name() {
        let s = sample();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zzz"), None);
    }

    #[test]
    fn project_selects_and_reorders() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(0), "c");
        assert_eq!(p.kind(1), FeatureKind::Continuous);
    }

    #[test]
    fn empty_schema() {
        let s = FeatureSchema::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: FeatureSchema = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
