//! Relation schemas.

use gsj_common::{FxHashMap, GsjError, Result};

/// A relation schema `R(A1, ..., Ak)`.
///
/// Attribute names are plain strings; the gSQL rewriter uses the
/// `alias.attr` convention to disambiguate after renames, and
/// [`Schema::base_name`] recovers the unqualified name. Natural joins match
/// on exact attribute-name equality, as in SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<String>,
    index: FxHashMap<String, usize>,
}

impl Schema {
    /// Create a schema; attribute names must be distinct.
    pub fn new(name: impl Into<String>, attrs: Vec<String>) -> Result<Self> {
        let name = name.into();
        let mut index = FxHashMap::default();
        for (i, a) in attrs.iter().enumerate() {
            if index.insert(a.clone(), i).is_some() {
                return Err(GsjError::Schema(format!(
                    "duplicate attribute `{a}` in schema `{name}`"
                )));
            }
        }
        Ok(Schema { name, attrs, index })
    }

    /// Convenience constructor from string slices.
    pub fn of(name: &str, attrs: &[&str]) -> Self {
        Self::new(name, attrs.iter().map(|s| s.to_string()).collect())
            .expect("static schema must be well-formed")
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute names, in order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Arity `k`.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Position of an attribute.
    pub fn position(&self, attr: &str) -> Option<usize> {
        self.index.get(attr).copied()
    }

    /// Position of an attribute, erroring with context when absent.
    pub fn require(&self, attr: &str) -> Result<usize> {
        self.position(attr).ok_or_else(|| {
            GsjError::NotFound(format!(
                "attribute `{attr}` in schema `{}({})`",
                self.name,
                self.attrs.join(", ")
            ))
        })
    }

    /// True iff `attr` exists.
    pub fn contains(&self, attr: &str) -> bool {
        self.index.contains_key(attr)
    }

    /// Attributes present in both schemas (the natural-join keys), in
    /// `self`'s order.
    pub fn common_attrs(&self, other: &Schema) -> Vec<String> {
        self.attrs
            .iter()
            .filter(|a| other.contains(a))
            .cloned()
            .collect()
    }

    /// A renamed copy in which every attribute is qualified as
    /// `alias.base`, where `base` is the existing unqualified name. The
    /// schema name becomes the alias. This models SQL's `R as T`.
    pub fn qualify(&self, alias: &str) -> Schema {
        let attrs = self
            .attrs
            .iter()
            .map(|a| format!("{alias}.{}", Self::base_name(a)))
            .collect();
        Schema::new(alias, attrs).expect("qualified names stay distinct")
    }

    /// Strip any `alias.` prefix from an attribute name.
    pub fn base_name(attr: &str) -> &str {
        attr.rsplit_once('.').map(|(_, b)| b).unwrap_or(attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_and_lookup() {
        let s = Schema::of("product", &["pid", "name", "price"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position("name"), Some(1));
        assert!(s.contains("pid"));
        assert!(!s.contains("risk"));
        assert!(s.require("risk").is_err());
    }

    #[test]
    fn duplicate_attrs_are_rejected() {
        let r = Schema::new("x", vec!["a".into(), "a".into()]);
        assert!(matches!(r, Err(GsjError::Schema(_))));
    }

    #[test]
    fn common_attrs_in_left_order() {
        let a = Schema::of("a", &["x", "y", "z"]);
        let b = Schema::of("b", &["z", "w", "x"]);
        assert_eq!(a.common_attrs(&b), vec!["x".to_string(), "z".to_string()]);
    }

    #[test]
    fn qualify_prefixes_and_strips() {
        let s = Schema::of("customer", &["cid", "name"]);
        let q = s.qualify("T1");
        assert_eq!(q.name(), "T1");
        assert_eq!(q.attrs(), &["T1.cid".to_string(), "T1.name".to_string()]);
        // Re-qualifying replaces the alias instead of stacking.
        let q2 = q.qualify("T2");
        assert_eq!(q2.attrs(), &["T2.cid".to_string(), "T2.name".to_string()]);
        assert_eq!(Schema::base_name("T1.cid"), "cid");
        assert_eq!(Schema::base_name("cid"), "cid");
    }
}
