//! The database catalog: named relations.

use crate::relation::Relation;
use gsj_common::{FxHashMap, GsjError, Result};

/// A relational database `D = (D1, ..., Dn)` keyed by relation name.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: FxHashMap<String, Relation>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a relation under its schema name, stored
    /// (see [`Relation::materialized`]).
    pub fn insert(&mut self, relation: Relation) {
        self.relations.insert(
            relation.schema().name().to_string(),
            relation.materialized(),
        );
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| GsjError::NotFound(format!("relation `{name}`")))
    }

    /// True iff a relation with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Remove a relation.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Names of all registered relations (unordered).
    pub fn names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// Total tuple count across relations (Table II reporting).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn insert_get_remove() {
        let mut db = Database::new();
        db.insert(Relation::empty(Schema::of("customer", &["cid"])));
        assert!(db.contains("customer"));
        assert_eq!(db.get("customer").unwrap().schema().name(), "customer");
        assert!(db.get("absent").is_err());
        assert!(db.remove("customer").is_some());
        assert!(!db.contains("customer"));
    }
}
