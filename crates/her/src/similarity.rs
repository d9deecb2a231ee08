//! Set and string similarity measures.

use gsj_common::FxHashSet;

/// Jaccard similarity of two token sets.
pub fn jaccard(a: &FxHashSet<String>, b: &FxHashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Containment: |a ∩ b| / |a| — how much of `a` is covered by `b`.
/// Useful when a tuple value is a fragment of a longer vertex label.
pub fn containment(a: &FxHashSet<String>, b: &FxHashSet<String>) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.intersection(b).count() as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> FxHashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&set(&["a", "b"]), &set(&["a", "b"])), 1.0);
        assert_eq!(jaccard(&set(&["a"]), &set(&["b"])), 0.0);
        assert!((jaccard(&set(&["a", "b"]), &set(&["b", "c"])) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&set(&[]), &set(&[])), 1.0);
    }

    #[test]
    fn containment_is_asymmetric() {
        let a = set(&["g", "l"]);
        let b = set(&["g", "l", "esg"]);
        assert_eq!(containment(&a, &b), 1.0);
        assert!((containment(&b, &a) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(containment(&set(&[]), &b), 0.0);
    }
}
