//! Extraction quality: the drop-and-recover F-measure protocol of Exp-2.
//!
//! "For each relation schema R, we first picked and dropped m attributes
//! from R ... We then tested the ability of RExt to recover the dropped
//! values from graph G ... We calculated the accuracy (F-measure) of join
//! results by taking the original relation as the ground truth."

use gsj_common::{FxHashMap, Result, Value};
use gsj_her::normalize::value_text;
use gsj_relational::Relation;

/// Precision / recall / F1 of recovered attribute values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FMeasure {
    /// Correct non-null predictions / all non-null predictions.
    pub precision: f64,
    /// Correct non-null predictions / all non-null ground-truth cells.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
    /// Raw counts.
    pub correct: usize,
    /// Non-null predicted cells.
    pub predicted: usize,
    /// Non-null ground-truth cells.
    pub expected: usize,
}

impl FMeasure {
    /// The measure of `correct` hits among `predicted` non-null cells
    /// against `expected` non-null truth cells.
    pub fn from_counts(correct: usize, predicted: usize, expected: usize) -> FMeasure {
        let precision = if predicted == 0 {
            0.0
        } else {
            correct as f64 / predicted as f64
        };
        let recall = if expected == 0 {
            0.0
        } else {
            correct as f64 / expected as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        FMeasure {
            precision,
            recall,
            f1,
            correct,
            predicted,
            expected,
        }
    }
}

/// Values match if their normalized texts agree (case/punctuation
/// insensitive; NULLs never match).
pub fn values_match(a: &Value, b: &Value) -> bool {
    match (value_text(a), value_text(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// Compare `predicted` against `truth`, joined on `key` (an attribute of
/// both), over the given `(predicted_attr, truth_attr)` pairs.
///
/// Truth rows absent from `predicted` count as missed (recall); predicted
/// non-null cells for keys absent from `truth` count as wrong (precision).
pub fn f_measure(
    predicted: &Relation,
    truth: &Relation,
    key: &str,
    attr_pairs: &[(String, String)],
) -> Result<FMeasure> {
    let pk = predicted.schema().require(key)?;
    let tk = truth.schema().require(key)?;
    let pred_pos: Vec<usize> = attr_pairs
        .iter()
        .map(|(p, _)| predicted.schema().require(p))
        .collect::<Result<_>>()?;
    let truth_pos: Vec<usize> = attr_pairs
        .iter()
        .map(|(_, t)| truth.schema().require(t))
        .collect::<Result<_>>()?;

    // key → truth row (later rows override, as a map insert does).
    let mut truth_by_key: FxHashMap<Value, usize> = FxHashMap::default();
    for r in 0..truth.len() {
        truth_by_key.insert(truth.value_at(r, tk), r);
    }

    let mut correct = 0usize;
    let mut predicted_nonnull = 0usize;
    for r in 0..predicted.len() {
        let truth_row = truth_by_key.get(&predicted.value_at(r, pk));
        for (pp, tp) in pred_pos.iter().zip(&truth_pos) {
            let pv = predicted.value_at(r, *pp);
            if pv.is_null() {
                continue;
            }
            predicted_nonnull += 1;
            if let Some(&t) = truth_row {
                if values_match(&pv, &truth.value_at(t, *tp)) {
                    correct += 1;
                }
            }
        }
    }
    let expected: usize = truth_pos
        .iter()
        .map(|&i| {
            (0..truth.len())
                .filter(|&r| !truth.col(i).is_null(r))
                .count()
        })
        .sum();
    Ok(FMeasure::from_counts(correct, predicted_nonnull, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_relational::Schema;

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        let mut r = Relation::empty(Schema::of(name, attrs));
        for row in rows {
            r.push_values(row).unwrap();
        }
        r
    }

    #[test]
    fn perfect_recovery_is_one() {
        let truth = rel(
            "t",
            &["id", "loc"],
            vec![
                vec![Value::str("a"), Value::str("UK")],
                vec![Value::str("b"), Value::str("US")],
            ],
        );
        let m = f_measure(
            &truth.clone(),
            &truth,
            "id",
            &[("loc".into(), "loc".into())],
        )
        .unwrap();
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.correct, 2);
    }

    #[test]
    fn nulls_hit_recall_not_precision() {
        let truth = rel(
            "t",
            &["id", "loc"],
            vec![
                vec![Value::str("a"), Value::str("UK")],
                vec![Value::str("b"), Value::str("US")],
            ],
        );
        let pred = rel(
            "p",
            &["id", "loc"],
            vec![
                vec![Value::str("a"), Value::str("UK")],
                vec![Value::str("b"), Value::Null],
            ],
        );
        let m = f_measure(&pred, &truth, "id", &[("loc".into(), "loc".into())]).unwrap();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 0.5);
    }

    #[test]
    fn wrong_values_hit_precision() {
        let truth = rel(
            "t",
            &["id", "loc"],
            vec![vec![Value::str("a"), Value::str("UK")]],
        );
        let pred = rel(
            "p",
            &["id", "loc"],
            vec![vec![Value::str("a"), Value::str("France")]],
        );
        let m = f_measure(&pred, &truth, "id", &[("loc".into(), "loc".into())]).unwrap();
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn matching_is_normalization_insensitive() {
        assert!(values_match(&Value::str("G&L ESG"), &Value::str("g l esg")));
        assert!(values_match(&Value::Int(5), &Value::str("5")));
        assert!(!values_match(&Value::Null, &Value::Null));
    }

    #[test]
    fn extra_predicted_keys_hurt_precision() {
        let truth = rel(
            "t",
            &["id", "x"],
            vec![vec![Value::str("a"), Value::str("v")]],
        );
        let pred = rel(
            "p",
            &["id", "x"],
            vec![
                vec![Value::str("a"), Value::str("v")],
                vec![Value::str("ghost"), Value::str("v")],
            ],
        );
        let m = f_measure(&pred, &truth, "id", &[("x".into(), "x".into())]).unwrap();
        assert_eq!(m.correct, 1);
        assert_eq!(m.predicted, 2);
        assert!((m.precision - 0.5).abs() < 1e-12);
    }
}
