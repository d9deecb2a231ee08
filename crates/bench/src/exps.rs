//! Shared experiment machinery beyond the recover protocol: variant lists,
//! result-set comparison, and scale handling.

use gsj_core::config::RExtConfig;
use gsj_datagen::Scale;
use gsj_relational::Relation;

/// The six method variants of Exp-2(b) / Exp-3(III), in the paper's
/// legend order.
pub fn variants() -> Vec<(&'static str, RExtConfig)> {
    vec![
        ("RExt", RExtConfig::standard()),
        ("RExtBertEmb", RExtConfig::bert_emb()),
        ("RExtShortEmb", RExtConfig::short_emb()),
        ("RExtBertSeq", RExtConfig::bert_seq()),
        ("RExtShortSeq", RExtConfig::short_seq()),
        ("RndPath", RExtConfig::rnd_path()),
    ]
}

/// The scale of a run when `GSJ_SCALE` is not set — the scale of the
/// committed `experiment_results.txt`.
const DEFAULT_SCALE: Scale = Scale(40);

/// The scale of this run: the `GSJ_SCALE` env var, else [`DEFAULT_SCALE`].
pub fn scale_from_env() -> Scale {
    std::env::var("GSJ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .map_or(DEFAULT_SCALE, Scale)
}

/// Row-multiset F1 between two query results (the "relative accuracy" of
/// Table III: exact join results as ground truth).
pub fn result_f1(approx: &Relation, exact: &Relation) -> f64 {
    use std::collections::HashMap;
    let keyed = |r: &Relation| -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for t in r.rows() {
            let key: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
            *m.entry(key.join("\u{1}")).or_insert(0) += 1;
        }
        m
    };
    let (ha, he) = (keyed(approx), keyed(exact));
    let inter: usize = ha
        .iter()
        .map(|(k, &n)| n.min(he.get(k).copied().unwrap_or(0)))
        .sum();
    let (na, ne) = (approx.len(), exact.len());
    if ne == 0 && na == 0 {
        return 1.0;
    }
    if na == 0 || ne == 0 {
        return 0.0;
    }
    let p = inter as f64 / na as f64;
    let r = inter as f64 / ne as f64;
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::Value;
    use gsj_relational::Schema;

    fn rel(rows: &[&str]) -> Relation {
        let mut r = Relation::empty(Schema::of("t", &["x"]));
        for row in rows {
            r.push_values(vec![Value::str(*row)]).unwrap();
        }
        r
    }

    #[test]
    fn result_f1_basics() {
        assert_eq!(result_f1(&rel(&["a", "b"]), &rel(&["a", "b"])), 1.0);
        assert_eq!(result_f1(&rel(&[]), &rel(&[])), 1.0);
        assert_eq!(result_f1(&rel(&["a"]), &rel(&[])), 0.0);
        let f = result_f1(&rel(&["a"]), &rel(&["a", "b"]));
        assert!((f - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn result_f1_respects_multiplicity() {
        let f = result_f1(&rel(&["a", "a"]), &rel(&["a"]));
        assert!(f < 1.0);
    }

    #[test]
    fn six_variants_in_order() {
        let v = variants();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0].0, "RExt");
        assert_eq!(v[5].0, "RndPath");
    }
}
