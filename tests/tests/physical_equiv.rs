//! Property tests: the relational operators agree with an independent
//! reference for arbitrary inputs — the hash-join path with the
//! nested-loop kernel, the natural join with an equi join plus a
//! projection, and filter / nested loop / aggregation with naive folds
//! written here over materialized rows.

use gsj_common::{QueryGovernor, Value};
use gsj_relational::exec::{natural_join, nested_loop};
use gsj_relational::physical::{aggregate_rel, filter_rel, join_rel, limit_rel, sort_rel};
use gsj_relational::{AggFunc, AggSpec, BinOp, CmpOp, ExecContext, Expr, Relation, Schema, Tuple};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn relation(name: &str, attrs: &[&str], rows: &[Vec<Value>]) -> Relation {
    let mut r = Relation::empty(Schema::of(name, attrs));
    for row in rows {
        r.push_values(row.clone()).unwrap();
    }
    r
}

/// Rows over (k, a): small key domain to force join matches, with
/// occasional NULL keys to exercise null-rejection.
fn keyed_rows(data: &[(i64, i64)]) -> Vec<Vec<Value>> {
    data.iter()
        .map(|&(k, a)| {
            let key = if k == 0 { Value::Null } else { Value::Int(k) };
            vec![key, Value::Int(a)]
        })
        .collect()
}

fn two_tables(left: &[(i64, i64)], right: &[(i64, i64)]) -> (Relation, Relation) {
    (
        relation("l", &["k", "a"], &keyed_rows(left)),
        relation("r", &["k", "b"], &keyed_rows(right)),
    )
}

/// The `i64` behind an `Int` cell; `None` for NULL.
fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

/// The rows in sorted order — multiset comparison.
fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rel.rows().map(Tuple::into_values).collect();
    rows.sort();
    rows
}

/// The rows in relation order.
fn rows_of(rel: &Relation) -> Vec<Tuple> {
    rel.rows().collect()
}

/// Row-at-a-time reference filter.
fn naive_filter(rel: &Relation, keep: impl Fn(&Tuple) -> bool) -> Vec<Tuple> {
    rel.rows().filter(|t| keep(t)).collect()
}

/// Reference grouping on column 0 in first-seen order: per group, the
/// non-NULL values of column `val`.
fn naive_groups(rel: &Relation, val: usize) -> Vec<(Value, usize, Vec<i64>)> {
    let mut groups: Vec<(Value, usize, Vec<i64>)> = Vec::new();
    for t in rel.rows() {
        let key = t.get(0);
        let slot = match groups.iter().position(|(k, ..)| k == key) {
            Some(i) => i,
            None => {
                groups.push((key.clone(), 0, Vec::new()));
                groups.len() - 1
            }
        };
        groups[slot].1 += 1;
        groups[slot].2.extend(int(t.get(val)));
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter then project against a row-at-a-time reference.
    #[test]
    fn select_project_equivalent(
        rows in prop::collection::vec((0i64..6, -20i64..20), 0..24),
        threshold in -20i64..20,
    ) {
        let (l, _) = two_tables(&rows, &[]);
        let mut ctx = ExecContext::new();
        let pred = Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(threshold));
        let got = filter_rel(l.clone(), &pred, "Filter", &mut ctx)
            .unwrap()
            .project(&[1], vec!["a".into()])
            .unwrap();
        let expected: Vec<Tuple> = naive_filter(&l, |t| int(t.get(1)).unwrap() >= threshold)
            .iter()
            .map(|t| t.project(&[1]))
            .collect();
        prop_assert_eq!(got.schema().attrs(), &["a".to_string()]);
        prop_assert_eq!(ctx.ops()[0].rows_out, expected.len());
        prop_assert_eq!(rows_of(&got), expected);
    }

    /// The natural join is the equi join on the common attribute with the
    /// right copy of it projected away — same rows, as a multiset (the
    /// natural join builds on the smaller side, so emit order differs).
    #[test]
    fn natural_join_equivalent(
        left in prop::collection::vec((0i64..6, -20i64..20), 0..24),
        right in prop::collection::vec((0i64..6, -20i64..20), 0..24),
    ) {
        let (l, r) = two_tables(&left, &right);
        let natural = natural_join(&l, &r, &QueryGovernor::unlimited()).unwrap();
        let equi = join_rel(
            &l.qualified("L"),
            &r.qualified("R"),
            &Expr::cmp(CmpOp::Eq, Expr::col("L.k"), Expr::col("R.k")),
            "l ⋈ r",
            &mut ExecContext::new(),
        )
        .unwrap()
        .project(&[0, 1, 3], vec!["k".into(), "a".into(), "b".into()])
        .unwrap();
        prop_assert_eq!(natural.schema().attrs(), equi.schema().attrs());
        prop_assert_eq!(sorted_rows(&natural), sorted_rows(&equi));
    }

    /// An equi conjunct plus a residual: the hash path `join_rel` picks
    /// returns the rows the nested-loop kernel returns for the same
    /// predicate. Each emits pairs in a fixed order of its own — the loop
    /// left-major, the hash probe right-major — so the two are compared
    /// as multisets and the hash order against a right-major double loop.
    #[test]
    fn equi_theta_join_equivalent(
        left in prop::collection::vec((0i64..6, -20i64..20), 0..20),
        right in prop::collection::vec((0i64..6, -20i64..20), 0..20),
    ) {
        let (l, r) = two_tables(&left, &right);
        let (l, r) = (l.qualified("L"), r.qualified("R"));
        let pred = Expr::cmp(CmpOp::Eq, Expr::col("L.k"), Expr::col("R.k"))
            .and(Expr::cmp(CmpOp::Lt, Expr::col("L.a"), Expr::col("R.b")));
        let mut ctx = ExecContext::new();
        let hashed = join_rel(&l, &r, &pred, "l ⋈ r", &mut ctx).unwrap();
        prop_assert!(ctx.ops()[0].label.starts_with("HashJoin("));
        let looped = nested_loop(
            &l,
            &r,
            &pred,
            hashed.schema().clone(),
            &QueryGovernor::unlimited(),
        )
        .unwrap();
        prop_assert_eq!(sorted_rows(&hashed), sorted_rows(&looped));
        let mut right_major = Vec::new();
        let (lrows, rrows) = (rows_of(&l), rows_of(&r));
        for rt in &rrows {
            for lt in &lrows {
                let joined = lt.concat(rt);
                if pred.holds(hashed.schema(), &joined).unwrap() {
                    right_major.push(joined);
                }
            }
        }
        prop_assert_eq!(rows_of(&hashed), right_major);
    }

    /// A non-equi predicate takes the nested loop; compare with the
    /// double loop written here, row for row (left-major order).
    #[test]
    fn non_equi_theta_join_equivalent(
        left in prop::collection::vec((0i64..6, -20i64..20), 0..16),
        right in prop::collection::vec((0i64..6, -20i64..20), 0..16),
    ) {
        let (l, r) = two_tables(&left, &right);
        let (l, r) = (l.qualified("L"), r.qualified("R"));
        let pred = Expr::cmp(CmpOp::Gt, Expr::col("L.a"), Expr::col("R.b"));
        let mut ctx = ExecContext::new();
        let got = join_rel(&l, &r, &pred, "l ⋈ r", &mut ctx).unwrap();
        prop_assert!(ctx.ops()[0].label.starts_with("NestedLoopJoin("));
        let mut expected = Vec::new();
        let (lrows, rrows) = (rows_of(&l), rows_of(&r));
        for lt in &lrows {
            for rt in &rrows {
                if int(lt.get(1)).unwrap() > int(rt.get(1)).unwrap() {
                    expected.push(lt.concat(rt));
                }
            }
        }
        prop_assert_eq!(rows_of(&got), expected);
    }

    /// Grouped aggregation over a join, then sort and limit, against a
    /// naive fold: count(*), sum and min per key, keys ascending.
    #[test]
    fn aggregate_sort_limit_equivalent(
        left in prop::collection::vec((0i64..6, -20i64..20), 0..24),
        right in prop::collection::vec((0i64..6, -20i64..20), 0..24),
        n in 0usize..8,
    ) {
        let (l, r) = two_tables(&left, &right);
        let joined = natural_join(&l, &r, &QueryGovernor::unlimited()).unwrap();
        let mut ctx = ExecContext::new();
        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Sum, "a", "total"),
            AggSpec::new(AggFunc::Min, "b", "low"),
        ];
        let by = ["k".to_string()];
        let agg = aggregate_rel(&joined, &by, &aggs, "Aggregate", &mut ctx).unwrap();
        let sorted = sort_rel(agg, &by, false, "Sort(k)", &mut ctx).unwrap();
        let got = limit_rel(sorted, n, "Limit", &mut ctx).unwrap();
        prop_assert_eq!(ctx.ops().len(), 3);

        // Reference: joined rows are (k, a, b) with k never NULL.
        let mut groups: BTreeMap<i64, (i64, i64, i64)> = BTreeMap::new();
        for t in joined.rows() {
            let (k, a, b) = (
                int(t.get(0)).unwrap(),
                int(t.get(1)).unwrap(),
                int(t.get(2)).unwrap(),
            );
            let g = groups.entry(k).or_insert((0, 0, i64::MAX));
            *g = (g.0 + 1, g.1 + a, g.2.min(b));
        }
        let expected: Vec<Tuple> = groups
            .into_iter()
            .take(n)
            .map(|(k, (cnt, total, low))| {
                Tuple::new(vec![
                    Value::Int(k),
                    Value::Int(cnt),
                    Value::Int(total),
                    Value::Int(low),
                ])
            })
            .collect();
        prop_assert_eq!(got.schema().attrs(), &["k", "n", "total", "low"]);
        prop_assert_eq!(rows_of(&got), expected);
    }

    /// Grouping on a key that can be NULL keeps first-seen group order
    /// and folds count(col) / max over the non-NULL cells.
    #[test]
    fn grouped_aggregate_matches_naive_fold(
        rows in prop::collection::vec((0i64..6, -20i64..20), 0..24),
    ) {
        let (l, _) = two_tables(&rows, &[]);
        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Count, "k", "keys"),
            AggSpec::new(AggFunc::Max, "a", "high"),
        ];
        let got = aggregate_rel(
            &l,
            &["k".to_string()],
            &aggs,
            "Aggregate",
            &mut ExecContext::new(),
        )
        .unwrap();
        let expected: Vec<Tuple> = naive_groups(&l, 1)
            .into_iter()
            .map(|(key, count, vals)| {
                let keys = if key.is_null() { 0 } else { count as i64 };
                Tuple::new(vec![
                    key,
                    Value::Int(count as i64),
                    Value::Int(keys),
                    Value::Int(*vals.iter().max().unwrap()),
                ])
            })
            .collect();
        prop_assert_eq!(rows_of(&got), expected);
    }

    /// Rebuilding every input through its rows (`rows()` →
    /// `Relation::new`) rebuilds the columnar storage from tuples — and
    /// join + filter still produce identical results on the rebuilt
    /// inputs.
    #[test]
    fn row_round_trip_preserves_equivalence(
        left in prop::collection::vec((0i64..6, -20i64..20), 0..20),
        right in prop::collection::vec((0i64..6, -20i64..20), 0..20),
    ) {
        let (l, r) = two_tables(&left, &right);
        let rebuild = |rel: &Relation| {
            Relation::new(rel.schema().clone(), rows_of(rel)).unwrap()
        };
        let run = |l: &Relation, r: &Relation| {
            let joined = natural_join(l, r, &QueryGovernor::unlimited()).unwrap();
            filter_rel(
                joined,
                &Expr::cmp(CmpOp::Lt, Expr::col("a"), Expr::col("b")),
                "Filter",
                &mut ExecContext::new(),
            )
            .unwrap()
        };
        prop_assert_eq!(
            run(&l, &r),
            run(&rebuild(&l), &rebuild(&r)),
            "rebuilt inputs changed the result"
        );
    }

    /// The vectorized filter path (a bare comparison the mask kernel
    /// accepts) and the row-at-a-time fallback (the same comparison routed
    /// through an arithmetic expression, which the mask kernel rejects)
    /// select exactly the rows the reference filter selects.
    #[test]
    fn vectorized_filter_matches_row_fallback(
        rows in prop::collection::vec((0i64..6, -20i64..20), 0..24),
        threshold in -20i64..20,
    ) {
        let (l, _) = two_tables(&rows, &[]);
        let vectorized = Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(threshold));
        let row_path = Expr::cmp(
            CmpOp::Ge,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::col("a")),
                Box::new(Expr::lit(0i64)),
            ),
            Expr::lit(threshold),
        );
        let run = |pred: &Expr| {
            filter_rel(l.clone(), pred, "Filter", &mut ExecContext::new()).unwrap()
        };
        let (fast, slow) = (run(&vectorized), run(&row_path));
        prop_assert_eq!(&fast, &slow, "mask kernel and row fallback disagree");
        let expected = naive_filter(&l, |t| int(t.get(1)).unwrap() >= threshold);
        prop_assert_eq!(rows_of(&fast), expected);
    }

    /// Global aggregate (no GROUP BY) over a filtered input against a
    /// naive fold, including the empty-input one-row case.
    #[test]
    fn global_aggregate_equivalent(
        rows in prop::collection::vec((0i64..6, -20i64..20), 0..16),
        threshold in -25i64..25,
    ) {
        let (l, _) = two_tables(&rows, &[]);
        let mut ctx = ExecContext::new();
        let kept = filter_rel(
            l,
            &Expr::cmp(CmpOp::Lt, Expr::col("a"), Expr::lit(threshold)),
            "Filter",
            &mut ctx,
        )
        .unwrap();
        let aggs = [
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Avg, "a", "avg"),
            AggSpec::new(AggFunc::Max, "a", "high"),
        ];
        let got = aggregate_rel(&kept, &[], &aggs, "Aggregate", &mut ctx).unwrap();
        let vals: Vec<i64> = rows.iter().map(|&(_, a)| a).filter(|&a| a < threshold).collect();
        let expected = if vals.is_empty() {
            vec![Value::Int(0), Value::Null, Value::Null]
        } else {
            vec![
                Value::Int(vals.len() as i64),
                Value::Float(vals.iter().sum::<i64>() as f64 / vals.len() as f64),
                Value::Int(*vals.iter().max().unwrap()),
            ]
        };
        prop_assert_eq!(rows_of(&got), vec![Tuple::new(expected)]);
    }
}
