//! Enrichment joins `S ⋈_A G`.
//!
//! A tuple `t` is in `S ⋈_A G` iff `t[attr(R)] ∈ S`, `t[vid]` is a vertex
//! matched to it by HER, and each `t[A_i]` is the property extracted by
//! RExt — i.e. `S ⋈ f(S,G) ⋈ h(S,G)` via ordinary joins (Section II-B).
//!
//! That expression stays the definition; it is evaluated through the
//! stored references rather than two hash joins. Each row of `S` reaches
//! its vertices through the match relation's tuple-id index, each vertex
//! its `h` rows through a dense vertex index, and every output attribute
//! defers through the resulting row-index vectors (`join_three_way`). The
//! tests keep the two natural joins as the reference the gather must
//! equal.

use crate::incext::Extraction;
use crate::rext::Rext;
use gsj_common::{QueryGovernor, Result};
use gsj_graph::LabeledGraph;
use gsj_her::{her_match, HerConfig, MatchRelation};
use gsj_relational::{CellRef, Column, Relation, Schema};

/// The conceptual-level enrichment join: calls HER and RExt online
/// (Section IV-A "Baseline"). Returns the joined relation together with
/// the extraction state (so callers can keep it for reuse/maintenance).
///
/// The governor is consulted between the HER / discovery / extraction
/// phases, so a deadline or cancel set mid-join stops before the next
/// expensive phase rather than after the whole join.
pub fn enrichment_join(
    s: &Relation,
    id_attr: &str,
    g: &LabeledGraph,
    keywords: &[String],
    rext: &Rext,
    her_cfg: &HerConfig,
    gov: &QueryGovernor,
) -> Result<(Relation, Extraction)> {
    let mut span = gsj_obs::span("join.enrichment");
    gsj_faults::fault_point("join.enrichment", gsj_faults::FaultClass::Critical)?;
    let mut cfg = her_cfg.clone();
    cfg.id_attr = id_attr.to_string();
    gov.check("her.match")?;
    let matches = her_match(g, s, &cfg)?;
    let schema_name = format!("h_{}", s.schema().name());
    gov.check("rext.discover")?;
    let discovery = rext.discover(g, &matches, Some((s, id_attr)), keywords, &schema_name)?;
    gov.check("rext.extract")?;
    let dg = rext.extract(g, &matches, &discovery)?;
    let joined = join_three_way(s, id_attr, &matches, &keyword_view(&dg, keywords)?, gov)?;
    gov.charge_rows(joined.len() as u64);
    span.field("rows_in", s.len())
        .field("rows_out", joined.len());
    Ok((
        joined,
        Extraction {
            discovery,
            matches,
            dg,
        },
    ))
}

/// The static/dynamic fast path: `S ⋈ f(D,G) ⋈ h(D,G)` over materialized
/// relations, no HER/RExt at query time (Section IV-A). `keep_attrs`
/// optionally normalizes `h` to the requested keywords (plus `vid`).
/// Ungoverned; a query runs the governed form below with its own governor.
pub fn enrichment_join_precomputed(
    s: &Relation,
    id_attr: &str,
    matches: &MatchRelation,
    dg: &Relation,
    keep_attrs: Option<&[String]>,
) -> Result<Relation> {
    let gov = QueryGovernor::unlimited();
    enrichment_join_precomputed_governed(s, id_attr, matches, dg, keep_attrs, &gov)
}

/// [`enrichment_join_precomputed`] under a query's governor: the join
/// observes its deadline, budgets and cancellation.
pub(crate) fn enrichment_join_precomputed_governed(
    s: &Relation,
    id_attr: &str,
    matches: &MatchRelation,
    dg: &Relation,
    keep_attrs: Option<&[String]>,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let dg_view = match keep_attrs {
        None => dg.clone(),
        Some(attrs) => keyword_view(dg, attrs)?,
    };
    join_three_way(s, id_attr, matches, &dg_view, gov)
}

/// `h` restricted to the requested keywords, in request order. The output
/// schema of `S ⋈_A G` carries every attribute of `A` (Section II-B), so a
/// keyword the extraction scheme did not discover still becomes a column —
/// all nulls — rather than silently disappearing.
///
/// This is a pure column re-arrangement: discovered keywords share the
/// extracted relation's column slots (zero copy), undiscovered ones get an
/// untyped all-null column of matching length.
fn keyword_view(dg: &Relation, keywords: &[String]) -> Result<Relation> {
    let mut attrs: Vec<String> = vec!["vid".into()];
    attrs.extend(keywords.iter().cloned());
    let schema = Schema::new(dg.schema().name().to_string(), attrs)?;
    let vid_pos = dg.schema().require("vid")?;
    let mut cols = Vec::with_capacity(1 + keywords.len());
    cols.push(dg.columns()[vid_pos].clone());
    for k in keywords {
        cols.push(match dg.schema().position(k) {
            Some(p) => dg.columns()[p].clone(),
            None => Column::null(dg.len()).into(),
        });
    }
    Relation::from_shared_columns(schema, cols, dg.len())
}

/// End of a chain in `join_three_way`'s vertex index.
const NO_ROW: u32 = u32::MAX;

/// The slot of a vertex-id cell in a dense index over `0..bound`: the
/// vertex `v` such that the cell equals `Int(v)` as a natural-join key
/// (so an integral `Float` counts, NULL and non-numbers never do).
fn vertex_slot(cell: CellRef<'_>, bound: usize) -> Option<usize> {
    let v = match cell {
        CellRef::Int(i) => usize::try_from(i).ok()?,
        // `as` saturates: a huge float lands past `bound`.
        CellRef::Float(f) if f >= 0.0 && f.fract() == 0.0 => f as usize,
        _ => return None,
    };
    (v < bound).then_some(v)
}

/// `S ⋈ f ⋈ h`: exactly `natural_join(natural_join(S, f), h)` with `f` the
/// relation `f_<S>(id_attr, vid)` of `matches`, evaluated as one gather.
///
/// One pass over `S`'s id cells looks each non-NULL id up in the match
/// relation's tuple-id index (every pair of the id, not just the last),
/// then each vertex up in a dense index over `h`'s `vid` column built
/// here, and records the row triples; every output column defers through
/// them ([`Relation::gather`]: no cell is copied). The natural joins'
/// other equalities hold as they did: an own `vid` of `S` must equal the
/// matched vertex, and a column `S` shares with `h` must be equal (NULL
/// never is) on the pair.
///
/// Schema: `S`'s attributes, then `vid` unless `S` has one, then `h`'s
/// attributes not already present; the relation is named
/// `<S>_join_f_<S>_join_<h>`. Rows come out in `S`'s order; one row's
/// matches in match order, and per vertex its `h` rows in `h`'s order.
/// The governor is checked once up front and charged what the two hash
/// probes charged: 8 bytes per row of `S ⋈ f` and per output row.
fn join_three_way(
    s: &Relation,
    id_attr: &str,
    matches: &MatchRelation,
    dg: &Relation,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let id_pos = s.schema().require(id_attr)?;
    let h_vid = dg.schema().require("vid")?;
    let s_vid = s.schema().position("vid");
    let shared: Vec<(usize, usize)> = (0..s.schema().arity())
        .filter(|&i| Some(i) != s_vid)
        .filter_map(|i| dg.schema().position(&s.schema().attrs()[i]).map(|j| (i, j)))
        .collect();
    gov.check("join.enrichment")?;

    // vertex → its `h` rows: `head[v]` starts a chain through `next`,
    // ascending. Only matched vertices are ever looked up.
    let bound = matches
        .vertices()
        .map(|v| v.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut head = vec![NO_ROW; bound];
    let mut next = vec![NO_ROW; dg.len()];
    for row in (0..dg.len()).rev() {
        if let Some(v) = vertex_slot(dg.cell(row, h_vid), bound) {
            next[row] = head[v];
            head[v] = row as u32;
        }
    }

    let (mut s_rows, mut f_vids, mut h_rows) = (Vec::new(), Vec::new(), Vec::new());
    let mut s_f_rows = 0u64;
    for row in 0..s.len() {
        let id = s.value_at(row, id_pos);
        if id.is_null() {
            continue;
        }
        for v in matches.vertices_of(&id) {
            let vid = i64::from(v.0);
            if s_vid.is_some_and(|p| s.cell(row, p) != CellRef::Int(vid)) {
                continue;
            }
            s_f_rows += 1;
            let mut h = head[v.0 as usize];
            while h != NO_ROW {
                let agree = shared.iter().all(|&(i, j)| {
                    let cell = s.cell(row, i);
                    !cell.is_null() && cell == dg.cell(h as usize, j)
                });
                if agree {
                    s_rows.push(row as u32);
                    f_vids.push(vid);
                    h_rows.push(h);
                }
                h = next[h as usize];
            }
        }
    }
    gov.charge_mem(8 * (s_f_rows + h_rows.len() as u64));

    let mut attrs = s.schema().attrs().to_vec();
    let mut cols = s.gather(&s_rows).columns().to_vec();
    if s_vid.is_none() {
        attrs.push("vid".into());
        cols.push(Column::from_ints(f_vids).into());
    }
    let h = dg.gather(&h_rows);
    for (j, a) in dg.schema().attrs().iter().enumerate() {
        if j != h_vid && !s.schema().contains(a) {
            attrs.push(a.clone());
            cols.push(h.columns()[j].clone());
        }
    }
    let s_name = s.schema().name();
    let name = format!("{s_name}_join_f_{s_name}_join_{}", dg.schema().name());
    Relation::from_shared_columns(Schema::new(name, attrs)?, cols, s_rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::Value;
    use gsj_graph::VertexId;
    use gsj_relational::exec::natural_join;
    use proptest::prelude::*;

    /// `f(D,G)` as the RDBMS stores it for static joins (Section IV-A): the
    /// relation `Rm(tid, vid)`, its `tid` column named after the base
    /// relation's id attribute so that it natural-joins with it.
    fn f_relation(m: &MatchRelation, name: &str, tid_attr: &str) -> Relation {
        let mut rel = Relation::empty(Schema::of(name, &[tid_attr, "vid"]));
        for (tid, vid) in m.pairs() {
            rel.push_values(vec![tid.clone(), Value::Int(vid.0 as i64)])
                .expect("arity 2");
        }
        rel
    }

    /// The definition `join_three_way` evaluates: two natural joins.
    fn three_way_reference(
        s: &Relation,
        id_attr: &str,
        m: &MatchRelation,
        dg: &Relation,
        gov: &QueryGovernor,
    ) -> Result<Relation> {
        let f = f_relation(m, &format!("f_{}", s.schema().name()), id_attr);
        natural_join(&natural_join(s, &f, gov)?, dg, gov)
    }

    /// Rows as their `Debug` text, sorted: equal lists mean equal row
    /// multisets with equally typed cells.
    fn row_multiset(r: &Relation) -> Vec<String> {
        let mut rows: Vec<String> = r.rows().map(|t| format!("{:?}", t.values())).collect();
        rows.sort();
        rows
    }

    fn pieces() -> (Relation, MatchRelation, Relation) {
        let mut s = Relation::empty(Schema::of("product", &["pid", "risk"]));
        s.push_values(vec![Value::str("fd1"), Value::str("medium")])
            .unwrap();
        s.push_values(vec![Value::str("fd2"), Value::str("high")])
            .unwrap();
        s.push_values(vec![Value::str("fd9"), Value::str("low")])
            .unwrap();
        let mut m = MatchRelation::new();
        m.push(Value::str("fd1"), VertexId(10));
        m.push(Value::str("fd2"), VertexId(20));
        let mut dg = Relation::empty(Schema::of("h_product", &["vid", "loc", "company"]));
        dg.push_values(vec![
            Value::Int(10),
            Value::str("UK"),
            Value::str("company1"),
        ])
        .unwrap();
        dg.push_values(vec![
            Value::Int(20),
            Value::str("US"),
            Value::str("company2"),
        ])
        .unwrap();
        (s, m, dg)
    }

    #[test]
    fn reference_f_has_the_rm_schema() {
        let m = MatchRelation::from_pairs(vec![(Value::str("fd1"), VertexId(3))]);
        let r = f_relation(&m, "f_product", "pid");
        assert_eq!(r.schema().attrs(), &["pid".to_string(), "vid".to_string()]);
        assert_eq!(r.value_at(0, 1), Value::Int(3));
    }

    #[test]
    fn three_way_join_extends_matched_tuples() {
        let (s, m, dg) = pieces();
        let r = enrichment_join_precomputed(&s, "pid", &m, &dg, None).unwrap();
        // fd9 is unmatched → dropped; fd1/fd2 extended.
        assert_eq!(r.len(), 2);
        assert!(r.schema().contains("risk"));
        assert!(r.schema().contains("vid"));
        assert!(r.schema().contains("loc"));
        let fd1 = r.rows().find(|t| t.get(0) == &Value::str("fd1")).unwrap();
        let loc_pos = r.schema().position("loc").unwrap();
        assert_eq!(fd1.get(loc_pos), &Value::str("UK"));
    }

    #[test]
    fn governed_form_observes_cancel_and_is_otherwise_identical() {
        let (s, m, dg) = pieces();
        let keep = ["loc".to_string()];
        let free = QueryGovernor::unlimited();
        assert_eq!(
            enrichment_join_precomputed_governed(&s, "pid", &m, &dg, Some(&keep), &free).unwrap(),
            enrichment_join_precomputed(&s, "pid", &m, &dg, Some(&keep)).unwrap()
        );
        let cancelled = QueryGovernor::unlimited();
        cancelled.cancel();
        assert_eq!(
            enrichment_join_precomputed_governed(&s, "pid", &m, &dg, Some(&keep), &cancelled),
            Err(gsj_common::GsjError::Cancelled)
        );
    }

    #[test]
    fn keyword_projection_restricts_extracted_attrs() {
        let (s, m, dg) = pieces();
        let r =
            enrichment_join_precomputed(&s, "pid", &m, &dg, Some(&["loc".to_string()])).unwrap();
        assert!(r.schema().contains("loc"));
        assert!(!r.schema().contains("company"));
    }

    #[test]
    fn undiscovered_keywords_become_null_columns() {
        // `S ⋈_A G` carries every requested attribute: keywords the
        // extraction missed are all-null columns, not silent drops.
        let (s, m, dg) = pieces();
        let r = enrichment_join_precomputed(&s, "pid", &m, &dg, Some(&["nonexistent".to_string()]))
            .unwrap();
        assert_eq!(r.len(), 2);
        let pos = r.schema().position("nonexistent").unwrap();
        assert!((0..r.len()).all(|i| r.col(pos).is_null(i)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The gather against the two natural joins it replaced: the same
        /// schema (names, order, relation name), the same row multiset,
        /// the same memory charge. Small value ranges make repeats likely:
        /// a tuple id with several pairs, a vertex with no `h` row or with
        /// several, NULL and unmatched ids, integral `Float` vids in `h`.
        /// `shape` picks the id types (`Str`, or `Int` resp. `Float` ids
        /// against a mix of `Int` and `Float` tids), whether `S` shares the
        /// keyword column `kw` with `h`, and whether `S` has its own `vid`.
        #[test]
        fn gather_equals_the_two_natural_joins(
            s_rows in prop::collection::vec((0u8..6, 0u8..4, 0u8..8), 0..8),
            pairs in prop::collection::vec((0u8..5, 0u32..6, 0u8..2), 0..10),
            h_rows in prop::collection::vec((0u8..9, 0u8..4, 0u8..2), 0..9),
            shape in (0u8..3, 0u8..2, 0u8..2),
        ) {
            let (id_kind, share_kw, own_vid) = (shape.0, shape.1 == 1, shape.2 == 1);
            let id = |k: u8, float: bool| match (id_kind, float) {
                (0, _) => Value::str(format!("t{k}")),
                (_, false) => Value::Int(i64::from(k)),
                (_, true) => Value::Float(f64::from(k)),
            };
            let small = |k: u8, null_from: u8| {
                if k >= null_from { Value::Null } else { Value::Int(i64::from(k)) }
            };
            let mut attrs = vec!["id", "risk"];
            if share_kw {
                attrs.push("kw");
            }
            if own_vid {
                attrs.push("vid");
            }
            let mut s = Relation::empty(Schema::of("s", &attrs));
            for (i, &(k, kw, vid)) in s_rows.iter().enumerate() {
                let mut row = vec![
                    if k == 5 { Value::Null } else { id(k, id_kind == 2) },
                    Value::str(format!("r{i}")),
                ];
                if share_kw {
                    row.push(small(kw, 3));
                }
                if own_vid {
                    row.push(small(vid, 6));
                }
                s.push_values(row).unwrap();
            }
            let m = MatchRelation::from_pairs(
                pairs
                    .iter()
                    .map(|&(k, v, float_tid)| (id(k, float_tid == 1), VertexId(v)))
                    .collect(),
            );
            let mut dg = Relation::empty(Schema::of("h_s", &["vid", "kw", "loc"]));
            for (j, &(v, kw, float_vid)) in h_rows.iter().enumerate() {
                let vid = match (v, float_vid) {
                    (8, _) => Value::Null,
                    (v, 1) => Value::Float(f64::from(v)),
                    (v, _) => Value::Int(i64::from(v)),
                };
                dg.push_values(vec![vid, small(kw, 3), Value::str(format!("l{j}"))])
                    .unwrap();
            }

            let charged = || QueryGovernor::builder().mem_budget(u64::MAX).build();
            let (gov, ref_gov) = (charged(), charged());
            let got = join_three_way(&s, "id", &m, &dg, &gov).unwrap();
            let want = three_way_reference(&s, "id", &m, &dg, &ref_gov).unwrap();
            prop_assert_eq!(got.schema(), want.schema());
            prop_assert_eq!(row_multiset(&got), row_multiset(&want));
            prop_assert_eq!(gov.mem_charged(), ref_gov.mem_charged());

            let cancelled = QueryGovernor::unlimited();
            cancelled.cancel();
            prop_assert_eq!(
                join_three_way(&s, "id", &m, &dg, &cancelled),
                Err(gsj_common::GsjError::Cancelled)
            );
        }
    }
}
