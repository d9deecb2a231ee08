//! Enrichment joins `S ⋈_A G`.
//!
//! A tuple `t` is in `S ⋈_A G` iff `t[attr(R)] ∈ S`, `t[vid]` is a vertex
//! matched to it by HER, and each `t[A_i]` is the property extracted by
//! RExt — i.e. `S ⋈ f(S,G) ⋈ h(S,G)` via ordinary joins (Section II-B).

use crate::incext::Extraction;
use crate::rext::Rext;
use gsj_common::{QueryGovernor, Result};
use gsj_graph::LabeledGraph;
use gsj_her::{her_match, HerConfig, MatchRelation};
use gsj_relational::exec::natural_join;
use gsj_relational::{Column, Relation, Schema};

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

/// [`enrichment_join_precomputed`] under a query's governor: the two
/// hash-join probes observe its deadline, budgets and cancellation.
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
/// extracted relation's column `Arc`s (zero copy), undiscovered ones get an
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
            None => std::sync::Arc::new(Column::null(dg.len())),
        });
    }
    Relation::from_shared_columns(schema, cols, dg.len())
}

fn join_three_way(
    s: &Relation,
    id_attr: &str,
    matches: &MatchRelation,
    dg: &Relation,
    gov: &QueryGovernor,
) -> Result<Relation> {
    let f_rel = matches.to_relation(&format!("f_{}", s.schema().name()), id_attr);
    let s_f = natural_join(s, &f_rel, gov)?;
    natural_join(&s_f, dg, gov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::Value;
    use gsj_graph::VertexId;
    use gsj_relational::Schema;

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
}
