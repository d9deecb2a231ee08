//! Case study q1 of Exp-1: *"find drugs that are for the same disease but
//! in conflict with each other"* — over the Drugs collection (relations
//! `drug` and `interact`, knowledge graph of efficacies, symptoms and
//! diseases).
//!
//! The disease of a drug is not stored anywhere in `D`; it sits at the
//! end of a `drug → efficacy → symptom → disease` path in the graph, which
//! is exactly what the enrichment join extracts. The conflict check
//! (`itype = -1`) then happens relationally against `interact`.
//!
//! Run with: `cargo run -p gsj-examples --bin drug_interactions --release`

use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_datagen::{collections, Scale};
use std::sync::Arc;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .map(Scale)
        .unwrap_or(Scale::tiny());
    println!("building the Drugs collection (scale {})...", scale.0);
    let col = collections::build("Drugs", scale, 11).unwrap();
    println!(
        "  drug: {} tuples, interact: {} tuples, drugKG: {} vertices / {} edges",
        col.db.get("drug").unwrap().len(),
        col.db.get("interact").unwrap().len(),
        gsj_graph::stats::graph_stats(&col.graph).vertices,
        col.graph.edge_count()
    );

    println!("training RExt on drugKG...");
    let rext = Arc::new(Rext::train(&col.graph, gsj_core::config::RExtConfig::standard()).unwrap());
    let profile = GraphProfile::build(
        &col.graph,
        &col.db,
        vec![col.relation_spec()],
        &rext,
        &col.her_config(),
        Some(&TypedConfig {
            default_keywords: col.spec.reference_keywords(),
            ..TypedConfig::default()
        }),
    )
    .unwrap();

    let mut engine = GsqlEngine::new(col.db.clone());
    engine.set_id_attr("drug", "CAS");
    engine.set_her_config(col.her_config());
    engine.add_graph("drugKG", col.graph.clone());
    engine.set_rext("drugKG", rext);
    engine.set_profile("drugKG", profile);

    // q1: two enrichment joins thematize both sides of each interaction
    // with their target disease; the relational part keeps conflicting
    // pairs (itype = -1) for the same disease.
    let q1 = "select T1.CAS, T2.CAS, T1.disease \
              from drug e-join drugKG <disease> as T1, \
                   interact, \
                   drug e-join drugKG <disease> as T2 \
              where T1.CAS = interact.CAS1 and T2.CAS = interact.CAS2 \
              and interact.itype = '-1' and T1.disease = T2.disease";
    println!("\nq1: {q1}\n");
    let result = engine.run(q1, Strategy::Optimized).expect("q1");
    println!("{} conflicting same-disease pairs found", result.len());
    println!("{}", result.head(10).to_table());

    // Sanity: verify against ground truth — each reported pair really
    // shares a disease in the generator's hidden table.
    let truth_disease = |cas: &str| -> Option<String> {
        let pos = col.truth.schema().position("disease")?;
        col.truth
            .rows()
            .find(|t| t.get(0).as_str() == Some(cas))
            .and_then(|t| t.get(pos).as_str().map(str::to_string))
    };
    let mut verified = 0usize;
    for t in result.rows() {
        let (a, b) = (t.get(0).as_str().unwrap(), t.get(1).as_str().unwrap());
        if truth_disease(a).is_some() && truth_disease(a) == truth_disease(b) {
            verified += 1;
        }
    }
    println!(
        "ground-truth check: {verified}/{} pairs share the disease per the generator",
        result.len()
    );
}
