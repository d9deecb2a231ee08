//! Case study q2 of Exp-1: *"find domain keywords used by fake news
//! authors"* — over the FakeNews collection (relation
//! `fakenews(author, country, language)` and the topicKG graph of
//! categories/themes with headline keywords).
//!
//! Each author is thematized by extracting the best topic and headline
//! keyword from topicKG (a 2-hop `published → categorized_as` /
//! `published → headline_keyword` chain), then aggregated per topic.
//!
//! Run with: `cargo run -p gsj-examples --bin fake_news --release`

use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_datagen::{collections, Scale};
use std::sync::Arc;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .map(Scale)
        .unwrap_or(Scale::tiny());
    println!("building the FakeNews collection (scale {})...", scale.0);
    let col = collections::build("FakeNews", scale, 23).unwrap();
    println!(
        "  fakenews: {} tuples, topicKG: {} edges",
        col.entity_relation().len(),
        col.graph.edge_count()
    );

    println!("training RExt on topicKG...");
    let rext = Arc::new(Rext::train(&col.graph, gsj_core::config::RExtConfig::standard()).unwrap());
    let profile = GraphProfile::build(
        &col.graph,
        &col.db,
        vec![col.relation_spec()],
        &rext,
        &col.her_config(),
        None,
    )
    .unwrap();

    let mut engine = GsqlEngine::new(col.db.clone());
    engine.set_id_attr("fakenews", "author");
    engine.set_her_config(col.her_config());
    engine.add_graph("topicKG", col.graph.clone());
    engine.set_rext("topicKG", rext);
    engine.set_profile("topicKG", profile);

    // q2: thematize each author, then count authors per (topic, keyword).
    let q2 = "select topic, keyword, count(*) as authors \
              from fakenews e-join topicKG <topic, keyword> as T";
    println!("\nq2: {q2}\n");
    let sorted = engine
        .run(
            &format!("{q2} order by authors desc limit 12"),
            Strategy::Optimized,
        )
        .expect("q2");
    println!("top (topic, keyword) themes among fake-news authors:");
    println!("{}", sorted.to_table());

    // Drill-down: authors of the most common topic, per country.
    let top = sorted.rows().next();
    if let Some(top_topic) = top.as_ref().and_then(|t| t.get(0).as_str()) {
        let q = format!(
            "select country, count(*) as n from fakenews e-join topicKG <topic> as T \
             where T.topic = '{top_topic}'"
        );
        println!("drill-down ({top_topic} authors per country): {q}\n");
        let drill = engine.run(&q, Strategy::Optimized).expect("drill");
        println!("{}", drill.to_table());
    }
}
