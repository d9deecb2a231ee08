//! **Exp-3(I)**: offline preprocessing costs — (a) language-model training
//! time per graph; (b) pre-extraction time and materialization footprint
//! per collection; (c) link-join cache (`g_L`) size.
//!
//! Paper's numbers: training 32–220s per graph; pre-extraction 17–677s,
//! materializing 0.03%–39.5% of raw collection size; g_L ≈ 0.01% of the
//! graph.

use gsj_bench::report::{banner, Table};
use gsj_bench::{scale_from_env, timed};
use gsj_core::config::RExtConfig;
use gsj_core::profile::GraphProfile;
use gsj_core::rext::Rext;
use gsj_core::typed::TypedConfig;
use gsj_datagen::collections;
use gsj_relational::Relation;

/// Rendered byte size of a relation (same measure as
/// `GraphProfile::materialized_bytes`).
fn rel_bytes(r: &Relation) -> usize {
    r.rows()
        .flat_map(|t| t.into_values())
        .map(|v| v.to_string().len())
        .sum()
}

fn main() {
    let _obs = gsj_bench::obs_scope("exp_offline");
    let scale = scale_from_env(150);
    banner("Exp-3(I) — offline preprocessing", "Exp-3(I)(a)(b)");
    println!("scale = {}\n", scale.0);

    let mut t = Table::new(&[
        "collection",
        "LM training",
        "pre-extraction",
        "materialized",
        "% of raw",
    ]);
    for name in collections::ALL {
        let col = collections::build(name, scale, 5).unwrap();
        let (rext, train_secs) = timed(|| Rext::train(&col.graph, RExtConfig::standard()).unwrap());
        let (profile, extract_secs) = timed(|| {
            GraphProfile::build(
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
            .unwrap()
        });
        // Raw collection size: all relations + a vertex/edge-list
        // rendering of the graph.
        let mut raw = 0usize;
        for rel_name in col.db.names() {
            raw += rel_bytes(col.db.get(rel_name).unwrap());
        }
        for v in col.graph.vertices() {
            raw += col.graph.vertex_label_str(v).len();
            for e in col.graph.out_edges(v) {
                raw += col.graph.symbols().resolve(e.label).len() + 8;
            }
        }
        let mat = profile.materialized_bytes();
        t.row(vec![
            name.to_string(),
            format!("{train_secs:.1}s"),
            format!("{extract_secs:.1}s"),
            format!("{} B", mat),
            format!("{:.1}%", 100.0 * mat as f64 / raw.max(1) as f64),
        ]);
        eprintln!("  {name} done");
    }
    println!("{}", t.render());
    println!(
        "paper: training 32–220s; pre-extraction 17–677s; materialization 0.03%–39.5% of raw; g_L ≈ 0.01% of |G| (cold: cache starts empty)."
    );
}
