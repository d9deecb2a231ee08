//! Developer diagnostic: time the components of one IncExt update.

use gsj_bench::{prepared, timed};
use gsj_core::config::RExtConfig;
use gsj_core::incext::{inc_update_graph, pattern_affected_zone, Extraction};
use gsj_datagen::updates::balanced_updates;
use gsj_datagen::{collections, Scale};
use gsj_graph::update::apply_updates;
use gsj_her::her_match;

fn main() {
    let _obs = gsj_bench::obs_scope("incprobe");
    let scale = Scale(
        std::env::args()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(60),
    );
    let frac: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let col = collections::build("Movie", scale, 5).unwrap();
    let prep = prepared(&col, RExtConfig::standard());
    let discovery = prep
        .rext
        .discover(
            &col.graph,
            &prep.matches,
            Some((col.entity_relation(), &col.spec.id_attr)),
            &col.spec.reference_keywords(),
            "h_x",
        )
        .unwrap();
    let dg = prep
        .rext
        .extract(&col.graph, &prep.matches, &discovery)
        .unwrap();
    let initial = Extraction {
        discovery,
        matches: prep.matches.clone(),
        dg,
    };
    let mut g = col.graph.clone();
    let ups = balanced_updates(&g, frac, 31);
    let report = apply_updates(&mut g, &ups);
    println!(
        "graph: {} vertices {} edges; updates: {}; touched: {}",
        gsj_graph::stats::graph_stats(&g).vertices,
        g.edge_count(),
        ups.len(),
        report.touched.len()
    );
    let (zone, z_secs) = timed(|| pattern_affected_zone(&g, &report.touched, &initial.discovery));
    println!("pattern zone: {} vertices in {z_secs:.3}s", zone.len());
    let matched: std::collections::HashSet<_> = initial.matches.vertices().collect();
    let affected_matched = matched.iter().filter(|v| zone.contains(v)).count();
    println!(
        "matched: {}; affected matched: {affected_matched}",
        matched.len()
    );
    let ((_, inc_secs), spans) = gsj_obs::capture(|| {
        timed(|| {
            inc_update_graph(
                &prep.rext,
                &g,
                col.entity_relation(),
                &col.her_config(),
                &initial,
                &report,
            )
            .unwrap()
        })
    });
    println!("inc total: {inc_secs:.3}s");
    // Where the update went: IncExt's own phases and the HER call inside
    // `incext.her_redo`, in completion order.
    for s in &spans {
        if s.label.starts_with("incext.") || s.label == "her.match" {
            let fields: Vec<String> = s.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!(
                "  {:<22} {:>9.3} ms  {}",
                s.label,
                s.dur_ns as f64 / 1e6,
                fields.join(" ")
            );
        }
    }
    let (_, her_secs) = timed(|| her_match(&g, col.entity_relation(), &col.her_config()).unwrap());
    let (_, disc_secs) = timed(|| {
        prep.rext
            .discover(
                &g,
                &her_match(&g, col.entity_relation(), &col.her_config()).unwrap(),
                Some((col.entity_relation(), &col.spec.id_attr)),
                &col.spec.reference_keywords(),
                "h_x",
            )
            .unwrap()
    });
    println!("scratch: her {her_secs:.3}s, her+discover {disc_secs:.3}s");
}
