//! Developer diagnostic: dump discovery details for one collection.

use gsj_bench::{prepared, ExpConfig};
use gsj_core::join::enrichment_join_precomputed;
use gsj_core::quality::f_measure;
use gsj_datagen::{collections, Scale};

fn main() {
    let _obs = gsj_bench::obs_scope("diagnose");
    let name = std::env::args().nth(1).unwrap_or_else(|| "Drugs".into());
    let scale = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let seed = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let col = collections::build(&name, Scale(scale), seed).expect("collection");
    let prep = prepared(&col, ExpConfig::standard().rext);
    let kws = col.spec.reference_keywords();
    let disc = prep
        .rext
        .discover(
            &col.graph,
            &prep.matches,
            Some((col.entity_relation(), &col.spec.id_attr)),
            &kws,
            "h_x",
        )
        .unwrap();
    println!("keywords: {kws:?}");
    println!("refined clusters: {}", disc.refined.len());
    for (i, rc) in disc.refined.iter().enumerate() {
        let pats: Vec<Vec<String>> = rc
            .iter()
            .map(|p| {
                p.labels()
                    .iter()
                    .map(|l| col.graph.symbols().resolve(*l).to_string())
                    .collect()
            })
            .collect();
        println!("  refined[{i}]: {pats:?}");
    }
    for c in &disc.clusters {
        let pats: Vec<Vec<String>> = c
            .patterns
            .iter()
            .map(|p| {
                p.labels()
                    .iter()
                    .map(|l| col.graph.symbols().resolve(*l).to_string())
                    .collect()
            })
            .collect();
        println!(
            "SELECTED attr={} score={:.3} patterns={pats:?}",
            c.attr, c.score
        );
    }
    let dg = prep.rext.extract(&col.graph, &prep.matches, &disc).unwrap();
    println!("\nDG sample:\n{}", sample(&dg, 5));
    println!("truth sample:\n{}", sample(&col.truth, 5));
    let predicted = enrichment_join_precomputed(
        col.entity_relation(),
        &col.spec.id_attr,
        &prep.matches,
        &dg,
        None,
    )
    .unwrap();
    for k in &kws {
        if !predicted.schema().contains(k) {
            println!("attr {k}: MISSING from prediction");
            continue;
        }
        let f = f_measure(
            &predicted,
            &col.truth,
            &col.spec.id_attr,
            &[(k.clone(), k.clone())],
        )
        .unwrap();
        println!(
            "attr {k}: P={:.3} R={:.3} F1={:.3} (correct {}, predicted {}, expected {})",
            f.precision, f.recall, f.f1, f.correct, f.predicted, f.expected
        );
    }
    // Path stats for the first matched vertex.
    if let Some((_, v)) = prep.matches.pairs().first() {
        let paths = prep.rext.select_paths(&col.graph, *v);
        println!("\npaths from {v}:");
        for p in paths.iter().take(12) {
            let labels: Vec<String> = p
                .labels()
                .iter()
                .map(|l| col.graph.symbols().resolve(*l).to_string())
                .collect();
            println!("  {labels:?} -> {}", col.graph.vertex_label_str(p.end()));
        }
    }
}

fn sample(r: &gsj_relational::Relation, n: usize) -> String {
    let mut out = String::new();
    out.push_str(&r.schema().attrs().join(" | "));
    out.push('\n');
    for t in r.rows().take(n) {
        let cells: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
        out.push_str(&cells.join(" | "));
        out.push('\n');
    }
    out
}
