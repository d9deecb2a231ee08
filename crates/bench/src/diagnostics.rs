//! Developer diagnostics (not paper experiments), over the same [`Memo`]
//! as the experiments, and its standard RExt where they extract.

use crate::experiments::extraction;
use crate::exps::timed;
use crate::harness::{recover_f_measure, ExpConfig, Memo};
use gsj_common::{QueryGovernor, Symbol};
use gsj_core::config::RExtConfig;
use gsj_core::incext::{inc_update_graph, pattern_affected_zone};
use gsj_core::join::{enrichment_join_precomputed, LinkIndex};
use gsj_core::quality::f_measure;
use gsj_datagen::collections;
use gsj_datagen::updates::balanced_updates;
use gsj_graph::traversal::{k_hop_reach, k_hop_set};
use gsj_graph::update::apply_updates;
use gsj_graph::{LabeledGraph, VertexId};
use gsj_her::her_match;
use gsj_relational::Relation;
use std::io::{self, Write};

/// `probe`: the recover protocol on every collection, one line each.
pub fn probe(memo: &mut Memo, out: &mut dyn Write) -> io::Result<()> {
    for name in collections::ALL {
        let prep = memo.prepared(name, RExtConfig::standard());
        let o = recover_f_measure(&prep, &prep.rext, &ExpConfig::standard());
        writeln!(
            out,
            "{:<10} entities={:<6} edges={:<7} matched={:<6} P={:.3} R={:.3} F1={:.3}  (disc {:.1}s, extr {:.1}s)",
            name,
            prep.col.entity_relation().len(),
            prep.col.graph.edge_count(),
            o.matched,
            o.f.precision,
            o.f.recall,
            o.f.f1,
            o.discover_time.as_secs_f64(),
            o.extract_time.as_secs_f64(),
        )?;
    }
    Ok(())
}

fn label_seq(g: &LabeledGraph, labels: &[Symbol]) -> Vec<String> {
    let resolve = |l: &Symbol| g.symbols().resolve(*l).to_string();
    labels.iter().map(resolve).collect()
}

fn sample(r: &Relation, n: usize) -> String {
    let mut out = r.schema().attrs().join(" | ");
    out.push('\n');
    for t in r.rows().take(n) {
        let cells: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
        out.push_str(&cells.join(" | "));
        out.push('\n');
    }
    out
}

/// `diagnose <Collection>`: discovered clusters, selected attributes,
/// per-attribute F and a sample of selected paths for one collection.
pub fn diagnose(memo: &mut Memo, name: &str, out: &mut dyn Write) -> io::Result<()> {
    let prep = memo.prepared(name, RExtConfig::standard());
    let (col, g) = (&prep.col, &prep.col.graph);
    let kws = col.spec.reference_keywords();
    let reference = Some((col.entity_relation(), col.spec.id_attr.as_str()));
    let disc = prep
        .rext
        .discover(g, &prep.matches, reference, &kws, "h_x")
        .unwrap();
    writeln!(out, "keywords: {kws:?}")?;
    writeln!(out, "refined clusters: {}", disc.refined.len())?;
    for (i, rc) in disc.refined.iter().enumerate() {
        let pats: Vec<_> = rc.iter().map(|p| label_seq(g, p.labels())).collect();
        writeln!(out, "  refined[{i}]: {pats:?}")?;
    }
    for c in &disc.clusters {
        let pats: Vec<_> = c
            .patterns
            .iter()
            .map(|p| label_seq(g, p.labels()))
            .collect();
        writeln!(
            out,
            "SELECTED attr={} score={:.3} patterns={pats:?}",
            c.attr, c.score
        )?;
    }
    let dg = prep.rext.extract(g, &prep.matches, &disc).unwrap();
    writeln!(out, "\nDG sample:\n{}", sample(&dg, 5))?;
    writeln!(out, "truth sample:\n{}", sample(&col.truth, 5))?;
    let id = &col.spec.id_attr;
    let predicted =
        enrichment_join_precomputed(col.entity_relation(), id, &prep.matches, &dg, None).unwrap();
    for k in &kws {
        if !predicted.schema().contains(k) {
            writeln!(out, "attr {k}: MISSING from prediction")?;
            continue;
        }
        let f = f_measure(&predicted, &col.truth, id, &[(k.clone(), k.clone())]).unwrap();
        writeln!(
            out,
            "attr {k}: P={:.3} R={:.3} F1={:.3} (correct {}, predicted {}, expected {})",
            f.precision, f.recall, f.f1, f.correct, f.predicted, f.expected
        )?;
    }
    // Path stats for the first matched vertex.
    if let Some((_, v)) = prep.matches.pairs().first() {
        writeln!(out, "\npaths from {v}:")?;
        for p in prep.rext.select_paths(g, *v).iter().take(12) {
            let end = g.vertex_label_str(p.end());
            writeln!(out, "  {:?} -> {end}", label_seq(g, p.labels()))?;
        }
    }
    Ok(())
}

/// `incprobe [Collection] [fraction]`: time the components of one IncExt
/// update on one collection and print its `incext.*` / `her.*` /
/// `rext.extract` spans.
pub fn incprobe(memo: &mut Memo, name: &str, frac: f64, out: &mut dyn Write) -> io::Result<()> {
    let prep = memo.prepared(name, RExtConfig::standard());
    let col = &prep.col;
    let (s, her_cfg) = (col.entity_relation(), col.her_config());
    let kws = col.spec.reference_keywords();
    let reference = Some((s, col.spec.id_attr.as_str()));
    let initial = extraction(&prep, &col.graph, prep.matches.clone());
    let mut g = col.graph.clone();
    let ups = balanced_updates(&g, frac, 31);
    let report = apply_updates(&mut g, &ups);
    writeln!(
        out,
        "graph: {} vertices {} edges; updates: {}; touched: {}",
        g.vertex_count(),
        g.edge_count(),
        ups.len(),
        report.touched.len()
    )?;
    let (zone, z_secs) = timed(|| pattern_affected_zone(&g, &report.touched, &initial.discovery));
    writeln!(out, "pattern zone: {} vertices in {z_secs:.3}s", zone.len())?;
    let matched: std::collections::HashSet<_> = initial.matches.vertices().collect();
    let affected_matched = matched.iter().filter(|v| zone.contains(v)).count();
    writeln!(
        out,
        "matched: {}; affected matched: {affected_matched}",
        matched.len()
    )?;
    let ((_, inc_secs), spans) = gsj_obs::capture(|| {
        timed(|| inc_update_graph(&prep.rext, &g, s, &her_cfg, &initial, &report).unwrap())
    });
    writeln!(out, "inc total: {inc_secs:.3}s")?;
    // Where the update went: IncExt's own phases, the index build and the
    // scoring inside `incext.her_redo`, and the extraction inside
    // `incext.re_extract`, in completion order.
    for sp in &spans {
        if ["incext.", "her.", "rext.extract"]
            .iter()
            .any(|prefix| sp.label.starts_with(prefix))
        {
            let fields: Vec<String> = sp.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                out,
                "  {:<22} {:>9.3} ms  {}",
                sp.label,
                sp.dur_ns as f64 / 1e6,
                fields.join(" ")
            )?;
        }
    }
    let (matches, her_secs) = timed(|| her_match(&g, s, &her_cfg).unwrap());
    let (_, disc_secs) = timed(|| {
        prep.rext
            .discover(&g, &matches, reference, &kws, "h_x")
            .unwrap()
    });
    writeln!(out, "scratch: her {her_secs:.3}s, discover {disc_secs:.3}s")
}

/// `linkprobe [Collection]`: the `g_L` index of one collection at
/// `k = 2` over its HER matches — no language model is trained — built
/// one `k_hop_set` per source and by [`LinkIndex::build`], each the
/// median of 15 runs.
pub fn linkprobe(memo: &mut Memo, name: &str, out: &mut dyn Write) -> io::Result<()> {
    const K: usize = 2;
    const RUNS: usize = 15;
    let col = memo.collection(name);
    let g = &col.graph;
    let mut sources: Vec<VertexId> = memo.matches(name).vertices().collect();
    sources.sort_unstable();
    sources.dedup();
    let gov = QueryGovernor::unlimited();
    let median_ms = |run: &mut dyn FnMut()| -> f64 {
        let mut ms: Vec<f64> = (0..RUNS).map(|_| timed(&mut *run).1 * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        ms[RUNS / 2]
    };
    let per_source = median_ms(&mut || {
        for &s in &sources {
            std::hint::black_box(k_hop_set(g, s, K));
        }
    });
    let batched = median_ms(&mut || {
        std::hint::black_box(LinkIndex::build(g, &sources, &sources, K, &gov).unwrap());
    });
    let reach = k_hop_reach(g, &sources, &sources, K, &gov).unwrap();
    writeln!(
        out,
        "{name} scale={} |V|={} k={K}: sources={} pairs={} batches={} expanded={}",
        memo.scale().0,
        g.vertex_count(),
        sources.len(),
        reach.targets.len(),
        reach.batches,
        reach.expanded
    )?;
    writeln!(
        out,
        "per-source k_hop_set {per_source:.3} ms, LinkIndex::build {batched:.3} ms ({:.1}x; median of {RUNS})",
        per_source / batched.max(1e-9)
    )
}
