//! ΔG batches that undo themselves: each generated batch is followed by
//! its exact inverse, so after every second update the edge set is the
//! pristine one again and a run is stationary at any length.
//!
//! The batches belong to the data set: like the collection they are
//! generated from [`DATA_SEED`], because what a batch costs depends on
//! where its edges fall (18–26 ms between batches at fixture B). `--seed`
//! picks the batch a run starts with.

use crate::fixture::DATA_SEED;
use crate::workload::{mix, DELTA_BATCHES};
use gsj_datagen::updates::balanced_updates;
use gsj_graph::update::apply_updates;
use gsj_graph::{GraphUpdate, LabeledGraph};

/// Share of `|E|` one batch touches (Exp-4 uses 5 %).
pub const FRACTION: f64 = 0.05;

/// The elements of `batch` that change `g` when applied in order. The
/// generator may remove an edge twice or insert a duplicate; such no-ops
/// have no inverse, so they are dropped.
fn effective(g: &LabeledGraph, batch: Vec<GraphUpdate>) -> Vec<GraphUpdate> {
    let mut scratch = g.clone();
    batch
        .into_iter()
        .filter(|u| apply_updates(&mut scratch, std::slice::from_ref(u)).no_ops == 0)
        .collect()
}

/// Undo `batch`: reverse order, insertions and removals swapped.
pub fn inverse(batch: &[GraphUpdate]) -> Vec<GraphUpdate> {
    batch
        .iter()
        .rev()
        .map(|u| match u.clone() {
            GraphUpdate::AddEdge { src, label, dst } => GraphUpdate::RemoveEdge { src, label, dst },
            GraphUpdate::RemoveEdge { src, label, dst } => GraphUpdate::AddEdge { src, label, dst },
            other => unreachable!("balanced_updates only edits edges, got {other:?}"),
        })
        .collect()
}

/// `batch 0, inverse 0, batch 1, inverse 1, …` over the pristine graph.
pub fn sequence(g0: &LabeledGraph) -> Vec<Vec<GraphUpdate>> {
    (0..DELTA_BATCHES)
        .flat_map(|i| {
            let seed = mix(DATA_SEED, 100 + i as u64);
            let batch = effective(g0, balanced_updates(g0, FRACTION, seed));
            let undo = inverse(&batch);
            [batch, undo]
        })
        .collect()
}

/// The directed labelled edges of `g`, sorted: equal lists mean equal
/// edge sets (`LabeledGraph` keeps no duplicate edges).
pub fn edge_list(g: &LabeledGraph) -> Vec<(u32, String, u32)> {
    let mut edges: Vec<(u32, String, u32)> = g
        .vertices()
        .flat_map(|v| {
            g.out_edges(v)
                .iter()
                .map(move |e| (v.0, g.symbols().resolve(e.label).to_string(), e.to.0))
        })
        .collect();
    edges.sort();
    edges
}
