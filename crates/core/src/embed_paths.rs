//! Vertex-path pair vectorization (Section III-A step 2).
//!
//! Each selected path `ρij` ending at vertex `vij` becomes one feature
//! vector `x_ij = [ x_{L(vij)} ; x_ρij ]`: the word embedding of the end
//! vertex's label concatenated with the sequence embedding of the path's
//! edge labels, each half L2-normalized first (the paper performs "L2
//! normalization before vector concatenation"). With the default models
//! this is the paper's 200-dimensional vertex-path representation.
//!
//! Both halves are pure functions of few distinct inputs — hundreds of
//! selected paths end on far fewer distinct labels and follow a few dozen
//! distinct label sequences — so each half is embedded once per distinct
//! input and the per-path vectors are assembled by concatenation.

use crate::extract::LabelEmbCache;
use gsj_common::{first_occurrences, Result, Symbol};
use gsj_graph::{LabeledGraph, Path};
use gsj_nn::lm::SequenceEmbedder;
use gsj_nn::WordEmbedder;

/// The label of the vertex a selected path ends on.
pub(crate) fn end_label(g: &LabeledGraph, path: &Path) -> Symbol {
    g.vertex_label(path.end())
        .expect("selected paths end on live vertices")
}

/// The feature vectors of a batch of paths, in path order.
pub(crate) struct PairFeatures {
    pub features: Vec<Vec<f32>>,
    /// Distinct end labels embedded with `Me`.
    pub distinct_labels: usize,
    /// Distinct label sequences embedded with `Mρ`.
    pub distinct_patterns: usize,
}

/// Embed every path's end-label + label-sequence pair. `me` keeps the raw
/// end-label embeddings for the ranking step that follows.
pub(crate) fn embed_paths(
    g: &LabeledGraph,
    paths: &[Path],
    word: &dyn WordEmbedder,
    seq: &dyn SequenceEmbedder,
    me: &mut LabelEmbCache,
) -> Result<PairFeatures> {
    // Both distinct sets are fixed before any parallel work, so what is
    // embedded, and in which order, does not depend on the worker count.
    let (labels, label_of) = first_occurrences(paths.iter().map(|p| end_label(g, p)));
    let (patterns, pattern_of) = first_occurrences(paths.iter().map(Path::labels));
    me.fill(g.symbols(), word, labels.iter().copied())?;
    let x_labels: Vec<Vec<f32>> = labels
        .iter()
        .map(|&l| {
            let mut x = me.get(l).to_vec();
            gsj_nn::vector::l2_normalize(&mut x);
            x
        })
        .collect();
    let x_paths: Vec<Vec<f32>> = patterns
        .iter()
        .map(|labels| {
            let mut x = seq.embed_symbols(labels);
            gsj_nn::vector::l2_normalize(&mut x);
            x
        })
        .collect();
    Ok(PairFeatures {
        features: label_of
            .iter()
            .zip(&pattern_of)
            .map(|(&l, &p)| gsj_nn::vector::concat(&x_labels[l as usize], &x_paths[p as usize]))
            .collect(),
        distinct_labels: labels.len(),
        distinct_patterns: patterns.len(),
    })
}

/// One path embedded on its own — what [`embed_paths`] did for every path
/// before it shared work between them; the tests hold it to these bits.
#[cfg(test)]
fn embed_pair(
    g: &LabeledGraph,
    path: &Path,
    word: &dyn WordEmbedder,
    seq: &dyn SequenceEmbedder,
) -> Vec<f32> {
    let end_label = g.vertex_label_str(path.end());
    let mut x_label = word.embed(&end_label);
    gsj_nn::vector::l2_normalize(&mut x_label);
    let mut x_path = seq.embed_symbols(path.labels());
    gsj_nn::vector::l2_normalize(&mut x_path);
    gsj_nn::vector::concat(&x_label, &x_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_nn::{HashEmbedder, LanguageModel, LmConfig};

    fn setting() -> (LabeledGraph, Vec<Path>, LanguageModel) {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex("pid1");
        let b = g.add_vertex("company1");
        let c = g.add_vertex("UK");
        g.add_edge(a, "issue", b);
        g.add_edge(b, "regloc", c);
        let corpus = gsj_graph::random_walk::build_corpus(
            &g,
            &Default::default(),
            &gsj_common::QueryGovernor::unlimited(),
        )
        .unwrap();
        let lm = LanguageModel::untrained(
            &corpus,
            g.symbols(),
            LmConfig {
                embed_dim: 4,
                hidden: 8,
                ..LmConfig::default()
            },
        );
        let paths = crate::path_select::select_paths_random(&g, a, 2, 1);
        (g, paths, lm)
    }

    #[test]
    fn dimension_is_word_plus_seq() {
        let (g, paths, lm) = setting();
        let word = HashEmbedder::new(10);
        let x = embed_pair(&g, &paths[0], &word, &lm);
        assert_eq!(x.len(), 10 + 8);
    }

    #[test]
    fn halves_are_normalized() {
        let (g, paths, lm) = setting();
        let word = HashEmbedder::new(10);
        let x = embed_pair(&g, &paths[0], &word, &lm);
        let n1 = gsj_nn::vector::l2_norm(&x[..10]);
        let n2 = gsj_nn::vector::l2_norm(&x[10..]);
        assert!((n1 - 1.0).abs() < 1e-4, "label half norm {n1}");
        assert!((n2 - 1.0).abs() < 1e-4, "path half norm {n2}");
    }

    #[test]
    fn different_end_labels_give_different_vectors() {
        let (g, paths, lm) = setting();
        assert!(paths.len() >= 2, "need a 1-hop and a 2-hop path");
        let word = HashEmbedder::new(10);
        let xs = embed_paths(&g, &paths, &word, &lm, &mut Default::default())
            .unwrap()
            .features;
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn batch_equals_one_path_at_a_time_at_any_thread_count() {
        let (g, mut paths, lm) = setting();
        // Repeat the paths so labels and sequences recur.
        paths = paths.iter().cycle().take(12).cloned().collect();
        let word = HashEmbedder::new(10);
        let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let batch = embed_paths(&g, &paths, &word, &lm, &mut Default::default()).unwrap();
        assert_eq!((batch.distinct_labels, batch.distinct_patterns), (2, 2));
        for (p, x) in paths.iter().zip(&batch.features) {
            assert_eq!(bits(x), bits(&embed_pair(&g, p, &word, &lm)));
        }
    }
}
