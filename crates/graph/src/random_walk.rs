//! Random-walk corpus generation for training the path language model.
//!
//! Section III-A: "To train Mρ, we conduct random walk in G and collect
//! sequences of edge/vertex labels on random walk paths to build a training
//! corpus. Taking the labels as sentences of words, we train Mρ on the
//! corpus driven by the perplexity loss." The corpus construction is
//! unsupervised.
//!
//! A sentence alternates vertex and edge labels:
//! `L(v0), L(v0,v1), L(v1), L(v1,v2), ..., L(vl)` — so that after seeing a
//! vertex label, the model's next-token distribution ranges over plausible
//! edge labels, which is exactly how path selection queries it.

use crate::graph::{Direction, LabeledGraph, VertexId};
use gsj_common::{QueryGovernor, Result, Symbol};
use gsj_faults::{fault_point, FaultClass};
use rand::rngs::SmallRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// Corpus generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkConfig {
    /// Number of walks started per live vertex.
    pub walks_per_vertex: usize,
    /// Maximum walk length in edges.
    pub max_len: usize,
    /// RNG seed (corpus generation is deterministic given the graph).
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walks_per_vertex: 2,
            max_len: 6,
            seed: 0x5eed,
        }
    }
}

/// One corpus sentence: interleaved vertex/edge label symbols.
pub type Sentence = Vec<Symbol>;

/// Generate a random-walk corpus over the undirected view of `g`.
///
/// Each walk starts at a live vertex, takes uniformly random incident edges
/// (never immediately backtracking when it has another choice), and records
/// the alternating vertex/edge label sequence. Walks of length zero (from
/// isolated vertices) are skipped. The per-walk loop observes `gov`'s
/// cancellation and deadline (strided), and the stage carries the
/// `graph.random_walk` fault point; callers with nothing to enforce pass
/// [`QueryGovernor::unlimited`].
pub fn build_corpus(
    g: &LabeledGraph,
    cfg: &WalkConfig,
    gov: &QueryGovernor,
) -> Result<Vec<Sentence>> {
    let mut span = gsj_obs::span("graph.random_walk");
    static WALKS: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_graph_walks_total");
    static TOKENS: gsj_obs::LazyCounter = gsj_obs::LazyCounter::new("gsj_graph_walk_tokens_total");
    fault_point("graph.random_walk", FaultClass::Critical)?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let vertices: Vec<VertexId> = g.vertices().collect();
    let mut corpus = Vec::with_capacity(vertices.len() * cfg.walks_per_vertex);
    for &start in &vertices {
        for _ in 0..cfg.walks_per_vertex {
            gov.check_coarse("graph.random_walk")?;
            if let Some(s) = walk_sentence(g, start, cfg.max_len, &mut rng) {
                corpus.push(s);
            }
        }
    }
    WALKS.add(corpus.len() as u64);
    TOKENS.add(corpus.iter().map(|s| s.len() as u64).sum());
    span.field("vertices", vertices.len())
        .field("sentences", corpus.len());
    Ok(corpus)
}

fn walk_sentence(
    g: &LabeledGraph,
    start: VertexId,
    max_len: usize,
    rng: &mut SmallRng,
) -> Option<Sentence> {
    let mut sentence = Vec::with_capacity(2 * max_len + 1);
    sentence.push(g.vertex_label(start)?);
    let mut current = start;
    let mut prev: Option<VertexId> = None;
    let mut prev_hop: Option<(Symbol, Direction)> = None;
    for _ in 0..max_len {
        let incident: Vec<_> = g.incident(current).collect();
        if incident.is_empty() {
            break;
        }
        // Avoid immediate backtracking and *sibling bounces* (leaving a
        // shared vertex over the same predicate it was entered by, with
        // flipped orientation): both teach the model hub-bouncing
        // statistics instead of property-path structure, and path
        // selection excludes them too.
        let non_back: Vec<_> = incident
            .iter()
            .filter(|(e, d)| {
                Some(e.to) != prev && prev_hop.is_none_or(|(pl, pd)| !(pl == e.label && pd != *d))
            })
            .copied()
            .collect();
        let pool = if non_back.is_empty() {
            &incident
        } else {
            &non_back
        };
        let (edge, dir) = *pool.choose(rng)?;
        sentence.push(edge.label);
        sentence.push(g.vertex_label(edge.to)?);
        prev = Some(current);
        prev_hop = Some((edge.label, dir));
        current = edge.to;
        // Occasionally stop early so the corpus contains short sentences
        // too — the LM must learn where sentences plausibly end.
        if rng.random_range(0..u32::try_from(max_len).unwrap_or(u32::MAX).max(1)) == 0 {
            break;
        }
    }
    if sentence.len() < 3 {
        None
    } else {
        Some(sentence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let hub = g.add_vertex("hub");
        for i in 0..5 {
            let leaf = g.add_vertex(&format!("leaf{i}"));
            g.add_edge(hub, "spoke", leaf);
        }
        g
    }

    fn corpus(g: &LabeledGraph, cfg: &WalkConfig) -> Vec<Sentence> {
        build_corpus(g, cfg, &QueryGovernor::unlimited()).unwrap()
    }

    #[test]
    fn corpus_is_deterministic_for_fixed_seed() {
        let g = star();
        let cfg = WalkConfig::default();
        assert_eq!(corpus(&g, &cfg), corpus(&g, &cfg));
    }

    #[test]
    fn sentences_alternate_vertex_edge_labels() {
        let g = star();
        let corpus = corpus(&g, &WalkConfig::default());
        assert!(!corpus.is_empty());
        let spoke = g.symbols().get("spoke").unwrap();
        for s in &corpus {
            // Odd positions are edge labels in a star: all "spoke".
            assert!(
                s.len() >= 3 && s.len() % 2 == 1,
                "odd length, got {}",
                s.len()
            );
            for (i, sym) in s.iter().enumerate() {
                if i % 2 == 1 {
                    assert_eq!(*sym, spoke);
                }
            }
        }
    }

    #[test]
    fn isolated_vertices_produce_no_sentences() {
        let mut g = LabeledGraph::new();
        g.add_vertex("lonely");
        assert!(corpus(&g, &WalkConfig::default()).is_empty());
    }

    #[test]
    fn corpus_build_observes_cancel() {
        // Fresh governor: its first strided check runs the full check.
        let gov = QueryGovernor::unlimited();
        gov.cancel();
        assert_eq!(
            build_corpus(&star(), &WalkConfig::default(), &gov),
            Err(gsj_common::GsjError::Cancelled)
        );
    }

    #[test]
    fn walk_length_respects_max_len() {
        let g = star();
        let cfg = WalkConfig {
            max_len: 2,
            ..WalkConfig::default()
        };
        for s in corpus(&g, &cfg) {
            assert!(s.len() <= 2 * cfg.max_len + 1);
        }
    }
}
