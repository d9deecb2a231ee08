//! Criterion ablation benches for the design choices DESIGN.md §4 calls
//! out: LM-guided vs random path selection, hash vs attention embeddings,
//! LSTM vs attention sequence embedding, and pattern refinement.

use criterion::{criterion_group, criterion_main, Criterion};
use gsj_core::discover::refine_patterns;
use gsj_core::path_select::{select_paths_guided, select_paths_random};
use gsj_datagen::{collections, Scale};
use gsj_nn::lm::SequenceEmbedder;
use gsj_nn::{AttnEncoder, HashEmbedder, LanguageModel, LmConfig, WordEmbedder};

fn bench_ablation(c: &mut Criterion) {
    let col = collections::build("Drugs", Scale(60), 3).unwrap();
    let g = &col.graph;
    let corpus = gsj_graph::random_walk::build_corpus(
        g,
        &Default::default(),
        &gsj_common::QueryGovernor::unlimited(),
    )
    .unwrap();
    let lm = LanguageModel::train(
        &corpus,
        g.symbols(),
        LmConfig {
            epochs: 1,
            ..LmConfig::default()
        },
    );
    let starts: Vec<_> = col.entity_vertices.iter().copied().take(30).collect();

    // --- Path selection: guided vs random -------------------------------
    c.bench_function("select_paths_guided_30v", |b| {
        b.iter(|| {
            for &v in &starts {
                std::hint::black_box(select_paths_guided(g, v, 3, &lm));
            }
        })
    });
    c.bench_function("select_paths_random_30v", |b| {
        b.iter(|| {
            for &v in &starts {
                std::hint::black_box(select_paths_random(g, v, 3, 7));
            }
        })
    });

    // --- Word embedding: hash (GloVe stand-in) vs attention (BERT
    // stand-in) — the cost relation behind RExt vs RExtBertEmb.
    let hash = HashEmbedder::new(256);
    let attn = AttnEncoder::for_words(100);
    let labels = ["registered location", "company name", "Coral Savanna 12"];
    c.bench_function("embed_hash_3labels", |b| {
        b.iter(|| {
            for l in labels {
                std::hint::black_box(hash.embed(l));
            }
        })
    });
    c.bench_function("embed_attn_3labels", |b| {
        b.iter(|| {
            for l in labels {
                std::hint::black_box(attn.embed(l));
            }
        })
    });

    // --- Sequence embedding: LSTM vs attention --------------------------
    let seq_attn = AttnEncoder::for_sequences(100, g.symbols().clone());
    let seq: Vec<_> = corpus[0].iter().copied().take(5).collect();
    c.bench_function("seq_embed_lstm", |b| {
        b.iter(|| std::hint::black_box(lm.embed_symbols(&seq)))
    });
    c.bench_function("seq_embed_attn", |b| {
        b.iter(|| std::hint::black_box(seq_attn.embed_symbols(&seq)))
    });

    // --- Pattern refinement ----------------------------------------------
    let paths: Vec<_> = starts
        .iter()
        .flat_map(|&v| select_paths_random(g, v, 3, 7))
        .collect();
    let assignments: Vec<usize> = (0..paths.len()).map(|i| i % 30).collect();
    c.bench_function("refine_patterns", |b| {
        b.iter(|| std::hint::black_box(refine_patterns(&paths, &assignments, 30)))
    });
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
