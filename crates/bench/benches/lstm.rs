//! Criterion microbench: LSTM language model — one prediction step, one
//! sequence embedding, and one training epoch at the serving shape.

use criterion::{criterion_group, criterion_main, Criterion};
use gsj_common::SymbolTable;
use gsj_nn::{LanguageModel, LmConfig};

/// `sentences` sentences of `len(i)` tokens over `vocab` letter-distinct
/// labels (label normalization strips digits).
fn corpus(
    table: &SymbolTable,
    vocab: usize,
    sentences: usize,
    len: impl Fn(usize) -> usize,
) -> Vec<Vec<gsj_common::Symbol>> {
    let toks: Vec<_> = (0..vocab)
        .map(|i| {
            table.intern(&format!(
                "{}{}",
                (b'a' + (i / 26) as u8) as char,
                (b'a' + (i % 26) as u8) as char
            ))
        })
        .collect();
    (0..sentences)
        .map(|i| {
            (0..len(i))
                .map(|j| toks[(i * 7 + j * 3) % toks.len()])
                .collect()
        })
        .collect()
}

fn bench_lstm(c: &mut Criterion) {
    let table = SymbolTable::new();
    let data = corpus(&table, 40, 400, |_| 8);
    let cfg = LmConfig {
        epochs: 1,
        ..LmConfig::default()
    };
    let model = LanguageModel::train(&data, &table, cfg.clone());
    let sample: Vec<_> = data[0].clone();

    c.bench_function("lm_session_feed", |b| {
        b.iter(|| {
            let mut s = model.session();
            for &t in &sample {
                std::hint::black_box(s.feed(t));
            }
        })
    });
    c.bench_function("lm_embed_sequence", |b| {
        b.iter(|| std::hint::black_box(model.embed_sequence(&sample)))
    });
    // What a `gsj-serve` start trains on (Celebrity at `Scale(100)`): a
    // vocabulary of ≈ 190, `hidden` 100, 4 000 sampled sentences of ≈ 9
    // tokens. One epoch per iteration, so the reported time is per epoch.
    let serving = corpus(&table, 188, 4000, |i| 7 + i % 5);
    c.bench_function("lm_train_epoch", |b| {
        b.iter(|| {
            let mut m = LanguageModel::untrained(&serving, &table, cfg.clone());
            m.fit(&serving);
            std::hint::black_box(&m);
        })
    });
}

criterion_group!(benches, bench_lstm);
criterion_main!(benches);
