//! Shared experiment machinery: the per-process memo of offline
//! preparation and the drop-and-recover protocol of Exp-2.

use crate::exps::timed;
use gsj_core::config::{LmKey, RExtConfig};
use gsj_core::join::enrichment_join_precomputed;
use gsj_core::quality::{f_measure, FMeasure};
use gsj_core::rext::Rext;
use gsj_datagen::{collections, Collection, Scale};
use gsj_her::noise::inject_mismatches;
use gsj_her::{her_match, MatchRelation};
use gsj_nn::LanguageModel;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed every experiment generates its collections with.
const COLLECTION_SEED: u64 = 5;

/// A trained model and the seconds its training took.
type TimedModel = (Arc<LanguageModel>, f64);

/// Offline preparation, done once per distinct input and kept for the
/// life of the process: a collection per name, `f(S,G)` per collection,
/// and one language model per (collection, [`LmKey`]) — five of the six
/// method variants share a key, so a six-variant sweep trains two models,
/// not six. Nothing is written to disk.
pub struct Memo {
    scale: Scale,
    collections: HashMap<String, Arc<Collection>>,
    matches: HashMap<String, MatchRelation>,
    models: HashMap<String, Vec<(LmKey, TimedModel)>>,
    pub(crate) sweeps: HashMap<&'static str, Arc<crate::experiments::Grid>>,
}

/// A method variant ready to run on one collection.
pub struct Prepared {
    /// The collection.
    pub col: Arc<Collection>,
    /// The trained extraction scheme.
    pub rext: Rext,
    /// `f(S,G)` for the entity relation.
    pub matches: MatchRelation,
}

impl Memo {
    /// An empty memo; every collection it builds is generated at `scale`.
    pub fn new(scale: Scale) -> Self {
        Memo {
            scale,
            collections: HashMap::new(),
            matches: HashMap::new(),
            models: HashMap::new(),
            sweeps: HashMap::new(),
        }
    }

    /// The scale of this run.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The named collection. Panics on a name outside
    /// [`collections::ALL`].
    pub fn collection(&mut self, name: &str) -> Arc<Collection> {
        let scale = self.scale;
        let col = self.collections.entry(name.to_string()).or_insert_with(|| {
            let col = collections::build(name, scale, COLLECTION_SEED);
            Arc::new(col.unwrap_or_else(|| panic!("unknown collection `{name}`")))
        });
        Arc::clone(col)
    }

    /// The language model `cfg` needs on the named collection, with its
    /// training time; `None` for a variant that uses no model.
    pub fn model(&mut self, name: &str, cfg: &RExtConfig) -> Option<TimedModel> {
        let key = cfg.lm_key()?;
        let col = self.collection(name);
        let trained = self.models.entry(name.to_string()).or_default();
        if let Some((_, model)) = trained.iter().find(|(k, _)| *k == key) {
            return Some(model.clone());
        }
        let (lm, secs) = timed(|| Rext::train_model(&col.graph, cfg).expect("training"));
        let model = (lm.expect("a variant with a key trains a model"), secs);
        trained.push((key, model.clone()));
        Some(model)
    }

    /// `cfg` assembled on the collection's memoized model, next to the
    /// collection's memoized HER matches.
    pub fn prepared(&mut self, name: &str, cfg: RExtConfig) -> Prepared {
        let col = self.collection(name);
        let lm = self.model(name, &cfg).map(|(lm, _)| lm);
        let rext = Rext::with_model(&col.graph, cfg, lm).expect("valid config");
        let matches = self.matches(name);
        Prepared { col, rext, matches }
    }

    /// `f(S,G)` of the named collection's entity relation.
    pub fn matches(&mut self, name: &str) -> MatchRelation {
        let col = self.collection(name);
        self.matches
            .entry(name.to_string())
            .or_insert_with(|| {
                her_match(&col.graph, col.entity_relation(), &col.her_config())
                    .expect("id attr exists")
            })
            .clone()
    }

    /// How many language models this memo has trained.
    pub fn models_trained(&self) -> usize {
        self.models.values().map(Vec::len).sum()
    }
}

/// Knobs of one recover run.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// How many of the collection's keywords to recover (`m` in Exp-2);
    /// `0` = all.
    pub m: usize,
    /// Fraction of clustering noise to inject (Fig 5(f)).
    pub cluster_noise: f64,
    /// Fraction of HER mismatches to inject (Fig 5(g)).
    pub her_eta: f64,
    /// Seed for the noise injections.
    pub noise_seed: u64,
}

impl ExpConfig {
    /// All keywords, no noise.
    pub fn standard() -> Self {
        ExpConfig {
            m: 0,
            cluster_noise: 0.0,
            her_eta: 0.0,
            noise_seed: 7,
        }
    }
}

/// The outcome of a drop-and-recover run.
#[derive(Debug, Clone)]
pub struct RecoverOutcome {
    /// Extraction quality against the generator's ground truth.
    pub f: FMeasure,
    /// Pattern-discovery wall time.
    pub discover_time: Duration,
    /// Algorithm-1 extraction wall time.
    pub extract_time: Duration,
    /// HER match count.
    pub matched: usize,
}

impl RecoverOutcome {
    /// Discovery + extraction, in seconds (the Fig 5(d)/(e) measure).
    pub fn secs(&self) -> f64 {
        (self.discover_time + self.extract_time).as_secs_f64()
    }
}

/// Run the Exp-2 protocol with `rext` (the prepared scheme, or a
/// `with_h` / `with_k` clone of it): discover patterns for the first `m`
/// keywords, extract, join, and score against ground truth.
pub fn recover_f_measure(prep: &Prepared, rext: &Rext, exp: &ExpConfig) -> RecoverOutcome {
    let col = &prep.col;
    let all_kws = col.spec.reference_keywords();
    let m = if exp.m == 0 {
        all_kws.len()
    } else {
        exp.m.min(all_kws.len())
    };
    let keywords = &all_kws[..m];
    // The attribute budget follows the number of dropped columns under
    // recovery (the paper sets m to the number of dropped attributes).
    let rext = rext.with_m(m);

    let matches = if exp.her_eta > 0.0 {
        inject_mismatches(&prep.matches, &col.graph, exp.her_eta, exp.noise_seed)
    } else {
        prep.matches.clone()
    };
    let s = col.entity_relation();
    let id = &col.spec.id_attr;

    let t0 = Instant::now();
    let noise = (exp.cluster_noise > 0.0).then_some((exp.cluster_noise, exp.noise_seed));
    let discovery = rext
        .discover_with_noise(
            &col.graph,
            &matches,
            Some((s, id)),
            keywords,
            &format!("h_{}", col.spec.rel_name),
            noise,
        )
        .expect("discovery");
    let discover_time = t0.elapsed();

    let t1 = Instant::now();
    let dg = rext
        .extract(&col.graph, &matches, &discovery)
        .expect("extract");
    let extract_time = t1.elapsed();

    let predicted = enrichment_join_precomputed(s, id, &matches, &dg, None).expect("join");
    let (found, missing): (Vec<&String>, Vec<&String>) = keywords
        .iter()
        .partition(|k| predicted.schema().contains(k.as_str()));
    let f = if found.is_empty() {
        // Nothing extracted at all: zero quality over the requested cells.
        FMeasure::from_counts(0, 0, col.truth.len() * m)
    } else {
        let pairs: Vec<(String, String)> = found.iter().map(|&k| (k.clone(), k.clone())).collect();
        let f = f_measure(&predicted, &col.truth, id, &pairs).expect("measure");
        // Penalize silently-missing attributes: their truth cells count
        // as missed.
        let missed: usize = missing
            .iter()
            .map(|k| {
                let cells = col.truth.column(k).unwrap_or_default();
                cells.iter().filter(|v| !v.is_null()).count()
            })
            .sum();
        FMeasure::from_counts(f.correct, f.predicted, f.expected + missed)
    };

    RecoverOutcome {
        f,
        discover_time,
        extract_time,
        matched: matches.len(),
    }
}
