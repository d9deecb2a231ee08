//! # gsj-core
//!
//! The paper's primary contribution (Sections II–IV of *"Extracting Graphs
//! Properties with Semantic Joins"*, ICDE 2023):
//!
//! - **RExt** ([`rext`], [`discover`], [`extract`]): the relation-extraction
//!   scheme — LSTM-guided path selection, path embedding, K-means
//!   clustering, majority-vote pattern refinement, ranked attribute
//!   selection (pattern discovery phase I), and Algorithm 1 (extraction
//!   phase II).
//! - **Typed extraction** ([`typed`]): `Rτ` / `gτ(G)` without reference
//!   tuples, the substrate of heuristic joins.
//! - **IncExt** ([`incext`]): incremental maintenance under graph updates
//!   `ΔG` and keyword updates.
//! - **Semantic joins** ([`join`]): enrichment joins `S ⋈_A G` and link
//!   joins `S1 ⋈_G S2`.
//! - **gSQL** ([`gsql`]): the SQL extension with `e-join` / `l-join`
//!   syntactic sugar — lexer, parser, well-behaved analysis, and the three
//!   execution strategies (conceptual baseline, optimized
//!   static/dynamic joins over pre-extracted relations, heuristic joins).
//! - **Offline profiling** ([`profile`]): `f(D,G)`, reference keywords
//!   `A_R`, materialized `h(D,G)`, typed relations, and the link-join
//!   connectivity relation `g_L` as a shared reachability index
//!   (Section IV-A).

pub mod config;
pub mod discover;
pub mod embed_paths;
pub mod extract;
pub mod gsql;
pub mod heuristic;
pub mod incext;
pub mod join;
pub mod path_select;
pub mod profile;
pub mod quality;
pub mod ranking;
pub mod rext;
pub mod typed;

pub use config::{EmbedKind, PathKind, RExtConfig, SeqKind};
pub use discover::Discovery;
pub use gsql::exec::{GsqlEngine, QueryRun, Strategy, TraceOpt};
pub use profile::GraphProfile;
pub use rext::Rext;
