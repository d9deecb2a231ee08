//! # gsj-cluster
//!
//! K-means clustering (KMC) — the unsupervised grouping step of RExt's
//! pattern discovery (Section III-A step 2). The paper picks K-means
//! because "it can be efficiently parallelized and often achieves excellent
//! quality in practice"; this crate provides k-means++ seeding and Lloyd
//! iterations on the calling thread (the paper's 10-machine parallel KMC
//! is out of scope: a query runs on one thread, DESIGN.md §13).

pub mod init;
pub mod kmeans;
mod lanes;
pub mod metrics;
#[cfg(test)]
mod reference;

pub use kmeans::{kmeans, Clustering, KmeansConfig};
