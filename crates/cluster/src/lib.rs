//! # gsj-cluster
//!
//! K-means clustering (KMC) — the unsupervised grouping step of RExt's
//! pattern discovery (Section III-A step 2). The paper picks K-means
//! because "it can be efficiently parallelized and often achieves excellent
//! quality in practice"; this crate provides exactly that: k-means++
//! seeding and Lloyd iterations whose assignment step goes through the
//! workspace's worker pool (`gsj_common::pool`, the stand-in for the
//! paper's 10-machine parallel KMC).

pub mod init;
pub mod kmeans;
mod lanes;
pub mod metrics;
#[cfg(test)]
mod reference;

pub use kmeans::{kmeans, Clustering, KmeansConfig};
