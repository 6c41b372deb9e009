//! # lemp — fast retrieval of large entries in a matrix product
//!
//! A from-scratch Rust reproduction of **LEMP** (Teflioudi, Gemulla,
//! Mykytiuk: *"LEMP: Fast Retrieval of Large Entries in a Matrix Product"*,
//! SIGMOD 2015), including every baseline and substrate the paper's
//! evaluation depends on.
//!
//! Given two tall-and-skinny factor matrices (e.g. the user and item factors
//! of a recommender model), LEMP finds the *large* entries of their product
//! — all entries above a threshold ([`Lemp::above_theta`]) or the top-k per
//! row ([`Lemp::row_top_k`]) — orders of magnitude faster than computing the
//! product.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`](mod@core) | `lemp-core` | the LEMP engine: bucketization, LENGTH/COORD/INCR, tuner, adaptive selection, drivers |
//! | [`baselines`] | `lemp-baselines` | Naive, TA, cover-tree FastMKS (single + dual) |
//! | [`apss`] | `lemp-apss` | L2AP and BayesLSH-Lite cosine search |
//! | [`approx`] | `lemp-approx` | approximate MIPS: ALSH/XBOX transforms, SRP-LSH, PCA-tree, query centroids |
//! | [`data`] | `lemp-data` | Table-1-calibrated generators, SGD matrix factorization, IO, θ calibration |
//! | [`linalg`] | `lemp-linalg` | vector stores, kernels, top-k selection, statistics |
//! | [`store`] | `lemp-store` | durability: write-ahead log, snapshots, crash recovery for the dynamic engine |
//!
//! ## Example
//!
//! ```
//! use lemp::{Lemp, LempVariant};
//! use lemp::linalg::VectorStore;
//!
//! let probes = VectorStore::from_rows(&[
//!     vec![1.6, 0.6],
//!     vec![0.7, 2.7],
//!     vec![1.0, 2.8],
//! ]).unwrap();
//! let queries = VectorStore::from_rows(&[vec![3.2, -0.4]]).unwrap();
//!
//! let mut engine = Lemp::builder().variant(LempVariant::LI).build(&probes);
//! let top = engine.row_top_k(&queries, 1);
//! assert_eq!(top.lists[0][0].id, 0); // the action movie for the action fan
//! ```

#![warn(missing_docs)]

pub use lemp_approx as approx;
pub use lemp_apss as apss;
pub use lemp_baselines as baselines;
pub use lemp_core as core;
pub use lemp_data as data;
pub use lemp_linalg as linalg;
pub use lemp_store as store;

pub use lemp_core::{
    AboveThetaOutput, AdaptiveConfig, AdaptiveReport, BanditPolicy, BucketPolicy, DynamicLemp,
    Engine, Entry, ExecOptions, Lemp, LempBuilder, LempVariant, QueryKind, QueryPlan, QueryRequest,
    QueryResponse, QueryRows, RetrievalCounters, RunStats, Scratch, ShardedLemp, TopKOutput,
};
