//! Dense linear-algebra, random-number and sparse-gradient substrate for the
//! FedRecAttack reproduction.
//!
//! The paper's mathematics is entirely expressible with dense row-major
//! matrices (user/item feature matrices `U`, `V`), a handful of vector
//! kernels (dot products, axpy, ℓ2 clipping) and a few samplers (Gaussian
//! noise for differential privacy, Zipf item popularity, weighted sampling
//! without replacement for the malicious-upload item selection of Eq. 22).
//!
//! No external linear-algebra or autodiff crate is used: every gradient in
//! the workspace is hand-derived, and the kernels here are the primitives
//! those derivations are written in.
//!
//! # Example
//!
//! ```
//! use fedrec_linalg::{Matrix, SeededRng, vector};
//!
//! let mut rng = SeededRng::new(7);
//! let m = Matrix::random_normal(4, 8, 0.0, 0.1, &mut rng);
//! let norm = vector::l2_norm(m.row(0));
//! assert!(norm > 0.0);
//! ```

// The first crate (with fedrec-data) to reach full rustdoc coverage:
// missing docs are a hard error here, and CI's `cargo doc` step runs with
// `RUSTDOCFLAGS="-D warnings"` so link rot fails the build too.
#![deny(missing_docs)]

pub mod kernel;
pub mod matrix;
pub mod rng;
pub mod rowstore;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use rng::{SeededRng, StreamCheckpoints};
pub use rowstore::{RowInit, RowShards, SeededGaussianInit, ShardedMatrix};
pub use sparse::{PairDots, SparseGrad};
