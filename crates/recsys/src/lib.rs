//! Matrix-factorization recommender with hand-derived BPR gradients.
//!
//! Implements §III-A of the paper: the base recommender is Matrix
//! Factorization — `x̂_ij = u_i ⊙ v_j` (Eq. 1) — trained with the Bayesian
//! Personalized Ranking loss `L_i = -Σ ln σ(x̂_ij - x̂_ik)` (Eqs. 2–4).
//!
//! There is no autodiff anywhere in this workspace; [`bpr`] contains the
//! closed-form gradients (verified against finite differences in tests),
//! [`topk`] produces recommendation lists, [`metrics`] computes the paper's
//! evaluation metrics (ER@K of Eq. 8, NDCG@K, HR@K), and [`trainer`] is a
//! centralized trainer used as the surrogate model by the data-poisoning
//! baselines P1/P2.
//!
//! # Example
//!
//! ```
//! use fedrec_data::synthetic::SyntheticConfig;
//! use fedrec_linalg::SeededRng;
//! use fedrec_recsys::{model::MfModel, trainer::{CentralizedTrainer, TrainConfig}};
//!
//! let data = SyntheticConfig::smoke().generate(1);
//! let mut rng = SeededRng::new(2);
//! let mut model = MfModel::init(data.num_users(), data.num_items(), 8, &mut rng);
//! let cfg = TrainConfig { epochs: 3, lr: 0.05, ..TrainConfig::default() };
//! let losses = CentralizedTrainer::new(cfg).fit(&mut model, &data, &mut rng);
//! assert!(losses.last().unwrap() < losses.first().unwrap());
//! ```

#![warn(missing_docs)]

pub mod bpr;
pub mod candidates;
pub mod eval;
pub mod metrics;
pub mod model;
pub mod ranking;
pub mod scorer;
pub mod stream_eval;
pub mod topk;
pub mod trainer;

pub use candidates::{Candidates, DriftTracker};
pub use model::MfModel;
pub use scorer::{top_ranked_block, PrunedItems, PrunedScores, ScoreSource};
pub use stream_eval::{EvalCounters, EvalMode, IncrementalEvalState, UserRowSource};
