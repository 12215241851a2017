//! Experiment runners reproducing every table and figure of the paper.
//!
//! Each `table*` / `fig3` function regenerates one artifact of the
//! evaluation section (§V). Two scales are supported:
//!
//! * [`Scale::Smoke`] — miniature datasets and shorter training; seconds
//!   per table. Used by tests, benches and CI. The *shape* of the results
//!   (which attack wins, how effectiveness moves with ξ/ρ/κ) matches the
//!   paper; absolute numbers differ because the datasets are smaller.
//! * [`Scale::Paper`] — full Table II-sized synthetic datasets, `k = 32`,
//!   `η = 0.01`, 200 epochs, matching §V-A's protocol.
//!
//! Every runner returns a [`report::Table`] carrying measured values next
//! to the paper's published values, and `repro` (the CLI binary) renders
//! them as markdown/CSV.
//!
//! # Example
//!
//! ```
//! use fedrec_experiments::{table2_datasets, Scale};
//!
//! let table = table2_datasets(Scale::Smoke, 42);
//! assert!(table.to_markdown().contains("sparsity"));
//! ```

#![warn(missing_docs)]

pub mod detection;
pub mod fig3;
pub mod matrix;
pub mod paper_ref;
pub mod record;
pub mod report;
pub mod runner;
pub mod scale;
pub mod serve_run;
pub mod tables;

pub use detection::extension_detection;
pub use fig3::fig3_side_effects;
pub use matrix::{
    matrix_report, matrix_report_from, run_cell, run_matrix, run_matrix_collect, CellSpec,
    DefenseKind, MatrixConfig, ModelKind, Population, ScalePreset,
};
pub use report::Table;
pub use runner::{run_experiment, ExperimentSpec, Outcome};
pub use scale::{DatasetId, Scale};
pub use serve_run::{run_serve, serve_smoke, ServeReport, ServeSpec};
pub use tables::{
    table2_datasets, table3_xi_sweep, table4_rho_sweep, table5_kappa_sweep, table6_data_poisoning,
    table7_effectiveness, table8_model_poisoning, table9_ablation,
};
