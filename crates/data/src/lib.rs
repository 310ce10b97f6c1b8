//! Workload generators and dataset utilities for the fast-dpc evaluation.
//!
//! The paper's experiments use five synthetic datasets (Syn and the S1–S4
//! Gaussian benchmark sets) and four real datasets (Airline, Household, PAMAP2,
//! Sensor). This crate generates the synthetic datasets from the same models the
//! paper cites and provides deterministic **surrogates** for the real datasets
//! (same dimensionality, same per-dimension domain, heavily skewed multi-modal
//! density); see DESIGN.md §3 for the substitution rationale.
//!
//! Everything here is seeded and deterministic, so every benchmark table in
//! `dpc-bench` is reproducible run-to-run.

#![forbid(unsafe_code)]

pub mod generators;
pub mod io;
pub mod real;
pub mod transform;

pub use generators::{gaussian_blobs, random_walk, s_set, uniform};
pub use real::{
    airline_surrogate, household_surrogate, pamap2_surrogate, sensor_surrogate, RealDataset,
};
pub use transform::{add_noise, sample_rate};
