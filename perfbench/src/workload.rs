//! The workloads, their inputs and the settings of one run.
//!
//! Each workload is one dataset taken through the whole life of a model:
//! the fit stage (Ex-DPC, Approx-DPC, S-Approx-DPC and a threshold sweep),
//! the serve stage (closed-loop Assign/Relabel clients against a server
//! opened from a persisted artifact) and the stream stage (a sliding-window
//! streaming server ingesting beside a reader). Every end-to-end metric is
//! therefore measured on every workload; the workloads differ in the data,
//! which decides which layer dominates (see README.md).

use dpc_core::{DpcParams, Thresholds};
use dpc_data::generators::random_walk;
use dpc_data::real::RealDataset;
use dpc_geometry::Dataset;

/// Seed of the data generators (`dpc_bench`'s dataset seed, so the data is
/// the paper harness's).
pub const SHAPE_SEED: u64 = dpc_bench::datasets::DATASET_SEED;

/// Where a workload's points come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The paper's Syn random walk: 13 walkers over a 10^5 domain, 2-d.
    Syn,
    /// The Household surrogate: 4-d, skewed multi-mode density.
    Household,
}

/// One workload: its data and the sizes of its three stages.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// Points fitted and served.
    pub n: usize,
    pub dcut: f64,
    /// Sliding-window capacity of the stream stage.
    pub window: usize,
    /// Points expired together once the window overshoots by this many.
    pub expiry_batch: usize,
    /// The streaming server publishes an epoch every this many ingests.
    pub publish_every: usize,
}

/// Syn is δ-bound (the sequential dependent-point pass dominates Ex-DPC);
/// Household is ρ-bound and runs the generic-d kernels. A ρ-phase change
/// shows mostly on `household4d`, a δ-phase change mostly on `syn2d`.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "syn2d",
        source: Source::Syn,
        n: 200_000,
        dcut: 250.0,
        window: 50_000,
        expiry_batch: 500,
        publish_every: 2_000,
    },
    Spec {
        name: "household4d",
        source: Source::Household,
        n: 60_000,
        dcut: 1_000.0,
        window: 10_000,
        expiry_batch: 25,
        publish_every: 250,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at `n` points, with the stream stage scaled down
    /// in proportion (used by the smoke test).
    #[cfg(test)]
    pub fn scaled(self, n: usize) -> Spec {
        let window = (self.window * n / self.n).max(200);
        Spec {
            n,
            window,
            expiry_batch: (window / 100).max(5),
            publish_every: (window / 100).max(5) * 4,
            ..self
        }
    }

    pub fn dim(&self) -> usize {
        match self.source {
            Source::Syn => 2,
            Source::Household => RealDataset::Household.dim(),
        }
    }

    /// The workload's `n` points. They do not depend on the run's seed:
    /// the data is fixed, as the paper's datasets are, and the seed draws
    /// everything that is sent to the program after set-up (the stream
    /// order, the Assign queries and the request mix). Drawing the points
    /// per seed, even as a seeded subsample of one fixed pool, moved Ex-DPC's
    /// δ-phase cost by up to 20% between seeds, more than a code change
    /// should need to move to show.
    pub fn generate(&self) -> Dataset {
        match self.source {
            Source::Syn => random_walk(self.n, 13, 1e5, SHAPE_SEED),
            Source::Household => RealDataset::Household.generate_with(self.n, SHAPE_SEED),
        }
    }

    pub fn params(&self, threads: usize) -> DpcParams {
        DpcParams::new(self.dcut).with_threads(threads)
    }

    /// The default extraction thresholds (`ρ_min = 10`, `δ_min = 3·d_cut`).
    pub fn thresholds(&self) -> Thresholds {
        dpc_bench::default_thresholds(self.dcut)
    }

    /// The thresholds a sweep and the Relabel clients cycle through.
    pub fn sweep(&self) -> Vec<Thresholds> {
        let mut out = Vec::new();
        for rho_min in [5.0, 10.0, 20.0] {
            for factor in [2.0, 3.0, 5.0] {
                out.push(Thresholds::new(rho_min, factor * self.dcut).expect("in-domain"));
            }
        }
        out
    }
}

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Run {
    pub spec: Spec,
    pub seed: u64,
    /// Measured seconds of the run, split across the stages.
    pub seconds: f64,
    /// Worker threads of every fit, and client threads of the serve stage.
    pub threads: usize,
    /// Each fit is repeated at least this many times.
    pub min_fit_rounds: usize,
    /// Set-up is repeated this many times; `setup_s` is the median.
    pub setup_reps: usize,
    /// Directory for the artifact file and the span dump.
    pub out_dir: std::path::PathBuf,
}

impl Run {
    /// Budget of the fit stage: half the run.
    pub fn fit_seconds(&self) -> f64 {
        self.seconds * 0.5
    }

    /// Budget of the serve stage: a fifth of the run (its medians are over
    /// tens of thousands of reads).
    pub fn serve_seconds(&self) -> f64 {
        self.seconds * 0.2
    }

    /// Budget of the stream stage: three tenths of the run (its publish
    /// median and ingest p99 rest on fewer samples).
    pub fn stream_seconds(&self) -> f64 {
        self.seconds * 0.3
    }
}

/// Worker and client threads: every core up to two, the load shape the
/// workloads were sized for.
pub fn threads() -> usize {
    available_parallelism().min(2)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
