//! "R-tree + Scan": local densities through an in-memory R-tree, dependent
//! points through the Scan approach (Table 6 of the paper).
//!
//! The paper includes this baseline to show that indexing alone fixes only the
//! density phase — the quadratic dependent-point phase still dominates, which
//! is why its overall running time tracks Scan in Figures 7–9.

use std::time::Instant;

use dpc_core::framework::{jittered_density, validate_dataset};
use dpc_core::{DpcAlgorithm, DpcError, DpcModel, DpcParams, Timings};
use dpc_geometry::Dataset;
use dpc_index::RTree;
use dpc_parallel::Executor;

use crate::scan::Scan;

/// The R-tree + Scan baseline.
#[derive(Clone, Copy, Debug)]
pub struct RtreeScan {
    params: DpcParams,
}

impl RtreeScan {
    /// Creates the algorithm with the given parameters.
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// Local densities via R-tree range counting (exposed for phase benchmarks).
    pub fn local_densities(&self, data: &Dataset, tree: &RTree<'_>) -> Vec<f64> {
        let executor = Executor::new(self.params.threads);
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        executor.map_dynamic(data.len(), |i| {
            let count = tree.range_count(data.point(i), dcut, Some(i));
            jittered_density(count, i, seed)
        })
    }
}

impl DpcAlgorithm for RtreeScan {
    fn name(&self) -> &'static str {
        "R-tree + Scan"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let mut timings = Timings::default();
        let start = Instant::now();
        let tree = RTree::build(data);
        let rho = self.local_densities(data, &tree);
        timings.rho_secs = start.elapsed().as_secs_f64();
        let index_bytes = tree.mem_usage();
        drop(tree);

        let start = Instant::now();
        let (dependent, delta) = Scan::new(self.params).dependent_points(data, &rho);
        timings.delta_secs = start.elapsed().as_secs_f64();

        DpcModel::from_parts(
            self.name(),
            self.params.dcut,
            rho,
            delta,
            dependent,
            timings,
            index_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{ExDpc, Thresholds};
    use dpc_data::generators::uniform;

    #[test]
    fn identical_output_to_exdpc() {
        let data = uniform(350, 3, 80.0, 44);
        let params = DpcParams::new(8.0);
        let thresholds = Thresholds::new(1.0, 20.0).unwrap();
        let a = RtreeScan::new(params).fit(&data).unwrap();
        let b = ExDpc::new(params).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        let (a, b) = (a.extract(&thresholds), b.extract(&thresholds));
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = uniform(200, 2, 40.0, 3);
        let params = DpcParams::new(4.0);
        let a = RtreeScan::new(params.with_threads(1)).fit(&data).unwrap();
        let b = RtreeScan::new(params.with_threads(3)).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        assert_eq!(a.dependent(), b.dependent());
    }

    #[test]
    fn empty_dataset_is_an_error() {
        assert_eq!(
            RtreeScan::new(DpcParams::new(1.0)).fit(&Dataset::new(2)).unwrap_err(),
            DpcError::EmptyDataset
        );
    }
}
