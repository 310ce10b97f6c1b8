//! Clustering results, per-phase timings and the decision graph.

/// Label used for noise points in a [`Clustering`]'s assignment.
pub const NOISE: i64 = -1;

/// Wall-clock breakdown of a clustering run, matching the decomposition the
/// paper reports in Table 6 (`ρ comp.` / `δ comp.`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timings {
    /// Seconds spent computing local densities (including index construction).
    pub rho_secs: f64,
    /// Seconds spent computing dependent points / distances.
    pub delta_secs: f64,
    /// Seconds spent selecting centres and propagating labels.
    pub assign_secs: f64,
}

impl Timings {
    /// Total seconds across all phases.
    pub fn total_secs(&self) -> f64 {
        self.rho_secs + self.delta_secs + self.assign_secs
    }
}

/// The answer of one threshold choice — centres, labels, timings and index
/// bytes — as [`DpcModel::extract`](crate::DpcModel::extract) computes it.
/// The per-point `ρ`, `δ` and dependent points stay in the fitted
/// [`DpcModel`](crate::DpcModel), which also draws the decision graph.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Identifiers of the selected cluster centres, in ascending order of id.
    pub centers: Vec<usize>,
    /// Per-point cluster label (`0..centers.len()`), or [`NOISE`].
    pub assignment: Vec<i64>,
    /// Wall-clock phase breakdown.
    pub timings: Timings,
    /// Approximate heap bytes used by the index structures the algorithm built
    /// (kd-trees, grids, hash tables). Reported in Table 7.
    pub index_bytes: usize,
}

impl Clustering {
    /// Number of points that were clustered (including noise).
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the clustering is empty.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of clusters (= number of selected centres).
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of points labelled as noise.
    pub fn noise_count(&self) -> usize {
        self.assignment.iter().filter(|&&l| l == NOISE).count()
    }

    /// The per-point labels (cluster index or [`NOISE`]).
    pub fn labels(&self) -> &[i64] {
        &self.assignment
    }

    /// Point identifiers belonging to cluster `cluster`.
    pub fn members(&self, cluster: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == cluster as i64)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The decision graph: one `(ρ, δ)` pair per point.
///
/// The paper's Figure 1 shows how users pick `δ_min` visually — cluster centres
/// stand out as the few points with large `δ`. [`DecisionGraph::suggest_delta_min`]
/// automates that reading for the examples and tests.
#[derive(Clone, Debug)]
pub struct DecisionGraph {
    /// `(ρ_i, δ_i)` for every point, in point-id order.
    pub points: Vec<(f64, f64)>,
}

impl DecisionGraph {
    /// Number of points in the graph.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Suggests a `δ_min` that selects exactly `k` centres among points with
    /// `ρ ≥ rho_min`: the threshold halfway between the `k`-th and `(k+1)`-th
    /// largest finite-or-infinite dependent distances.
    ///
    /// Returns `None` when fewer than `k` eligible points exist.
    pub fn suggest_delta_min(&self, k: usize, rho_min: f64) -> Option<f64> {
        if k == 0 {
            return None;
        }
        let mut deltas: Vec<f64> = self
            .points
            .iter()
            .filter(|(rho, _)| *rho >= rho_min)
            .map(|&(_, delta)| delta)
            .collect();
        if deltas.len() < k {
            return None;
        }
        deltas.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let kth = deltas[k - 1];
        let next = deltas.get(k).copied().unwrap_or(0.0);
        if kth.is_infinite() {
            // More than k points with infinite δ cannot be separated.
            if next.is_infinite() {
                return None;
            }
            return Some(next + 1.0);
        }
        Some(0.5 * (kth + next))
    }

    /// The points sorted by decreasing dependent distance — the order in which
    /// candidate centres appear when reading the graph top-down.
    pub fn by_decreasing_delta(&self) -> Vec<(usize, f64, f64)> {
        let mut rows: Vec<(usize, f64, f64)> =
            self.points.iter().enumerate().map(|(i, &(rho, delta))| (i, rho, delta)).collect();
        rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_clustering() -> Clustering {
        Clustering {
            centers: vec![2, 4],
            assignment: vec![0, 0, 0, NOISE, 1],
            timings: Timings { rho_secs: 1.0, delta_secs: 2.0, assign_secs: 0.5 },
            index_bytes: 1024,
        }
    }

    #[test]
    fn accessors() {
        let c = sample_clustering();
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.noise_count(), 1);
        assert_eq!(c.members(0), vec![0, 1, 2]);
        assert_eq!(c.members(1), vec![4]);
        assert_eq!(c.labels()[3], NOISE);
        assert!((c.timings.total_secs() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn suggest_delta_min_selects_k_centers() {
        let g = DecisionGraph {
            points: vec![(10.0, f64::INFINITY), (9.0, 50.0), (8.0, 1.0), (7.0, 2.0), (6.0, 45.0)],
        };
        // k = 3: thresholds between 45 and 2.
        let t = g.suggest_delta_min(3, 0.0).unwrap();
        assert!(t > 2.0 && t <= 45.0);
        let selected = g.points.iter().filter(|(_, d)| *d >= t).count();
        assert_eq!(selected, 3);
    }

    #[test]
    fn suggest_delta_min_respects_rho_min() {
        let g = DecisionGraph { points: vec![(1.0, 100.0), (50.0, 30.0), (60.0, 20.0)] };
        // The low-density point is excluded, so k=1 must separate 30 from 20.
        let t = g.suggest_delta_min(1, 10.0).unwrap();
        assert!(t > 20.0 && t <= 30.0);
    }

    #[test]
    fn suggest_delta_min_edge_cases() {
        let g = DecisionGraph { points: vec![(1.0, 5.0)] };
        assert!(g.suggest_delta_min(0, 0.0).is_none());
        assert!(g.suggest_delta_min(2, 0.0).is_none());
        // Two infinite δ values cannot be separated when only one centre is
        // requested, but a threshold selecting both is fine for k = 2.
        let only_inf = DecisionGraph { points: vec![(1.0, f64::INFINITY), (2.0, f64::INFINITY)] };
        assert!(only_inf.suggest_delta_min(1, 0.0).is_none());
        let t2 = only_inf.suggest_delta_min(2, 0.0).unwrap();
        assert!(t2.is_finite());
        // k = 1 with a single infinite δ and a finite runner-up works.
        let g2 = DecisionGraph { points: vec![(1.0, f64::INFINITY), (2.0, 7.0)] };
        let t = g2.suggest_delta_min(1, 0.0).unwrap();
        assert!(t > 7.0);
    }

    #[test]
    fn by_decreasing_delta_sorted() {
        let g = DecisionGraph {
            points: vec![(5.2, 2.0), (3.1, 1.0), (9.7, f64::INFINITY), (0.4, 0.5), (4.5, 10.0)],
        };
        let rows = g.by_decreasing_delta();
        assert_eq!(rows[0].0, 2); // infinite δ first
        assert_eq!(rows[1].0, 4);
        for w in rows.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }
}
