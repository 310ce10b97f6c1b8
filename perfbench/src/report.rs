//! Metrics, operation counts and the result line.

use std::fmt::Write as _;

use crate::calib::Gauge;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them. An
/// untraced run reports every one of them on every workload.
pub const END_TO_END: [&str; 16] = [
    "setup_s",
    "exdpc_fit_s",
    "approx_fit_s",
    "sapprox_fit_s",
    "extract_ms",
    "approx_rand_index",
    "sapprox_rand_index",
    "read_rps",
    "assign_p50_us",
    "assign_p99_us",
    "relabel_p50_us",
    "stream_assign_p50_us",
    "ingest_pts_per_s",
    "ingest_p99_us",
    "publish_ms",
    "peak_rss_mb",
];

/// End-to-end metrics the traced run measures a second time, with spans on,
/// to report the tracing overhead as `overhead.<name>`: all but `setup_s`
/// and `peak_rss_mb`, which belong to the whole process, not to one pass.
pub fn traced_again() -> impl Iterator<Item = &'static str> {
    END_TO_END.into_iter().filter(|m| !matches!(*m, "setup_s" | "peak_rss_mb"))
}

/// The per-layer metrics of the traced run, in the order `BENCHMARK.json`
/// lists them (followed there by `overhead.<name>` for every name of
/// [`traced_again`]).
pub const PER_LAYER: [&str; 55] = [
    "geometry.count_within_rows_per_s",
    "geometry.count_within_bytes",
    "index.kdtree_build_s",
    "index.grid_build_s",
    "index.rho_batched_s",
    "index.range_count_us",
    "index.nearest_neighbor_us",
    "index.kdtree_bytes",
    "index.grid_cells",
    "index.query_buckets",
    "core.exdpc.fit_s",
    "core.exdpc.delta_s",
    "core.density_order_s",
    "core.exdpc.phase_coverage",
    "core.approx.rho_s",
    "core.approx.delta_s",
    "core.sapprox.rho_s",
    "core.sapprox.delta_s",
    "core.exdpc.delta_half_s",
    "core.approx.delta_half_s",
    "core.sapprox.delta_half_s",
    "core.exdpc.delta_growth",
    "core.approx.delta_growth",
    "core.sapprox.delta_growth",
    "core.rho_mean",
    "core.delta_tail_share",
    "core.approx.center_match",
    "core.streaming.insert_us",
    "core.streaming.remove_us",
    "core.streaming.to_parts_ms",
    "core.streaming.bytes",
    "parallel.rho_1t_s",
    "parallel.rho_speedup",
    "parallel.exdpc_fit_1t_s",
    "parallel.exdpc_fit_nt_s",
    "parallel.exdpc_speedup",
    "parallel.approx_fit_1t_s",
    "parallel.approx_fit_nt_s",
    "parallel.approx_speedup",
    "parallel.sapprox_fit_1t_s",
    "parallel.sapprox_fit_nt_s",
    "parallel.sapprox_speedup",
    "persist.encode_ms",
    "persist.decode_ms",
    "persist.artifact_bytes",
    "serve.classify_us",
    "serve.dispatch_us",
    "serve.extract_ms",
    "serve.open_ms",
    "serve.snapshot_build_ms",
    "serve.admitted",
    "serve.shed",
    "serve.timed_out",
    "serve.panicked",
    "serve.exact_hit_share",
];

/// Names the result line may carry: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a count or a ratio of
    /// two medians).
    pub samples: usize,
    /// For a value reported at reference speed: the value as measured on
    /// the wall clock, and the summary of the gauge that scaled it.
    pub wall: Option<(f64, String)>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: fits, extractions, requests, ingests, checks.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric; a second value under the same name replaces the
    /// first.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let name = name.into();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit, samples, wall: None });
    }

    /// Records a wall-clock time at reference speed: `wall × gauge.scale()`.
    pub fn timing(
        &mut self,
        name: impl Into<String>,
        wall: f64,
        unit: &'static str,
        samples: usize,
        gauge: &Gauge,
    ) {
        self.calibrated(name.into(), wall, wall * gauge.scale(), unit, samples, gauge);
    }

    /// Records a wall-clock rate at reference speed: `wall ÷ gauge.scale()`.
    pub fn rate(
        &mut self,
        name: impl Into<String>,
        wall: f64,
        unit: &'static str,
        samples: usize,
        gauge: &Gauge,
    ) {
        self.calibrated(name.into(), wall, wall / gauge.scale(), unit, samples, gauge);
    }

    fn calibrated(
        &mut self,
        name: String,
        wall: f64,
        value: f64,
        unit: &'static str,
        samples: usize,
        gauge: &Gauge,
    ) {
        self.metric(name, value, unit, samples);
        if let Some(m) = self.metrics.last_mut() {
            m.wall = Some((wall, gauge.summary()));
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one check; a failed one is logged under `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Logs a failure that is not one operation (e.g. a metric missing).
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: one per metric with its unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ =
                write!(out, "{:<36} {:>16} {:<6} samples={}", m.name, m.value, m.unit, m.samples);
            if let Some((wall, g)) = &m.wall {
                let _ = write!(out, " wall={wall} {g}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16} {:<6} attempted={} failed={}",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted,
            self.failed
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names`, each with its value and unit. A name without a
    /// finite value is a failure of the benchmark itself.
    pub fn result_line(&mut self, names: &[String]) -> String {
        let mut body = Vec::new();
        for name in names {
            match self.metrics.iter().find(|m| &m.name == name) {
                Some(m) if m.value.is_finite() && valid_name(name) => body.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )),
                Some(m) => self.fail(format!("metric {name} is not reportable ({})", m.value)),
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Every name the result line of a traced run carries.
pub fn per_layer_names() -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|s| s.to_string())
        .chain(traced_again().map(|s| format!("overhead.{s}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        all.extend(per_layer_names());
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\": \"").count();
        let mut expected: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        expected.extend(per_layer_names());
        // Two workloads are listed besides the metrics.
        assert_eq!(listed, expected.len() + crate::workload::WORKLOADS.len());
        for name in &expected {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
        for w in crate::workload::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name)), "{}", w.name);
        }
    }

    #[test]
    fn result_line_fails_on_a_missing_metric() {
        let mut r = Report::default();
        r.metric("setup_s", 1.25, "s", 3);
        let line = r.result_line(&["setup_s".to_string(), "read_rps".to_string()]);
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }
}
