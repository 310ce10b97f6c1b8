//! The fit stage: the three paper algorithms fitted repeatedly at
//! `threads = nproc`, a threshold sweep through `extract`, and the checks
//! that the fitted models are right.

use std::time::Instant;

use dpc_core::framework::jittered_density;
use dpc_core::{DpcError, DpcModel};
use dpc_eval::rand_index;
use dpc_geometry::{dist, dist_sq, Dataset};
use dpc_rng::StdRng;

use crate::calib::Gauge;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workload::Run;

/// Points whose ρ and δ are recomputed by brute force after the fit.
const BRUTE_FORCE_SAMPLE: usize = 64;
/// Threshold sweeps after each fit round. Sweeping between rounds, not
/// once at the end, spreads the ~1 ms extractions over the whole stage, so a
/// short disturbance of the machine cannot move their median.
const SWEEP_PASSES: usize = 4;

/// One of the paper's three algorithms, with the names its metrics and
/// spans carry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Algo {
    /// Metric-name key: `<key>_fit_s`, `core.<key>.delta_s`, ...
    pub key: &'static str,
    /// Span name of one whole fit.
    pub span: &'static str,
    algo: dpc_bench::Algo,
}

/// Ex-DPC, Approx-DPC and S-Approx-DPC (ε = 1), in the order they are fitted.
pub const ALGOS: [Algo; 3] = [
    Algo { key: "exdpc", span: "core.exdpc.fit", algo: dpc_bench::Algo::ExDpc },
    Algo { key: "approx", span: "core.approx.fit", algo: dpc_bench::Algo::ApproxDpc },
    Algo {
        key: "sapprox",
        span: "core.sapprox.fit",
        algo: dpc_bench::Algo::SApproxDpc { epsilon: 1.0 },
    },
];

impl Algo {
    /// Fits with `threads` workers.
    pub fn fit(&self, run: &Run, threads: usize, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.algo.build(run.spec.params(threads)).fit(data)
    }
}

/// The models of the last fit round, one per algorithm.
pub struct Fitted {
    pub ex: DpcModel,
    pub approx: DpcModel,
    pub sapprox: DpcModel,
}

/// Fits every algorithm round after round until the stage budget is spent
/// (at least `run.min_fit_rounds` rounds), sweeps thresholds after each
/// round, and records
/// `<algo>_fit_s`, `extract_ms` and the two Rand indexes. The reference
/// work is timed before every fit (on the fit's threads) and every sweep
/// pass (on one thread, as `extract` runs); the timings are reported at
/// reference speed (`calib.rs`). Returns `None` when a fit failed.
pub fn fit_stage(
    run: &Run,
    data: &Dataset,
    tracer: &Tracer,
    report: &mut Report,
) -> Option<Fitted> {
    let start = Instant::now();
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut last: [Option<DpcModel>; 3] = Default::default();
    let mut extract_ms = Vec::new();
    let mut fit_gauge = Gauge::new(run.threads);
    let mut extract_gauge = Gauge::new(1);
    let mut rounds = 0;
    while rounds < run.min_fit_rounds || start.elapsed().as_secs_f64() < run.fit_seconds() {
        for (k, algo) in ALGOS.iter().enumerate() {
            fit_gauge.probe();
            let (fitted, secs) =
                tracer.run(tracer.request(), algo.span, |_| algo.fit(run, run.threads, data));
            report.ops(1, u64::from(fitted.is_err()));
            match fitted {
                Ok(model) => {
                    // Fits are deterministic: every round must rebuild the
                    // same model bit for bit.
                    if let Some(prev) = &last[k] {
                        let same = model.layout_eq(prev);
                        report.check(same, || format!("{} fit is not deterministic", algo.key));
                    }
                    last[k] = Some(model);
                    times[k].push(secs);
                }
                Err(e) => {
                    report.failures.push(format!("{} fit failed: {e}", algo.key));
                    return None;
                }
            }
        }
        if let Some(ex) = &last[0] {
            sweep(run, ex, tracer, report, &mut extract_ms, &mut extract_gauge);
        }
        if rounds == 0 {
            // Set-up, serving, streaming and one fit of each algorithm have
            // run: the process has done everything once. Later rounds only
            // add allocator fragmentation, which varies from run to run.
            if let Some(mb) = crate::peak_rss_mb() {
                report.metric("peak_rss_mb", mb, "MiB", 1);
            }
        }
        rounds += 1;
    }
    fit_gauge.probe();
    let extract_ms = Samples::new(extract_ms);
    report.timing("extract_ms", extract_ms.median()?, "ms", extract_ms.len(), &extract_gauge);
    for (algo, t) in ALGOS.iter().zip(times) {
        let t = Samples::new(t);
        report.timing(format!("{}_fit_s", algo.key), t.median()?, "s", t.len(), &fit_gauge);
    }
    let [Some(ex), Some(approx), Some(sapprox)] = last else { return None };
    let fitted = Fitted { ex, approx, sapprox };

    accuracy(run, &fitted, report);
    brute_force_check(run, data, &fitted.ex, report);
    Some(fitted)
}

/// Extracts the Ex-DPC model at every sweep threshold, [`SWEEP_PASSES`]
/// times, appending each time in ms to `times` and probing `gauge` before
/// each pass.
fn sweep(
    run: &Run,
    model: &DpcModel,
    tracer: &Tracer,
    report: &mut Report,
    times: &mut Vec<f64>,
    gauge: &mut Gauge,
) {
    for _ in 0..SWEEP_PASSES {
        gauge.probe();
        for t in &run.spec.sweep() {
            let (c, secs) = tracer.run(tracer.request(), "core.extract", |_| model.extract(t));
            report.check(c.len() == model.n(), || "extract lost points".to_string());
            times.push(secs * 1e3);
        }
    }
}

/// Rand index of each approximation against Ex-DPC at the default
/// thresholds, and Theorem 4: Approx-DPC selects exactly Ex-DPC's centres.
fn accuracy(run: &Run, fitted: &Fitted, report: &mut Report) {
    let t = run.spec.thresholds();
    let ex = fitted.ex.extract(&t);
    let approx = fitted.approx.extract(&t);
    let sapprox = fitted.sapprox.extract(&t);
    report.metric("approx_rand_index", rand_index(&ex.assignment, &approx.assignment), "ratio", 1);
    report.metric(
        "sapprox_rand_index",
        rand_index(&ex.assignment, &sapprox.assignment),
        "ratio",
        1,
    );
    report.check(approx.centers == ex.centers, || {
        format!(
            "Theorem 4: Approx-DPC centres {:?} differ from Ex-DPC centres {:?}",
            approx.centers, ex.centers
        )
    });
}

/// Recomputes ρ and δ of a seeded sample of points by scanning every point,
/// and compares them with the Ex-DPC model bit for bit.
pub fn brute_force_check(run: &Run, data: &Dataset, model: &DpcModel, report: &mut Report) {
    let n = data.len();
    let params = run.spec.params(run.threads);
    let r_sq = params.dcut * params.dcut;
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xB7E1_5163);
    for _ in 0..BRUTE_FORCE_SAMPLE.min(n) {
        let i = rng.gen_range(0..n);
        let p = data.point(i);
        let count = (0..n).filter(|&j| j != i && dist_sq(p, data.point(j)) <= r_sq).count();
        let rho = jittered_density(count, i, params.jitter_seed);
        report.check(rho.to_bits() == model.rho()[i].to_bits(), || {
            format!("ρ of point {i}: brute force {rho}, model {}", model.rho()[i])
        });
        let denser = (0..n).filter(|&j| model.rho()[j] > model.rho()[i]);
        let delta = denser.map(|j| dist(p, data.point(j))).fold(f64::INFINITY, f64::min);
        let dep = model.dependent()[i];
        let dep_ok = if delta.is_infinite() {
            dep == i
        } else {
            model.rho()[dep] > model.rho()[i]
                && dist(p, data.point(dep)).to_bits() == delta.to_bits()
        };
        report.check(delta.to_bits() == model.delta()[i].to_bits() && dep_ok, || {
            format!(
                "δ of point {i}: brute force {delta}, model {} (dependent {dep})",
                model.delta()[i]
            )
        });
    }
}
