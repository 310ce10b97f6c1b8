//! The per-layer probes of the traced run. Each probe times calls into one
//! layer's public functions, or reads a count the layer already exposes,
//! on the workload's own data. The scaling probes (half-n fits, 1-thread
//! fits) report each ratio next to its base.

use std::hint::black_box;
use std::sync::Arc;

use dpc_core::framework::descending_density_order;
use dpc_core::{DpcAlgorithm, DpcModel, ExDpc, StreamingDpc, Timings};
use dpc_geometry::batch;
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;
use dpc_rng::StdRng;
use dpc_serve::{assign, DpcServer, Request, Response, Snapshot};

use crate::fit::{Fitted, ALGOS};
use crate::report::Report;
use crate::serve::{assign_query, Deployment};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workload::Run;

/// Rows the distance-kernel probe scans in total (queries × n).
const KERNEL_ROWS: usize = 50_000_000;
/// Assign queries of the index/serve probe.
const QUERIES: usize = 2_000;
/// Stream points inserted, and oldest points removed, by the direct
/// streaming-engine probe.
const STREAM_OPS: usize = 2_000;
/// Repetitions of the Ex-DPC phase, persist, open and snapshot-build probes.
const REPS: usize = 3;

/// Runs every probe and records the per-layer metrics. `fitted` are the
/// traced fit stage's models; their `<algo>_fit_s` are in `report`.
pub fn probe(run: &Run, dep: &Deployment, fitted: &Fitted, tracer: &Tracer, report: &mut Report) {
    kernel(run, dep, fitted, tracer, report);
    exdpc_phases(run, dep, fitted, tracer, report);
    scaling(run, dep, fitted, tracer, report);
    model_counts(run, fitted, report);
    let parts = streaming(run, dep, tracer, report);
    persist_and_serve(run, dep, parts, tracer, report);
}

/// Median of the spans named `name`, scaled by `scale`.
fn span_metric(
    report: &mut Report,
    tracer: &Tracer,
    span: &str,
    name: &str,
    unit: &'static str,
    scale: f64,
) {
    let s = Samples::new(tracer.durations(span));
    match s.median() {
        Some(m) => report.metric(name, m * scale, unit, s.len()),
        None => report.fail(format!("no {span} span recorded")),
    }
}

/// `batch::count_within` of sampled points against all of the workload's
/// rows. Each count must be the point's integer ρ plus itself.
fn kernel(run: &Run, dep: &Deployment, fitted: &Fitted, tracer: &Tracer, report: &mut Report) {
    let data = &dep.data;
    let (n, dim) = (data.len(), data.dim());
    let queries = (KERNEL_ROWS / n).clamp(16, 4_096);
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xC0FF_EE00);
    let ids: Vec<usize> = (0..queries).map(|_| rng.gen_range(0..n)).collect();
    let r_sq = run.spec.dcut * run.spec.dcut;
    let (counts, secs) = tracer.run(tracer.request(), "geometry.count_within", |_| {
        ids.iter()
            .map(|&i| batch::count_within(data.point(i), data.flat(), dim, r_sq))
            .collect::<Vec<_>>()
    });
    for (&i, &c) in ids.iter().zip(black_box(&counts)) {
        let expected = fitted.ex.rho()[i].floor() as usize + 1;
        report
            .check(c == expected, || format!("count_within of point {i}: {c}, ρ says {expected}"));
    }
    let rows = (queries * n) as f64;
    report.metric("geometry.count_within_rows_per_s", rows / secs, "1/s", queries);
    // Computed, not measured: every row's coordinates are read once per query.
    report.metric("geometry.count_within_bytes", rows * (dim * 8) as f64, "bytes", 1);
}

/// Ex-DPC split into its phases through public calls, `REPS` times, each
/// time after one whole `ExDpc::fit` of the same data. The phases must
/// rebuild a model `layout_eq` to the fit stage's `ExDpc::fit`, and their
/// median times must add up to the median whole fit
/// (`core.exdpc.phase_coverage`); timing both side by side keeps a change
/// of machine speed between them out of the ratio.
fn exdpc_phases(
    run: &Run,
    dep: &Deployment,
    fitted: &Fitted,
    tracer: &Tracer,
    report: &mut Report,
) {
    let data = &dep.data;
    let params = run.spec.params(run.threads);
    let ex = ExDpc::new(params);
    let single = ExDpc::new(params.with_threads(1));
    let executor = Executor::new(run.threads);
    let side = params.dcut / (data.dim() as f64).sqrt();
    for _ in 0..REPS {
        let req = tracer.request();
        let (whole, _) = tracer.run(req, "core.exdpc.fit_whole", |_| ex.fit(data));
        report.check(whole.is_ok_and(|m| m.layout_eq(&fitted.ex)), || {
            "Ex-DPC fit differs from the fit stage's".to_string()
        });
        let (tree, _) =
            tracer.run(req, "index.kdtree_build", |_| KdTree::build_parallel(data, &executor));
        let (grid, _) =
            tracer.run(req, "index.grid_build", |_| Grid::build_parallel(data, side, &executor));
        let (rho, _) = tracer
            .run(req, "index.rho_batched", |_| ex.local_densities_with_grid(data, &tree, &grid));
        let (rho_1t, _) = tracer
            .run(req, "parallel.rho_1t", |_| single.local_densities_with_grid(data, &tree, &grid));
        report.check(rho.iter().zip(&rho_1t).all(|(a, b)| a.to_bits() == b.to_bits()), || {
            "ρ differs between 1 thread and nproc".to_string()
        });
        report.metric("index.kdtree_bytes", tree.mem_usage() as f64, "bytes", 1);
        report.metric("index.grid_cells", grid.num_cells() as f64, "count", 1);
        report.metric("index.query_buckets", grid.query_buckets().len() as f64, "count", 1);
        let index_bytes = tree.mem_usage();
        drop(tree);
        let ((dependent, delta), _) =
            tracer.run(req, "core.exdpc.delta", |_| ex.dependent_points(data, &rho));
        let (order, _) = tracer.run(req, "core.density_order", |_| descending_density_order(&rho));
        black_box(order);
        let rebuilt = DpcModel::from_parts(
            ex.name(),
            params.dcut,
            rho,
            delta,
            dependent,
            Timings::default(),
            index_bytes,
        );
        report.check(rebuilt.is_ok_and(|m| m.layout_eq(&fitted.ex)), || {
            "decomposed Ex-DPC phases do not rebuild the fitted model".to_string()
        });
    }
    span_metric(report, tracer, "core.exdpc.fit_whole", "core.exdpc.fit_s", "s", 1.0);
    span_metric(report, tracer, "index.kdtree_build", "index.kdtree_build_s", "s", 1.0);
    span_metric(report, tracer, "index.grid_build", "index.grid_build_s", "s", 1.0);
    span_metric(report, tracer, "index.rho_batched", "index.rho_batched_s", "s", 1.0);
    span_metric(report, tracer, "parallel.rho_1t", "parallel.rho_1t_s", "s", 1.0);
    span_metric(report, tracer, "core.exdpc.delta", "core.exdpc.delta_s", "s", 1.0);
    span_metric(report, tracer, "core.density_order", "core.density_order_s", "s", 1.0);
    let get = |name: &str| report.get(name).unwrap_or(f64::NAN);
    let phases = [
        "index.kdtree_build_s",
        "index.grid_build_s",
        "index.rho_batched_s",
        "core.exdpc.delta_s",
        "core.density_order_s",
    ];
    let coverage = phases.iter().map(|p| get(p)).sum::<f64>() / get("core.exdpc.fit_s");
    let speedup = get("parallel.rho_1t_s") / get("index.rho_batched_s");
    report.metric("core.exdpc.phase_coverage", coverage, "ratio", REPS);
    report.metric("parallel.rho_speedup", speedup, "ratio", REPS);
}

/// δ growth from n/2 to n (every other point: the same shape at half the
/// density, as a sampling rate would give) and the speed-up of each whole
/// fit from 1 thread to nproc. The three fits of an algorithm (n/2 and n
/// at nproc, n at 1 thread) run back to back, so that both ratios compare
/// times taken at one machine speed. Both bases are reported beside the
/// ratio.
fn scaling(run: &Run, dep: &Deployment, fitted: &Fitted, tracer: &Tracer, report: &mut Report) {
    let data = &dep.data;
    let half_ids: Vec<usize> = (0..data.len()).step_by(2).collect();
    let half = data.select(&half_ids);
    for (algo, at_n) in ALGOS.iter().zip([&fitted.ex, &fitted.approx, &fitted.sapprox]) {
        let key = algo.key;
        let req = tracer.request();
        let (half_model, _) =
            tracer.run(req, "core.fit_half", |_| algo.fit(run, run.threads, &half));
        let (full, fit_n) = tracer.run(req, "parallel.fit_n", |_| algo.fit(run, run.threads, data));
        let (single, fit_1t) = tracer.run(req, "parallel.fit_1t", |_| algo.fit(run, 1, data));
        let (Ok(half_model), Ok(full), Ok(single)) = (half_model, full, single) else {
            report.fail(format!("{key} scaling fits failed"));
            continue;
        };
        report.check(single.layout_eq(at_n) && full.layout_eq(at_n), || {
            format!("{key} fit differs between 1 thread and nproc")
        });
        let delta_half = half_model.fit_timings().delta_secs;
        let t = full.fit_timings();
        report.metric(format!("core.{key}.delta_half_s"), delta_half, "s", 1);
        report.metric(
            format!("core.{key}.delta_growth"),
            (t.delta_secs / delta_half).log2(),
            "log2",
            1,
        );
        if key != "exdpc" {
            report.metric(format!("core.{key}.rho_s"), t.rho_secs, "s", 1);
            report.metric(format!("core.{key}.delta_s"), t.delta_secs, "s", 1);
        }
        report.metric(format!("parallel.{key}_fit_1t_s"), fit_1t, "s", 1);
        report.metric(format!("parallel.{key}_fit_nt_s"), fit_n, "s", 1);
        report.metric(format!("parallel.{key}_speedup"), fit_1t / fit_n, "ratio", 1);
    }
}

/// Counts that size the work: mean integer ρ, the share of points whose δ
/// exceeds `d_cut` (the δ tail), and the share of Ex-DPC centres that
/// Approx-DPC reproduces.
fn model_counts(run: &Run, fitted: &Fitted, report: &mut Report) {
    let ex = &fitted.ex;
    let n = ex.n() as f64;
    let rho_mean = ex.rho().iter().map(|r| r.floor()).sum::<f64>() / n;
    let tail = ex.delta().iter().filter(|&&d| d > run.spec.dcut).count() as f64 / n;
    report.metric("core.rho_mean", rho_mean, "count", ex.n());
    report.metric("core.delta_tail_share", tail, "ratio", ex.n());
    let t = run.spec.thresholds();
    let ex_centers = ex.extract(&t).centers;
    let approx_centers = fitted.approx.extract(&t).centers;
    let matched = ex_centers.iter().filter(|c| approx_centers.contains(c)).count();
    report.metric(
        "core.approx.center_match",
        matched as f64 / ex_centers.len().max(1) as f64,
        "ratio",
        1,
    );
}

/// A `StreamingDpc` of its own, seeded with the stream stage's window and
/// fed the same stream: insert, remove-oldest and `to_parts` timings, and
/// the engine's memory. Returns the last `to_parts` output.
fn streaming(
    run: &Run,
    dep: &Deployment,
    tracer: &Tracer,
    report: &mut Report,
) -> Option<(dpc_geometry::Dataset, DpcModel)> {
    let data = &dep.data;
    let n = data.len();
    let window = run.spec.window.min(n);
    let mut engine = match StreamingDpc::new(run.spec.params(1), data.dim()) {
        Ok(e) => e,
        Err(e) => {
            report.fail(format!("streaming engine: {e}"));
            return None;
        }
    };
    let mut inserted = 0;
    for &i in &dep.pool[..window] {
        inserted += u64::from(engine.insert(data.point(i)).is_ok());
    }
    let mut failed = 0;
    for k in 0..STREAM_OPS {
        let p = data.point(dep.pool[(window + k) % n]);
        let (r, _) = tracer.run(tracer.request(), "core.streaming.insert", |_| engine.insert(p));
        failed += u64::from(r.is_err());
    }
    for id in 0..STREAM_OPS as u64 {
        let (removed, _) =
            tracer.run(tracer.request(), "core.streaming.remove", |_| engine.remove(id));
        failed += u64::from(!removed);
    }
    report.ops(2 * STREAM_OPS as u64, failed);
    report.check(inserted == window as u64, || "seeding the streaming engine failed".to_string());
    let mut parts = None;
    for _ in 0..REPS {
        parts =
            tracer.run(tracer.request(), "core.streaming.to_parts", |_| engine.to_parts()).0.ok();
    }
    span_metric(report, tracer, "core.streaming.insert", "core.streaming.insert_us", "us", 1e6);
    span_metric(report, tracer, "core.streaming.remove", "core.streaming.remove_us", "us", 1e6);
    span_metric(report, tracer, "core.streaming.to_parts", "core.streaming.to_parts_ms", "ms", 1e3);
    report.metric("core.streaming.bytes", engine.mem_usage() as f64, "bytes", 1);
    parts.map(|(data, _ids, model)| (data, model))
}

/// Artifact encode/decode, server open, snapshot build from `to_parts`
/// output, extraction on the served model, and the Assign path split into
/// the server's `handle`, `assign::classify` and the snapshot kd-tree's
/// range count and nearest neighbour, one request id per query.
fn persist_and_serve(
    run: &Run,
    dep: &Deployment,
    parts: Option<(dpc_geometry::Dataset, DpcModel)>,
    tracer: &Tracer,
    report: &mut Report,
) {
    let snapshot = dep.server.snapshot();
    let mut bytes = Vec::new();
    for _ in 0..REPS {
        bytes = tracer.run(tracer.request(), "persist.encode", |_| snapshot.to_artifact_bytes()).0;
        let (decoded, _) = tracer
            .run(tracer.request(), "persist.decode", |_| Snapshot::from_artifact_bytes(&bytes));
        report.check(decoded.is_ok_and(|d| d.model().layout_eq(snapshot.model())), || {
            "decoded artifact differs from the served model".to_string()
        });
        let (opened, _) =
            tracer.run(tracer.request(), "serve.open", |_| DpcServer::open(&dep.artifact));
        report.check(opened.is_ok(), || "DpcServer::open failed".to_string());
    }
    report.metric("persist.artifact_bytes", bytes.len() as f64, "bytes", 1);
    span_metric(report, tracer, "persist.encode", "persist.encode_ms", "ms", 1e3);
    span_metric(report, tracer, "persist.decode", "persist.decode_ms", "ms", 1e3);
    span_metric(report, tracer, "serve.open", "serve.open_ms", "ms", 1e3);

    if let Some((data, model)) = parts {
        let data = Arc::new(data);
        for _ in 0..REPS {
            let (snap, _) = tracer.run(tracer.request(), "serve.snapshot_build", |_| {
                Snapshot::new(
                    Arc::clone(&data),
                    model.clone(),
                    run.spec.thresholds(),
                    &Executor::single(),
                )
            });
            black_box(snap);
        }
    }
    span_metric(report, tracer, "serve.snapshot_build", "serve.snapshot_build_ms", "ms", 1e3);

    for t in run.spec.sweep() {
        let (c, _) =
            tracer.run(tracer.request(), "serve.extract", |_| snapshot.model().extract(&t));
        black_box(c);
    }
    span_metric(report, tracer, "serve.extract", "serve.extract_ms", "ms", 1e3);

    let mut rng = StdRng::seed_from_u64(run.seed ^ 0xA551_6E00);
    let dcut = run.spec.dcut;
    let mut exact = 0usize;
    for q in 0..QUERIES {
        let (query, _) = assign_query(&mut rng, &dep.data, dcut);
        let req = tracer.request();
        let request = Request::Assign(query.clone());
        // Whichever call runs first meets the query's tree nodes cold; take
        // turns so neither median carries all the cache misses.
        let handle = || tracer.run(req, "serve.handle", |_| dep.server.handle(&request)).0;
        let classify =
            || tracer.run(req, "serve.classify", |_| assign::classify(&snapshot, &query)).0;
        let (handled, classified) = if q % 2 == 0 {
            (handle(), classify())
        } else {
            let c = classify();
            (handle(), c)
        };
        let (count, _) = tracer
            .run(req, "index.range_count", |_| snapshot.tree().range_count(&query, dcut, None));
        let (nn, _) = tracer
            .run(req, "index.nearest_neighbor", |_| snapshot.tree().nearest_neighbor(&query, None));
        black_box(count);
        exact += usize::from(nn.is_some_and(|(_, d)| d == 0.0));
        let same = matches!((&handled, &classified), (Ok(Response::Assign(h)), Ok(c)) if h == c);
        report
            .check(same, || format!("handle and classify disagree: {handled:?} vs {classified:?}"));
    }
    report.metric("serve.exact_hit_share", exact as f64 / QUERIES as f64, "ratio", QUERIES);
    span_metric(report, tracer, "index.range_count", "index.range_count_us", "us", 1e6);
    span_metric(report, tracer, "index.nearest_neighbor", "index.nearest_neighbor_us", "us", 1e6);
    span_metric(report, tracer, "serve.classify", "serve.classify_us", "us", 1e6);
    let handle = Samples::new(tracer.durations("serve.handle")).median();
    if let (Some(h), Some(c)) = (handle, report.get("serve.classify_us")) {
        // Derived: what `handle` adds around `classify` (admission, deadline,
        // unwind isolation, snapshot pinning).
        report.metric("serve.dispatch_us", h * 1e6 - c, "us", QUERIES);
    }
    let counters = dep.server.counters();
    report.metric("serve.admitted", counters.admitted as f64, "count", 1);
    report.metric("serve.shed", counters.shed as f64, "count", 1);
    report.metric("serve.timed_out", counters.timed_out as f64, "count", 1);
    report.metric("serve.panicked", counters.panicked as f64, "count", 1);
}
