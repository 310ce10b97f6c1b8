//! Set-up, the serve stage and the stream stage.
//!
//! Both stages are closed loops: `DpcServer::handle` is synchronous, so each
//! client sends its next request only when the previous answer is back, and
//! a slower server receives proportionally less load.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpc_core::{DpcAlgorithm, DpcModel, ExDpc, Thresholds};
use dpc_geometry::{dist, Dataset};
use dpc_parallel::Executor;
use dpc_persist::write_artifact_file;
use dpc_rng::StdRng;
use dpc_serve::{DpcServer, Request, Response, Snapshot};

use crate::calib::Gauge;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workload::Run;

/// Share of requests that are Relabel; the rest are Assign.
const RELABEL_SHARE: f64 = 0.1;
/// Share of Assign queries that are a fitted point itself, whose answer
/// must be that point's fitted label. The rest are fitted points moved by
/// up to ±d_cut/2 along each axis.
const EXACT_SHARE: f64 = 0.1;

/// What set-up builds: the dataset, a server opened from a persisted
/// artifact, and a streaming server seeded with the first window of a
/// shuffled pool of the same points.
pub struct Deployment {
    pub data: Dataset,
    pub server: DpcServer,
    pub artifact: PathBuf,
    pub stream: DpcServer,
    /// Ids of `data` in stream order: the first `window` seed the streaming
    /// server, the rest (cycled) are ingested.
    pub pool: Vec<usize>,
}

/// Builds everything the stages need, `run.setup_reps` times; `setup_s` is
/// the median, at reference speed (probed three times before each set-up
/// and after the last, on the fit's threads). Returns the last deployment.
pub fn setup(run: &Run, tracer: &Tracer, report: &mut Report) -> Option<Deployment> {
    let mut times = Vec::new();
    let mut last = None;
    let mut gauge = Gauge::new(run.threads);
    let probe3 = |g: &mut Gauge| (0..3).for_each(|_| g.probe());
    for _ in 0..run.setup_reps {
        probe3(&mut gauge);
        drop(last.take());
        let (built, secs) = tracer.run(tracer.request(), "setup", |ctx| {
            let (data, _) = tracer.run(ctx, "setup.data_generate", |_| run.spec.generate());
            deploy(run, data, tracer, ctx)
        });
        match built {
            Ok(d) => last = Some(d),
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                return None;
            }
        }
        times.push(secs);
    }
    probe3(&mut gauge);
    let times = Samples::new(times);
    report.timing("setup_s", times.median()?, "s", times.len(), &gauge);
    last
}

fn deploy(
    run: &Run,
    data: Dataset,
    tracer: &Tracer,
    ctx: crate::trace::Ctx,
) -> Result<Deployment, dpc_core::DpcError> {
    let executor = Executor::new(run.threads);
    let params = run.spec.params(run.threads);
    let thresholds = run.spec.thresholds();
    let (model, _) = tracer.run(ctx, "setup.exdpc_fit", |_| ExDpc::new(params).fit(&data));
    let model = model?;
    let (snapshot, _) = tracer.run(ctx, "setup.snapshot_build", |_| {
        Snapshot::new(Arc::new(data.clone()), model, thresholds, &executor)
    });
    let (bytes, _) = tracer.run(ctx, "setup.persist_encode", |_| snapshot.to_artifact_bytes());
    let artifact = run.out_dir.join(format!("{}-{}.dpcsnap", run.spec.name, run.seed));
    tracer.run(ctx, "setup.persist_write", |_| write_artifact_file(&artifact, &bytes)).0?;
    let (server, _) = tracer.run(ctx, "setup.serve_open", |_| DpcServer::open(&artifact));
    let server = server?;

    let mut pool: Vec<usize> = (0..data.len()).collect();
    StdRng::seed_from_u64(run.seed ^ 0x5EED_F00D).shuffle(&mut pool);
    let window = run.spec.window.min(data.len());
    let seed_window = data.select(&pool[..window]);
    let (stream, _) = tracer.run(ctx, "setup.stream_seed", |_| {
        DpcServer::fit(&ExDpc::new(params), seed_window, thresholds, &executor)?.with_streaming(
            params,
            Some((window, run.spec.expiry_batch)),
            run.spec.publish_every,
        )
    });
    Ok(Deployment { data, server, artifact, stream: stream?, pool })
}

/// An Assign query drawn from the fitted points: `Some(i)` when it is the
/// fitted point `i` itself.
pub fn assign_query(rng: &mut StdRng, data: &Dataset, dcut: f64) -> (Vec<f64>, Option<usize>) {
    let i = rng.gen_range(0..data.len());
    let p = data.point(i);
    if rng.gen_f64() < EXACT_SHARE {
        return (p.to_vec(), Some(i));
    }
    (p.iter().map(|&c| c + rng.gen_range(-0.5 * dcut..=0.5 * dcut)).collect(), None)
}

/// What a Relabel at each sweep threshold must answer.
struct Expected {
    relabel: Vec<(usize, usize, Vec<usize>)>,
    labels: Vec<i64>,
}

impl Expected {
    fn of(snapshot: &Snapshot, sweep: &[Thresholds]) -> Self {
        let relabel = sweep
            .iter()
            .map(|t| {
                let c = snapshot.model().extract(t);
                (c.num_clusters(), c.noise_count(), c.centers)
            })
            .collect();
        Self { relabel, labels: snapshot.clustering().labels().to_vec() }
    }
}

/// Latencies, outcomes and reference times of one client.
struct ClientLog {
    assign: Vec<f64>,
    relabel: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    gauge: Gauge,
}

/// One closed-loop reader: Assign and Relabel until `stop` says so, timing
/// the reference work every [`crate::calib::INTERVAL`]. With `expected`,
/// every answer is checked against it; against a streaming server, whose
/// epochs change underneath, only success is checked.
fn reader(
    server: &DpcServer,
    run: &Run,
    data: &Dataset,
    expected: Option<&Expected>,
    client: u64,
    tracer: &Tracer,
    stop: &dyn Fn() -> bool,
) -> ClientLog {
    let sweep = run.spec.sweep();
    let mut rng = StdRng::seed_from_u64(run.seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut log = ClientLog {
        assign: Vec::new(),
        relabel: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        gauge: Gauge::new(1),
    };
    while !stop() {
        log.gauge.tick();
        log.attempted += 1;
        if rng.gen_f64() < RELABEL_SHARE {
            let k = rng.gen_range(0..sweep.len());
            let request = Request::Relabel(sweep[k]);
            let (resp, secs) =
                tracer.run(tracer.request(), "serve.relabel", |_| server.handle(&request));
            log.relabel.push(secs);
            let ok = match (&resp, expected) {
                (Ok(Response::Relabel(r)), Some(e)) => {
                    let (clusters, noise, centers) = &e.relabel[k];
                    r.num_clusters == *clusters && r.noise_count == *noise && &r.centers == centers
                }
                (Ok(Response::Relabel(r)), None) => {
                    r.centers.len() == r.num_clusters && r.noise_count <= r.n
                }
                _ => false,
            };
            if !ok {
                log.failures.push(format!("Relabel {:?}: {resp:?}", sweep[k]));
            }
        } else {
            let (query, exact) = assign_query(&mut rng, data, run.spec.dcut);
            let request = Request::Assign(query);
            let (resp, secs) =
                tracer.run(tracer.request(), "serve.assign", |_| server.handle(&request));
            log.assign.push(secs);
            let ok = match (&resp, exact, expected) {
                (Ok(Response::Assign(r)), Some(i), Some(e)) => r.label == e.labels[i],
                (Ok(Response::Assign(_)), _, _) => true,
                _ => false,
            };
            if !ok {
                log.failures.push(format!("Assign (exact point {exact:?}): {resp:?}"));
            }
        }
    }
    log
}

fn absorb(report: &mut Report, log: &ClientLog) {
    report.ops(log.attempted, log.failures.len() as u64);
    report.failures.extend(log.failures.iter().take(5).cloned());
}

/// The serve stage: `run.threads` closed-loop clients, 90% Assign and 10%
/// Relabel, for a fifth of the run. Records `read_rps`,
/// `assign_p50_us`, `assign_p99_us` and `relabel_p50_us`, at the reference
/// speed of the clients' probes taken together; the time a client spends
/// probing is not part of its reading time.
pub fn serve_stage(run: &Run, dep: &Deployment, tracer: &Tracer, report: &mut Report) {
    let expected = Expected::of(&dep.server.snapshot(), &run.spec.sweep());
    let deadline = Instant::now() + Duration::from_secs_f64(run.serve_seconds());
    let stop = || Instant::now() >= deadline;
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.threads as u64)
            .map(|c| {
                let expected = &expected;
                let stop = &stop;
                s.spawn(move || {
                    reader(&dep.server, run, &dep.data, Some(expected), c + 1, tracer, stop)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a serve client panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut assign = Vec::new();
    let mut relabel = Vec::new();
    let mut rps = 0.0;
    let mut gauge = logs[0].gauge.clone();
    for log in &logs[1..] {
        gauge.merge(&log.gauge);
    }
    for log in &logs {
        absorb(report, log);
        assign.extend(log.assign.iter().map(|s| s * 1e6));
        relabel.extend(log.relabel.iter().map(|s| s * 1e6));
        rps += (log.assign.len() + log.relabel.len()) as f64 / (wall - log.gauge.spent());
    }
    let reads = assign.len() + relabel.len();
    report.rate("read_rps", rps, "1/s", reads, &gauge);
    let assign = Samples::new(assign);
    if let Some(m) = assign.median() {
        report.timing("assign_p50_us", m, "us", assign.len(), &gauge);
    }
    if let Some(t) = assign.tail(99.0) {
        report.timing("assign_p99_us", t, "us", assign.len(), &gauge);
    }
    let relabel = Samples::new(relabel);
    if let Some(m) = relabel.median() {
        report.timing("relabel_p50_us", m, "us", relabel.len(), &gauge);
    }
}

/// The stream stage: one writer ingests the pool's points after the seed
/// window (cycling, so the window stays a random sample of one pool) while
/// one reader sends Assign and Relabel. The writer stops at the first
/// publish after the stage budget, and the published model is then checked
/// against a fresh keyed Ex-DPC fit of the surviving window. Writer and
/// reader each time the reference work every [`crate::calib::INTERVAL`];
/// each one's metrics are at its own reference speed.
pub fn stream_stage(run: &Run, dep: &Deployment, tracer: &Tracer, report: &mut Report) {
    let deadline = Instant::now() + Duration::from_secs_f64(run.stream_seconds());
    let done = AtomicBool::new(false);
    let stop = || done.load(Ordering::SeqCst);
    let n = dep.data.len();
    let window = run.spec.window.min(n);
    let (writer, reader_log) = std::thread::scope(|s| {
        let reader_handle =
            s.spawn(|| reader(&dep.stream, run, &dep.data, None, 0xBEEF, tracer, &stop));
        let mut ingest = Vec::new();
        let mut publish = Vec::new();
        let mut failures = Vec::new();
        let mut last = None;
        let mut gauge = Gauge::new(1);
        let start = Instant::now();
        let mut cursor = window;
        loop {
            gauge.tick();
            let request = Request::Ingest(dep.data.point(dep.pool[cursor % n]).to_vec());
            cursor += 1;
            let (resp, secs) =
                tracer.run(tracer.request(), "serve.ingest", |_| dep.stream.handle(&request));
            ingest.push(secs * 1e6);
            match resp {
                Ok(Response::Ingest(r)) => {
                    if r.published {
                        publish.push(secs * 1e3);
                    }
                    let published = r.published;
                    last = Some(r);
                    if published && Instant::now() >= deadline {
                        break;
                    }
                }
                other => {
                    failures.push(format!("Ingest: {other:?}"));
                    break;
                }
            }
        }
        let wall = start.elapsed().as_secs_f64() - gauge.spent();
        done.store(true, Ordering::SeqCst);
        let reader_log = reader_handle.join().expect("the stream reader panicked");
        ((ingest, publish, failures, last, wall, gauge), reader_log)
    });
    let (ingest, publish, failures, last, wall, gauge) = writer;
    report.ops(ingest.len() as u64, failures.len() as u64);
    report.failures.extend(failures);
    absorb(report, &reader_log);

    report.rate("ingest_pts_per_s", ingest.len() as f64 / wall, "1/s", ingest.len(), &gauge);
    let ingest = Samples::new(ingest);
    if let Some(t) = ingest.tail(99.0) {
        report.timing("ingest_p99_us", t, "us", ingest.len(), &gauge);
    }
    let publish = Samples::new(publish);
    if let Some(m) = publish.median() {
        report.timing("publish_ms", m, "ms", publish.len(), &gauge);
    }
    let assign = Samples::new(reader_log.assign.iter().map(|s| s * 1e6).collect());
    if let Some(m) = assign.median() {
        report.timing("stream_assign_p50_us", m, "us", assign.len(), &reader_log.gauge);
    }
    if let Some(last) = last.filter(|r| r.published) {
        check_streamed(run, &dep.stream.snapshot(), last.id, report);
    }
}

/// The published streamed model must equal a fresh keyed Ex-DPC fit of the
/// surviving window: ρ, δ and the density order bit for bit, each dependent
/// a valid minimiser, and the same labels. (`layout_eq` itself does not
/// apply: the two models carry different algorithm names and index-byte
/// accounting.)
fn check_streamed(run: &Run, snapshot: &Snapshot, last_id: u64, report: &mut Report) {
    let window = snapshot.data();
    let live = window.len() as u64;
    let ids: Vec<u64> = (last_id + 1 - live..=last_id).collect();
    let streamed = snapshot.model();
    let fresh = match ExDpc::new(run.spec.params(run.threads)).fit_keyed(window, &ids) {
        Ok(m) => m,
        Err(e) => return report.fail(format!("keyed refit of the window failed: {e}")),
    };
    report.check(same_model(window, streamed, &fresh), || {
        "streamed model differs from a fresh keyed fit of the window".to_string()
    });
    let t = run.spec.thresholds();
    report.check(streamed.extract(&t).assignment == fresh.extract(&t).assignment, || {
        "streamed labels differ from a fresh keyed fit".to_string()
    });
}

fn same_model(data: &Dataset, streamed: &DpcModel, fresh: &DpcModel) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    streamed.n() == fresh.n()
        && bits(streamed.rho()) == bits(fresh.rho())
        && bits(streamed.delta()) == bits(fresh.delta())
        && streamed.density_order() == fresh.density_order()
        && (0..streamed.n()).all(|i| {
            let dep = streamed.dependent()[i];
            if dep == i {
                streamed.delta()[i].is_infinite()
            } else {
                streamed.rho()[dep] > streamed.rho()[i]
                    && dist(data.point(i), data.point(dep)).to_bits()
                        == streamed.delta()[i].to_bits()
            }
        })
}
