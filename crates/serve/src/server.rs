//! The request dispatcher: one [`DpcServer`] wraps a [`ModelStore`] and
//! answers [`Request`]s against the store's current snapshot.
//!
//! Each request pins exactly one snapshot (one `Arc` clone) for its whole
//! lifetime, so a background refit installed mid-request never mixes into the
//! answer — the response's `epoch` field names the epoch every one of its
//! fields came from. The server is shared freely across threads
//! (`&DpcServer` is all any worker needs); the only mutable state beyond the
//! store is a handful of atomic counters.
//!
//! # The request path
//!
//! Every request except [`Request::Health`] passes through, in order:
//!
//! 1. **Admission.** With [`ServeConfig::max_in_flight`] set, a request that
//!    would push the in-flight count past the cap is shed immediately with
//!    [`ServeError::Overloaded`] — no snapshot pinned, no work started.
//! 2. **Deadline.** With [`ServeConfig::deadline`] set, the clock starts at
//!    admission; handlers check it at phase boundaries (dispatch entry, and
//!    the start of `Assign`'s classification and of an ingest) and abandon
//!    with [`ServeError::DeadlineExceeded`], never a partial answer.
//! 3. **Panic isolation.** Dispatch runs inside
//!    [`std::panic::catch_unwind`]: a panicking handler becomes
//!    [`ServeError::HandlerPanic`] and the server keeps serving. This is
//!    sound because handlers only *read* the immutable snapshot — there is
//!    no state to tear.
//! 4. **Input validation.** `Relabel` thresholds are re-validated at this
//!    trust boundary ([`Thresholds::validate`]); the fields are public, so a
//!    corrupted request can carry NaN or negative values that
//!    `Thresholds::new` never saw.
//!
//! [`Request::Health`] bypasses steps 1–3 by design: monitoring must keep
//! answering exactly when the server is overloaded or degraded.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dpc_core::{DpcAlgorithm, DpcError, DpcParams, StreamingDpc, Thresholds};
use dpc_geometry::Dataset;
use dpc_index::batchq::BatchRangeCount;
use dpc_parallel::Executor;

use crate::assign::classify_prepared;
use crate::error::{Deadline, ServeError};
use crate::faults::{FaultInjector, FaultPoint};
use crate::request::{
    HealthResponse, IngestResponse, RelabelResponse, Request, Response, StatsResponse,
};
use crate::snapshot::Snapshot;
use crate::store::ModelStore;

/// Robustness knobs of a [`DpcServer`]. The default is maximally permissive
/// (no deadline, no admission cap) — exactly the seed behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-request time budget; `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Admission cap: requests beyond this many in flight are shed with
    /// [`ServeError::Overloaded`]. `None` = unlimited.
    pub max_in_flight: Option<usize>,
}

impl ServeConfig {
    /// Sets the per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the admission cap.
    pub fn with_max_in_flight(mut self, limit: usize) -> Self {
        self.max_in_flight = Some(limit);
        self
    }
}

/// A point-in-time copy of the server's cumulative request counters, as
/// reported in [`HealthResponse`]. Counters only ever grow; rates are the
/// caller's division.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests admitted past the in-flight cap (includes ones that later
    /// failed validation, timed out or panicked).
    pub admitted: u64,
    /// Requests shed at admission ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Requests abandoned at a deadline ([`ServeError::DeadlineExceeded`]).
    pub timed_out: u64,
    /// Requests whose handler panicked ([`ServeError::HandlerPanic`]).
    pub panicked: u64,
}

/// The live atomics behind [`ServeCounters`].
#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
}

impl Counters {
    fn read(&self) -> ServeCounters {
        ServeCounters {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
        }
    }
}

/// RAII in-flight decrement: constructed before the cap check so the shed
/// path undoes its own increment, dropped when the request finishes on any
/// path (success, error, even a resumed panic).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The mutable half of streaming mode: the maintenance engine plus the
/// publish cadence. Lives behind one [`Mutex`] — ingest is the single write
/// path of the server, and serialising writers is exactly the streaming
/// engine's contract (readers never touch this state; they read the
/// immutable published snapshots).
struct StreamingIngest {
    engine: StreamingDpc,
    /// Ingests absorbed since the last publish.
    since_publish: usize,
    /// Publish (install the streamed state as a new epoch) every this many
    /// ingests; `≥ 1`.
    publish_every: usize,
    /// Executor used to build the published snapshot's kd-tree.
    executor: Executor,
}

/// A clustering server: a [`ModelStore`] plus the request dispatch over it.
pub struct DpcServer {
    store: ModelStore,
    config: ServeConfig,
    faults: Option<Arc<FaultInjector>>,
    streaming: Option<Mutex<StreamingIngest>>,
    in_flight: AtomicUsize,
    counters: Counters,
}

impl DpcServer {
    /// Fits `algo` on `data` and starts serving the result as epoch 1, with
    /// the permissive [`ServeConfig::default`] and no fault injection.
    ///
    /// # Errors
    /// Propagates the underlying fit's [`DpcError`].
    pub fn fit<A: DpcAlgorithm>(
        algo: &A,
        data: Dataset,
        thresholds: Thresholds,
        executor: &Executor,
    ) -> Result<Self, DpcError> {
        Ok(Self {
            store: ModelStore::fit(algo, data, thresholds, executor)?,
            config: ServeConfig::default(),
            faults: None,
            streaming: None,
            in_flight: AtomicUsize::new(0),
            counters: Counters::default(),
        })
    }

    /// Opens a server from a snapshot artifact on disk and starts serving it
    /// as epoch 1 — the refit-free cold start (see [`ModelStore::open`]) —
    /// with the permissive [`ServeConfig::default`] and no fault injection.
    ///
    /// # Errors
    /// Propagates [`ModelStore::open`]'s [`DpcError`]: `Io` when the file
    /// cannot be read, `Corrupt`/`TruncatedArtifact` for any artifact defect.
    pub fn open(path: &std::path::Path) -> Result<Self, DpcError> {
        Ok(Self {
            store: ModelStore::open(path)?,
            config: ServeConfig::default(),
            faults: None,
            streaming: None,
            in_flight: AtomicUsize::new(0),
            counters: Counters::default(),
        })
    }

    /// Replaces the robustness configuration (builder style).
    pub fn with_config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a fault injector: armed request-side points
    /// ([`FaultPoint::SlowRequest`], [`FaultPoint::RequestPanic`]) fire
    /// inside the dispatch bracket, exercising exactly the isolation a real
    /// failure would. Production servers simply never attach one.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Turns on streaming mode: the server answers [`Request::Ingest`] by
    /// absorbing points into a [`StreamingDpc`] maintenance engine seeded
    /// from the *current* snapshot's points (stable ids `0..n-1`, matching
    /// the fitted jitter when `params` carries the fitted seed), and installs
    /// the streamed state as a new epoch every `publish_every` ingests — the
    /// stream advances epochs without ever refitting from scratch.
    ///
    /// `window` is the optional sliding-window configuration
    /// `(capacity, batch)` (see [`StreamingDpc::with_window`]): the engine
    /// keeps at most `capacity` points, expiring the oldest in batches of
    /// `batch` once the overshoot reaches one batch.
    ///
    /// # Errors
    /// Propagates the engine's [`DpcError`]s: invalid `params`, or a seed
    /// snapshot whose points the engine rejects.
    ///
    /// # Panics
    /// Panics if `publish_every == 0` or a provided `window` has a zero
    /// capacity or batch.
    pub fn with_streaming(
        mut self,
        params: DpcParams,
        window: Option<(usize, usize)>,
        publish_every: usize,
    ) -> Result<Self, DpcError> {
        assert!(publish_every >= 1, "publish_every must be at least 1");
        let snapshot = self.store.snapshot();
        let mut engine = StreamingDpc::new(params, snapshot.dim())?;
        if let Some((capacity, batch)) = window {
            engine = engine.with_window(capacity, batch);
        }
        for i in 0..snapshot.n() {
            engine.insert(snapshot.data().point(i))?;
        }
        // Seeding can already expire the oldest points of an over-capacity
        // snapshot; those expiries predate any client ingest.
        engine.drain_expired();
        self.streaming = Some(Mutex::new(StreamingIngest {
            engine,
            since_publish: 0,
            publish_every,
            executor: Executor::single(),
        }));
        Ok(self)
    }

    /// The active robustness configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// The underlying store — for writers that refit/install epochs while
    /// readers keep calling [`DpcServer::handle`].
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// A handle to the current snapshot (see [`ModelStore::snapshot`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// A point-in-time copy of the cumulative request counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters.read()
    }

    /// Answers one request against the current snapshot, through the full
    /// admission → deadline → isolation path (module docs). `Health` skips
    /// that path and always answers.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] at the admission cap,
    /// [`ServeError::DeadlineExceeded`] past the time budget,
    /// [`ServeError::HandlerPanic`] when the handler panicked, and
    /// [`ServeError::Dpc`] for malformed inputs (bad query point, corrupted
    /// thresholds).
    pub fn handle(&self, request: &Request) -> Result<Response, ServeError> {
        if matches!(request, Request::Health) {
            return Ok(Response::Health(self.health_response()));
        }
        let _guard = self.admit()?;
        let deadline = Deadline::start(self.config.deadline);
        let snapshot = self.store.snapshot();
        self.dispatch(&snapshot, request, &deadline, None)
    }

    /// Answers one request against an explicitly pinned snapshot — the
    /// building block for clients that need several answers from the *same*
    /// epoch (pin once, ask many times). No admission, deadline or isolation:
    /// there is no server in this call, only a snapshot.
    ///
    /// # Errors
    /// [`ServeError::Dpc`] for malformed inputs;
    /// [`ServeError::Unsupported`] for [`Request::Health`], which needs the
    /// store and counters a bare snapshot does not have.
    pub fn handle_on(snapshot: &Snapshot, request: &Request) -> Result<Response, ServeError> {
        Self::handle_within(snapshot, request, &Deadline::none(), None)
    }

    /// Answers a batch of requests, fanning the work across `executor`'s
    /// workers (work-stealing over request indexes, so a mix of cheap `Stats`
    /// and `O(n)` `Relabel`s balances itself). The whole batch is served from
    /// one pinned snapshot: every response carries the same epoch even if a
    /// refit lands mid-batch. Each batched request passes through the same
    /// admission/deadline/isolation path as [`DpcServer::handle`], so one
    /// poisoned or slow request fails alone — the rest of the batch is
    /// unaffected.
    ///
    /// The batch's well-formed `Assign` points are first grouped by the grid
    /// cell they fall in (side `d_cut/√d`, the ρ-phase cell width) and their
    /// densities answered with one joint kd-tree descent per group
    /// ([`dpc_index::batchq`]); the batched engine's determinism contract
    /// keeps every response bit-identical to a solo [`DpcServer::handle`]
    /// call.
    pub fn handle_batch(
        &self,
        requests: &[Request],
        executor: &Executor,
    ) -> Vec<Result<Response, ServeError>> {
        let snapshot = self.store.snapshot();
        let rhos = Self::precompute_assign_densities(&snapshot, requests, executor);
        executor.map_dynamic(requests.len(), |i| {
            let request = &requests[i];
            if matches!(request, Request::Health) {
                return Ok(Response::Health(self.health_response()));
            }
            let _guard = self.admit()?;
            let deadline = Deadline::start(self.config.deadline);
            self.dispatch(&snapshot, request, &deadline, rhos[i])
        })
    }

    /// The batch `Assign` fan-in: groups the batch's valid `Assign` points by
    /// quantized grid cell (first-appearance order, side `d_cut/√d` — the
    /// same cell width the ρ phase uses, so spatially coherent batches share
    /// traversals) and computes each group's `d_cut` range counts with one
    /// [`BatchRangeCount`] descent, groups fanned across `executor`. Returns
    /// one entry per request: `Some(count + 0.5)` — the exact value the solo
    /// path computes — for every precomputed `Assign`, `None` otherwise
    /// (non-`Assign` requests, malformed points, degenerate `d_cut`).
    fn precompute_assign_densities(
        snapshot: &Snapshot,
        requests: &[Request],
        executor: &Executor,
    ) -> Vec<Option<f64>> {
        let mut rhos: Vec<Option<f64>> = vec![None; requests.len()];
        let dim = snapshot.dim();
        let side = snapshot.dcut() / (dim as f64).sqrt();
        if !(side.is_finite() && side > 0.0) {
            return rhos;
        }
        let mut key_to_group: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let Request::Assign(point) = request else { continue };
            if point.len() != dim || point.iter().any(|c| !c.is_finite()) {
                // classify rejects these with a validation error; there is
                // no density to precompute.
                continue;
            }
            let key: Vec<i64> = point.iter().map(|&c| (c / side).floor() as i64).collect();
            let next = groups.len();
            let g = *key_to_group.entry(key).or_insert(next);
            if g == next {
                groups.push(Vec::new());
            }
            groups[g].push(i);
        }
        if groups.is_empty() {
            return rhos;
        }
        let parts = snapshot.tree().packed_parts();
        let dcut = snapshot.dcut();
        let per_group: Vec<Vec<usize>> = executor.map_dynamic(groups.len(), |g| {
            let mut rows = Vec::with_capacity(groups[g].len() * dim);
            for &i in &groups[g] {
                match &requests[i] {
                    Request::Assign(point) => rows.extend_from_slice(point),
                    _ => unreachable!("groups hold Assign indexes only"),
                }
            }
            let radii = vec![dcut; groups[g].len()];
            let mut counts = Vec::new();
            BatchRangeCount::new().run(&parts, &rows, &radii, &[], &mut counts);
            counts
        });
        for (group, counts) in groups.iter().zip(&per_group) {
            for (&i, &count) in group.iter().zip(counts) {
                rhos[i] = Some(count as f64 + 0.5);
            }
        }
        rhos
    }

    /// The `Health` answer: last-good epoch, store health, counters.
    fn health_response(&self) -> HealthResponse {
        HealthResponse {
            epoch: self.store.epoch(),
            health: self.store.health(),
            counters: self.counters.read(),
        }
    }

    /// Admission control: reserves an in-flight slot or sheds the request.
    fn admit(&self) -> Result<InFlightGuard<'_>, ServeError> {
        let prev = self.in_flight.fetch_add(1, Ordering::Relaxed);
        // Guard first: if we shed, dropping it undoes our own increment.
        let guard = InFlightGuard(&self.in_flight);
        if let Some(limit) = self.config.max_in_flight {
            if prev >= limit {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { in_flight: prev + 1, limit });
            }
        }
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(guard)
    }

    /// The isolation bracket: runs the handler (and any armed request-side
    /// faults) under `catch_unwind`, converts panics to
    /// [`ServeError::HandlerPanic`], and keeps the outcome counters.
    fn dispatch(
        &self,
        snapshot: &Snapshot,
        request: &Request,
        deadline: &Deadline,
        assign_rho: Option<f64>,
    ) -> Result<Response, ServeError> {
        // AssertUnwindSafe: the closure only reads the immutable snapshot and
        // the injector's atomics; there is no state a mid-handler panic could
        // leave half-written.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(faults) = &self.faults {
                faults.maybe_sleep(FaultPoint::SlowRequest);
                if faults.fires(FaultPoint::RequestPanic) {
                    panic!("injected request panic");
                }
            }
            // Ingest is the one request that mutates server state, so it
            // cannot go through the static snapshot-only handler; it still
            // runs inside this bracket so an ingest panic is isolated and
            // counted like any other handler panic.
            if let Request::Ingest(point) = request {
                return self.handle_ingest(point, deadline);
            }
            Self::handle_within(snapshot, request, deadline, assign_rho)
        }));
        match outcome {
            Ok(result) => {
                if matches!(result, Err(ServeError::DeadlineExceeded { .. })) {
                    self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                }
                result
            }
            Err(payload) => {
                self.counters.panicked.fetch_add(1, Ordering::Relaxed);
                let payload = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                Err(ServeError::HandlerPanic { payload })
            }
        }
    }

    /// The handler proper: one snapshot, one request, one deadline, and —
    /// on the batch path — an optional precomputed `Assign` density.
    fn handle_within(
        snapshot: &Snapshot,
        request: &Request,
        deadline: &Deadline,
        assign_rho: Option<f64>,
    ) -> Result<Response, ServeError> {
        deadline.check()?;
        match request {
            Request::Relabel(thresholds) => {
                // Trust boundary: the fields are public, so a corrupted
                // request can carry values `Thresholds::new` never approved.
                thresholds.validate()?;
                let clustering = snapshot.model().extract(thresholds);
                Ok(Response::Relabel(RelabelResponse {
                    epoch: snapshot.epoch(),
                    n: snapshot.n(),
                    thresholds: *thresholds,
                    num_clusters: clustering.num_clusters(),
                    noise_count: clustering.noise_count(),
                    centers: clustering.centers,
                }))
            }
            Request::Assign(point) => {
                Ok(Response::Assign(classify_prepared(snapshot, point, deadline, assign_rho)?))
            }
            Request::Stats => {
                let clustering = snapshot.clustering();
                Ok(Response::Stats(StatsResponse {
                    epoch: snapshot.epoch(),
                    n: snapshot.n(),
                    dim: snapshot.dim(),
                    algorithm: snapshot.model().algorithm(),
                    dcut: snapshot.dcut(),
                    thresholds: snapshot.thresholds(),
                    num_clusters: clustering.num_clusters(),
                    fit_timings: snapshot.fit_timings(),
                    index_bytes: snapshot.index_bytes(),
                }))
            }
            Request::Ingest(_) => {
                // Reached only from `handle_on`: ingest needs the server's
                // streaming engine, which a bare pinned snapshot does not
                // have. (The server paths route Ingest to `handle_ingest`
                // before this handler, where a missing engine reports the
                // same error.)
                Err(ServeError::Unsupported { what: "Ingest without streaming mode" })
            }
            Request::Health => {
                Err(ServeError::Unsupported { what: "Health against a pinned snapshot" })
            }
        }
    }

    /// The ingest handler: absorbs one point into the streaming engine and —
    /// every `publish_every` ingests — publishes the streamed state as a new
    /// serving epoch.
    ///
    /// The window mutex is recovered from poisoning rather than propagated:
    /// the only panic that can land while it is held is the injected
    /// [`FaultPoint::IngestPanic`] (or an engine bug caught by its own
    /// invariants), and the injected point deliberately fires *before* any
    /// engine mutation, so a poisoned lock still guards a consistent engine.
    fn handle_ingest(&self, point: &[f64], deadline: &Deadline) -> Result<Response, ServeError> {
        let Some(streaming) = &self.streaming else {
            return Err(ServeError::Unsupported { what: "Ingest without streaming mode" });
        };
        let mut guard = streaming.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(faults) = &self.faults {
            if faults.fires(FaultPoint::IngestPanic) {
                panic!("injected ingest panic");
            }
        }
        deadline.check()?;
        let id = guard.engine.insert(point)?;
        let expired = guard.engine.drain_expired().len();
        guard.since_publish += 1;
        let published = guard.since_publish >= guard.publish_every;
        let epoch = if published {
            guard.since_publish = 0;
            let (data, _ids, model) = guard.engine.to_parts()?;
            let thresholds = self.store.snapshot().thresholds();
            let snapshot = Snapshot::new(Arc::new(data), model, thresholds, &guard.executor);
            self.store.install(snapshot)
        } else {
            self.store.epoch()
        };
        Ok(Response::Ingest(IngestResponse {
            epoch,
            id,
            n: guard.engine.len(),
            expired,
            published,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::health::Health;
    use dpc_core::{DpcParams, ExDpc, NOISE};
    use dpc_data::generators::gaussian_blobs;

    fn server() -> DpcServer {
        let data = gaussian_blobs(&[(0.0, 0.0), (60.0, 60.0), (0.0, 60.0)], 60, 2.0, 9);
        DpcServer::fit(
            &ExDpc::new(DpcParams::new(4.0)),
            data,
            Thresholds::new(2.0, 10.0).unwrap(),
            &Executor::single(),
        )
        .unwrap()
    }

    #[test]
    fn relabel_sweeps_thresholds_without_refitting() {
        let srv = server();
        let loose = match srv.handle(&Request::Relabel(Thresholds::new(2.0, 10.0).unwrap())) {
            Ok(Response::Relabel(r)) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(loose.num_clusters, 3);
        assert_eq!(loose.epoch, 1);
        assert_eq!(loose.n, 180);
        // A δ_min above every finite δ keeps only the globally densest point.
        let tight = match srv.handle(&Request::Relabel(Thresholds::new(2.0, 1e12).unwrap())) {
            Ok(Response::Relabel(r)) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(tight.num_clusters, 1);
        assert_eq!(srv.epoch(), 1, "relabel never installs an epoch");
    }

    #[test]
    fn stats_reports_the_serving_state() {
        let srv = server();
        let stats = match srv.handle(&Request::Stats) {
            Ok(Response::Stats(s)) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.n, 180);
        assert_eq!(stats.dim, 2);
        assert_eq!(stats.algorithm, "Ex-DPC");
        assert_eq!(stats.dcut, 4.0);
        assert_eq!(stats.num_clusters, 3);
        assert!(stats.index_bytes > 0);
        assert!(stats.fit_timings.total_secs() >= 0.0);
    }

    #[test]
    fn assign_errors_surface_without_poisoning_the_server() {
        let srv = server();
        let err = srv.handle(&Request::Assign(vec![1.0, 2.0, 3.0])).unwrap_err();
        assert_eq!(
            err,
            ServeError::Dpc(DpcError::DimensionMismatch {
                what: "query point",
                expected: 2,
                got: 3
            })
        );
        // The server still answers afterwards.
        assert!(srv.handle(&Request::Stats).is_ok());
    }

    #[test]
    fn a_batch_is_served_from_exactly_one_epoch() {
        let srv = server();
        let requests: Vec<Request> = (0..20)
            .map(|i| match i % 3 {
                0 => Request::Stats,
                1 => Request::Relabel(Thresholds::new(2.0, 10.0).unwrap()),
                _ => Request::Assign(vec![0.5 * i as f64, 0.0]),
            })
            .collect();
        let responses = srv.handle_batch(&requests, &Executor::new(4));
        assert_eq!(responses.len(), 20);
        for r in &responses {
            assert_eq!(r.as_ref().unwrap().epoch(), 1);
        }
    }

    #[test]
    fn batched_assigns_match_solo_assigns_bitwise() {
        // The batch path precomputes ρ through the cell-grouped joint
        // traversals; its determinism contract promises responses identical
        // to solo `handle` calls — including clustered duplicates, in-dataset
        // points (the NN short-circuit), far-away noise, and a mix with
        // non-Assign requests, at every thread count.
        let srv = server();
        let snap = srv.snapshot();
        let mut requests: Vec<Request> = (0..30)
            .map(|i| Request::Assign(vec![(i % 9) as f64 * 7.5 - 5.0, (i % 7) as f64 * 11.0 - 5.0]))
            .collect();
        requests.push(Request::Assign(snap.data().point(17).to_vec()));
        requests.push(Request::Assign(vec![-300.0, 500.0]));
        requests.push(Request::Assign(vec![0.2, -0.3]));
        requests.push(Request::Assign(vec![0.2, -0.3])); // exact duplicate
        requests.push(Request::Stats);
        requests.push(Request::Assign(vec![1.0])); // wrong dim: fails alone
        for threads in [1, 4] {
            let responses = srv.handle_batch(&requests, &Executor::new(threads));
            for (request, response) in requests.iter().zip(&responses) {
                match srv.handle(request) {
                    Ok(solo) => assert_eq!(response.as_ref().unwrap(), &solo),
                    Err(e) => assert_eq!(response.as_ref().unwrap_err(), &e),
                }
            }
        }
    }

    #[test]
    fn assign_inherits_the_dependents_label() {
        let srv = server();
        let r = match srv.handle(&Request::Assign(vec![0.2, -0.3])) {
            Ok(Response::Assign(r)) => r,
            other => panic!("{other:?}"),
        };
        let snap = srv.snapshot();
        let dep = r.dependent.expect("a near-blob query has a denser neighbour");
        assert_eq!(r.label, snap.clustering().assignment[dep]);
        assert_ne!(r.label, NOISE);
    }

    #[test]
    fn corrupted_thresholds_are_rejected_at_the_trust_boundary() {
        let srv = server();
        // Struct-literal construction bypasses Thresholds::new — the shape a
        // corrupted or malicious request arrives in.
        let corrupt = Thresholds { rho_min: f64::NAN, delta_min: -1.0 };
        let err = srv.handle(&Request::Relabel(corrupt)).unwrap_err();
        assert!(matches!(err, ServeError::Dpc(DpcError::InvalidThresholds { .. })), "{err:?}");
        assert!(srv.handle(&Request::Stats).is_ok());
    }

    #[test]
    fn the_admission_cap_sheds_instead_of_queueing() {
        let srv = server().with_config(ServeConfig::default().with_max_in_flight(0));
        let err = srv.handle(&Request::Stats).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { in_flight: 1, limit: 0 });
        // Shedding is observable, and Health still answers past the cap.
        let health = match srv.handle(&Request::Health) {
            Ok(Response::Health(h)) => h,
            other => panic!("{other:?}"),
        };
        assert_eq!(health.counters.shed, 1);
        assert_eq!(health.counters.admitted, 0);
        assert_eq!(health.health, Health::Healthy);
        // The shed path decremented its own in-flight reservation: a server
        // with a real cap is not wedged by past sheds.
        let srv = server().with_config(ServeConfig::default().with_max_in_flight(2));
        for _ in 0..10 {
            assert!(srv.handle(&Request::Stats).is_ok(), "sequential load never hits cap 2");
        }
        assert_eq!(srv.counters().shed, 0);
        assert_eq!(srv.counters().admitted, 10);
    }

    #[test]
    fn an_expired_deadline_times_the_request_out() {
        let srv = server().with_config(ServeConfig::default().with_deadline(Duration::ZERO));
        let err = srv.handle(&Request::Assign(vec![0.2, -0.3])).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { budget: Duration::ZERO });
        assert_eq!(srv.counters().timed_out, 1);
        // Health bypasses the deadline.
        assert!(srv.handle(&Request::Health).is_ok());
    }

    #[test]
    fn handler_panics_are_isolated_and_counted() {
        let faults =
            FaultInjector::shared(FaultPlan::new(11).with_rate(FaultPoint::RequestPanic, 1.0));
        let srv = server().with_faults(Arc::clone(&faults));
        let err = srv.handle(&Request::Stats).unwrap_err();
        assert_eq!(err, ServeError::HandlerPanic { payload: "injected request panic".into() });
        assert_eq!(srv.counters().panicked, 1);
        // End the storm: the same server answers normally again — nothing
        // was poisoned or wedged by the panic.
        faults.disarm();
        assert!(srv.handle(&Request::Stats).is_ok());
        let health = match srv.handle(&Request::Health) {
            Ok(Response::Health(h)) => h,
            other => panic!("{other:?}"),
        };
        assert_eq!(health.counters.panicked, 1);
        assert_eq!(health.counters.admitted, 2);
    }

    #[test]
    fn health_on_a_pinned_snapshot_is_unsupported() {
        let srv = server();
        let snap = srv.snapshot();
        let err = DpcServer::handle_on(&snap, &Request::Health).unwrap_err();
        assert!(matches!(err, ServeError::Unsupported { .. }), "{err:?}");
        // Everything else works against a pinned snapshot.
        assert!(DpcServer::handle_on(&snap, &Request::Stats).is_ok());
    }

    #[test]
    fn ingest_without_streaming_is_unsupported() {
        let srv = server();
        let err = srv.handle(&Request::Ingest(vec![0.0, 0.0])).unwrap_err();
        assert!(matches!(err, ServeError::Unsupported { .. }), "{err:?}");
        let snap = srv.snapshot();
        let err = DpcServer::handle_on(&snap, &Request::Ingest(vec![0.0, 0.0])).unwrap_err();
        assert!(matches!(err, ServeError::Unsupported { .. }), "{err:?}");
    }

    #[test]
    fn ingest_advances_epochs_without_refitting() {
        // Streaming params mirror the fitted ones (dcut 4.0, default jitter
        // seed), so the seeded engine reproduces the fitted densities and
        // every published epoch is a plain continuation of the stream.
        let srv = server().with_streaming(DpcParams::new(4.0), None, 5).unwrap();
        let n0 = srv.snapshot().n();
        let mut published_at = Vec::new();
        for i in 0..12 {
            let r = match srv.handle(&Request::Ingest(vec![0.3 * i as f64, 0.1])) {
                Ok(Response::Ingest(r)) => r,
                other => panic!("{other:?}"),
            };
            assert_eq!(r.id, (n0 + i) as u64, "stable ids continue the seed numbering");
            assert_eq!(r.n, n0 + i + 1);
            assert_eq!(r.expired, 0, "no window, nothing expires");
            if r.published {
                published_at.push(i);
                assert_eq!(r.epoch, srv.epoch(), "published response names the new epoch");
            }
        }
        assert_eq!(published_at, vec![4, 9], "publish every 5 ingests");
        assert_eq!(srv.epoch(), 3, "two publishes on top of the fitted epoch 1");
        // The served snapshot is the streamed state, not a refit.
        let stats = match srv.handle(&Request::Stats) {
            Ok(Response::Stats(s)) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.algorithm, "Streaming-DPC");
        assert_eq!(stats.n, n0 + 10, "the published epoch holds the first 10 ingests");
    }

    #[test]
    fn ingest_window_expires_the_seeded_points_first() {
        // Window capacity below the seed size: the first batch expiry evicts
        // seeded points (the oldest stable ids) before any client ingest.
        let srv = server().with_streaming(DpcParams::new(4.0), Some((160, 30)), 1000).unwrap();
        let mut total_expired = 0usize;
        for i in 0..80 {
            let r = match srv.handle(&Request::Ingest(vec![30.0 + 0.2 * i as f64, 30.0])) {
                Ok(Response::Ingest(r)) => r,
                other => panic!("{other:?}"),
            };
            assert!(r.n <= 160 + 30, "window overshoot is bounded by one batch");
            total_expired += r.expired;
        }
        assert!(total_expired > 0, "a capped window under load must expire");
        assert_eq!(srv.epoch(), 1, "publish_every not reached: no epoch installed");
    }

    #[test]
    fn an_ingest_panic_is_isolated_and_the_window_recovers() {
        let faults =
            FaultInjector::shared(FaultPlan::new(3).with_rate(FaultPoint::IngestPanic, 1.0));
        let srv = server()
            .with_streaming(DpcParams::new(4.0), None, 3)
            .unwrap()
            .with_faults(Arc::clone(&faults));
        let n0 = srv.snapshot().n();
        let err = srv.handle(&Request::Ingest(vec![0.0, 0.0])).unwrap_err();
        assert_eq!(err, ServeError::HandlerPanic { payload: "injected ingest panic".into() });
        assert_eq!(srv.counters().panicked, 1);
        // The panic fired before any engine mutation, so after the storm the
        // stream continues from an unchanged, consistent window.
        faults.disarm();
        for i in 0..3 {
            let r = match srv.handle(&Request::Ingest(vec![0.5 * i as f64, -0.5])) {
                Ok(Response::Ingest(r)) => r,
                other => panic!("{other:?}"),
            };
            assert_eq!(r.n, n0 + i + 1, "the faulted ingest left no partial point behind");
        }
        assert_eq!(srv.epoch(), 2, "publishing works after lock-poison recovery");
    }

    #[test]
    fn batch_items_fail_alone() {
        let srv = server();
        let requests = vec![
            Request::Stats,
            Request::Assign(vec![1.0]), // wrong dim
            Request::Relabel(Thresholds { rho_min: f64::NAN, delta_min: 1.0 }), // corrupted
            Request::Assign(vec![0.2, -0.3]),
        ];
        let responses = srv.handle_batch(&requests, &Executor::new(4));
        assert!(responses[0].is_ok());
        assert!(matches!(responses[1], Err(ServeError::Dpc(DpcError::DimensionMismatch { .. }))));
        assert!(matches!(responses[2], Err(ServeError::Dpc(DpcError::InvalidThresholds { .. }))));
        assert!(responses[3].is_ok());
    }
}
