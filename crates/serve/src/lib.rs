//! `dpc-serve` — clustering-as-a-service over fitted DPC models.
//!
//! The paper's pipeline ends at a one-shot fit, but its §6.4 observation —
//! densities and dependent points depend only on `d_cut`, thresholds only
//! drive an `O(n)` relabel — is exactly what a long-lived serving process
//! wants: fit rarely, answer many. This crate supplies the serving shape on
//! top of `dpc-core`:
//!
//! * [`Snapshot`] — one immutable fitted epoch: dataset, [`DpcModel`],
//!   packed kd-tree over the same data, and the clustering cached for the
//!   epoch's default thresholds;
//! * [`ModelStore`] — the epoch swap: readers clone an `Arc<Snapshot>` (the
//!   internal mutex is held only for the pointer clone), writers fit outside
//!   the lock and install atomically; replaced epochs drain when their last
//!   reader drops them;
//! * [`DpcServer`] + [`Request`]/[`Response`] — the typed request API:
//!   `Relabel` (threshold sweep via `extract`), `Assign` (classify an
//!   incoming point without refitting — density by range count, nearest
//!   higher-density neighbour, dependency-chain walk to a label) and `Stats`;
//! * [`assign`] — the point-classification rules, documented and testable on
//!   their own.
//!
//! # Robustness
//!
//! A long-lived server also has to survive what a one-shot fit never sees:
//! panicking handlers, failing refits, slow requests, corrupted inputs,
//! overload. The serving path is hardened end to end —
//!
//! * [`ServeError`] + [`ServeConfig`] — per-request deadlines
//!   (`DeadlineExceeded`), admission-cap load shedding (`Overloaded`), and
//!   panic isolation (`HandlerPanic`) around every handler;
//! * [`ModelStore::refit_supervised`] + [`RefitPolicy`] — bounded retries
//!   with decorrelated-jitter backoff and an optional round deadline; an
//!   exhausted round keeps serving the last good epoch and flips
//!   [`Health`] to `Degraded` with exact failure counters, answered via
//!   [`Request::Health`];
//! * [`faults`] — a deterministic, seeded fault-injection subsystem
//!   ([`FaultPlan`]/[`FaultInjector`]/[`FaultyAlgorithm`]) so every chaos
//!   run that exercises the above is replayable from its printed seed.
//!
//! # Example
//!
//! ```
//! use dpc_core::{DpcParams, ExDpc, Thresholds};
//! use dpc_parallel::Executor;
//! use dpc_serve::{DpcServer, Request, Response};
//!
//! let data = dpc_data::generators::gaussian_blobs(&[(0.0, 0.0), (30.0, 30.0)], 50, 1.5, 7);
//! let executor = Executor::new(2);
//! let server = DpcServer::fit(
//!     &ExDpc::new(DpcParams::new(3.0)),
//!     data,
//!     Thresholds::new(1.0, 6.0).unwrap(),
//!     &executor,
//! )
//! .unwrap();
//!
//! // Threshold sweep: O(n) per request, no refit.
//! let Ok(Response::Relabel(r)) =
//!     server.handle(&Request::Relabel(Thresholds::new(1.0, 6.0).unwrap()))
//! else {
//!     unreachable!()
//! };
//! assert_eq!((r.epoch, r.num_clusters), (1, 2));
//!
//! // Classify a fresh point on the second blob's shoulder: it inherits the
//! // blob's label through its nearest higher-density neighbour.
//! let Ok(Response::Assign(a)) = server.handle(&Request::Assign(vec![27.0, 27.0])) else {
//!     unreachable!()
//! };
//! assert_eq!(a.epoch, 1);
//! assert_ne!(a.label, dpc_core::NOISE);
//! ```
//!
//! A background writer refits with [`ModelStore::refit`] (or
//! [`ModelStore::install`]) while readers keep calling
//! [`DpcServer::handle`]; every response names the single epoch it was
//! computed against.

#![forbid(unsafe_code)]

pub mod assign;
mod error;
pub mod faults;
mod health;
mod request;
mod server;
mod snapshot;
mod store;

pub use error::{Deadline, ServeError};
pub use faults::{FaultInjector, FaultPlan, FaultPoint, FaultyAlgorithm};
pub use health::{Health, RefitPolicy};
pub use request::{
    AssignResponse, HealthResponse, IngestResponse, RelabelResponse, Request, Response,
    StatsResponse,
};
pub use server::{DpcServer, ServeConfig, ServeCounters};
pub use snapshot::Snapshot;
pub use store::ModelStore;

// Re-exported so downstream code can name every type that appears in this
// crate's public signatures without adding direct dependencies.
pub use dpc_core::{Clustering, DpcAlgorithm, DpcError, DpcModel, Thresholds, Timings, NOISE};
pub use dpc_parallel::Executor;
