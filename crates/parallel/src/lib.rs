//! Multicore execution primitives for fast-dpc.
//!
//! The paper parallelises its algorithms in two ways and this crate provides
//! both, plus the measurement hooks the evaluation needs:
//!
//! * **Dynamic self-scheduling** ([`Executor::map_dynamic`]) — the equivalent
//!   of OpenMP's `#pragma omp parallel for schedule(dynamic)` used by Ex-DPC's
//!   local-density phase (§3): an idle worker repeatedly claims the next
//!   unprocessed item, so expensive items (dense regions) do not serialise
//!   behind a static split.
//! * **Cost-based partitioning** ([`lpt_partition`] + [`Executor::map_partitioned`])
//!   — Approx-DPC's two-phase approach (§4.5): estimate the cost of every task,
//!   then assign tasks to threads with Graham's 3/2-approximation greedy (LPT)
//!   so every thread receives almost the same total cost.
//! * **Fork-join** ([`Executor::join`]) — two independent closures run as a
//!   scoped task pair, which gives divide-and-conquer callers (the parallel
//!   packed kd-tree build in `dpc-index`) depth-limited nested parallelism
//!   without a work-stealing runtime.
//! * **Scoped fan-out** ([`Executor::fan_out`]) — a vector of owning `FnOnce`
//!   tasks run across the workers, each typically holding a disjoint `&mut`
//!   shard of one output buffer (the parallel CSR grid build and the
//!   grid-wide `batchq` queries in `dpc-index` write per-range slices
//!   this way).
//!
//! All primitives run inline when the executor has a single thread, so the
//! single-threaded numbers reported by the benchmark harness contain no
//! synchronisation overhead.

#![forbid(unsafe_code)]

pub mod executor;
pub mod partition;

pub use executor::Executor;
pub use partition::{lpt_partition, Partition};
