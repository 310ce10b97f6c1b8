//! A lightweight scoped-thread executor.
//!
//! Each clustering run issues a handful of parallel regions over borrowed data,
//! so the executor spawns scoped worker threads per region instead of keeping a
//! long-lived pool: there is no `'static` requirement on closures, no channel
//! plumbing, and the single-threaded configuration runs completely inline.
//!
//! # Panic semantics
//!
//! Every primitive has the same contract: **a panic inside a task is resumed
//! exactly once on the calling thread with its original payload** (message and
//! location preserved), after all sibling workers of the region have been
//! joined — never a hang, never a silent abort, never a secondhand
//! `"worker thread panicked"` message that loses the payload. When several
//! workers panic in one region, the first observed (in spawn order) wins and
//! the other payloads are dropped. On a single-threaded executor the closure
//! runs inline, so its panic propagates natively — the two configurations are
//! indistinguishable to a caller. Callers that must not unwind (servers,
//! batch handlers) wrap the *call* in [`std::panic::catch_unwind`] and get
//! every worker panic funnelled to that one bracket.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::partition::{lpt_partition, Partition};

/// Target number of chunks each worker claims (on average) under dynamic
/// scheduling; see [`dynamic_chunk`].
const DYNAMIC_CHUNKS_PER_WORKER: usize = 64;

/// How many items a worker claims per fetch in dynamic scheduling.
///
/// The paper uses OpenMP's `schedule(dynamic)` (chunk 1) for its load
/// balancing: dense-region points whose range queries are expensive do not
/// serialise behind a static split. A chunk of 1, however, pays one atomic
/// RMW on a contended cache line *per item*, which dominates when items are
/// cheap. `max(1, n / (threads × 64))` keeps the same load-balancing regime —
/// every worker still claims ~64 chunks, so the makespan overshoot is bounded
/// by one chunk (≈ 1.6% of a worker's share) even under adversarial skew —
/// while cutting the atomic traffic from `n` to `threads × 64` operations.
/// Small inputs degenerate to chunk 1, i.e. exactly the paper's behaviour.
fn dynamic_chunk(n: usize, workers: usize) -> usize {
    (n / (workers * DYNAMIC_CHUNKS_PER_WORKER)).max(1)
}

/// A parallel executor with a fixed number of worker threads.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// An executor using all available hardware parallelism.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }
}

impl Executor {
    /// Creates an executor with `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A single-threaded executor; every primitive runs inline.
    pub fn single() -> Self {
        Self { threads: 1 }
    }

    /// The configured number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs two independent closures, potentially in parallel, and returns
    /// both results (a fork-join / scoped-task primitive).
    ///
    /// The second closure is forked onto a scoped worker thread while the
    /// first runs on the calling thread, so a divide-and-conquer caller that
    /// splits its work in half at every fork saturates `t` workers after
    /// `⌈log₂ t⌉` recursion levels. On a single-threaded executor both
    /// closures run inline, in order, with no spawn and no synchronisation.
    ///
    /// The executor does not track outstanding forks: callers bound the
    /// parallelism by bounding their fork depth (fan out the top
    /// `⌈log₂ threads⌉` levels of the recursion, run everything below them
    /// inline). The packed kd-tree build in `dpc-index` is the canonical
    /// user.
    ///
    /// # Panics
    /// A panic in either closure is resumed on the calling thread with its
    /// original payload after the forked side has been joined (see the module
    /// docs for the region-wide contract). If both closures panic, `a`'s
    /// payload unwinds and `b`'s is dropped.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        if self.threads == 1 {
            let ra = a();
            let rb = b();
            (ra, rb)
        } else {
            std::thread::scope(|scope| {
                let right = scope.spawn(b);
                let left = a();
                match right.join() {
                    Ok(rb) => (left, rb),
                    // Re-raise the original payload so the panic message and
                    // location survive the thread boundary.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            })
        }
    }

    /// Runs every closure of `tasks` exactly once, fanning them out across the
    /// executor's workers (a scoped fan-out / sharded-reduce primitive: the
    /// caller pre-splits its output into disjoint `&mut` shards, moves one
    /// shard into each task, and every task writes only what it owns).
    ///
    /// Tasks are assigned to workers in contiguous runs (worker `w` takes
    /// tasks `w·⌈k/W⌉..`), so a caller that orders its tasks by expected cost
    /// gets a static block schedule; the per-task work must therefore be
    /// roughly balanced — which shard-sized decompositions are by
    /// construction. On a single-threaded executor every task runs inline, in
    /// index order, with no spawn and no synchronisation.
    ///
    /// # Panics
    /// The first panicking task's payload (in spawn order) is resumed on the
    /// calling thread after every worker has been joined; remaining tasks in
    /// the panicking worker's bucket are skipped, tasks on other workers run
    /// to completion.
    ///
    /// Unlike [`Executor::map_chunks`], which hands out index *ranges* to a
    /// shared `Fn`, this primitive takes owning `FnOnce` closures — the shape
    /// needed when each task must capture a different mutable borrow (the
    /// parallel CSR grid build in `dpc-index` scatters into per-cell-range
    /// slices this way).
    pub fn fan_out<F>(&self, mut tasks: Vec<F>)
    where
        F: FnOnce() + Send,
    {
        if self.threads == 1 || tasks.len() <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        let workers = self.threads.min(tasks.len());
        let run = tasks.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            while !tasks.is_empty() {
                let take = run.min(tasks.len());
                let bucket: Vec<F> = tasks.drain(..take).collect();
                handles.push(scope.spawn(move || {
                    for task in bucket {
                        task();
                    }
                }));
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Computes `f(i)` for every `i in 0..n` with dynamic self-scheduling and
    /// returns the results in index order.
    ///
    /// # Panics
    /// The first panicking worker's payload is resumed on the calling thread
    /// once the region has been joined (module docs); no partial result vector
    /// is ever observable.
    pub fn map_dynamic<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.threads == 1 || n == 1 {
            return (0..n).map(f).collect();
        }
        let counter = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let chunk = dynamic_chunk(n, workers);
        let mut partials: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let start = counter.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for i in start..end {
                                local.push((i, f(i)));
                            }
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                partials.push(join_or_resume(handle));
            }
        });
        scatter(n, partials)
    }

    /// Computes `f(i)` for every task `i`, assigning tasks to threads with the
    /// LPT greedy over the caller-provided cost estimates (cost-based
    /// partitioning, §4.5 of the paper). Returns results in index order together
    /// with the partition that was used, so callers can report load-balance
    /// statistics.
    ///
    /// # Panics
    /// The first panicking worker's payload (in spawn order) is resumed on the
    /// calling thread once the region has been joined (module docs).
    pub fn map_partitioned<R, F>(&self, costs: &[f64], f: F) -> (Vec<R>, Partition)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let n = costs.len();
        let partition = lpt_partition(costs, self.threads.min(n.max(1)));
        if n == 0 {
            return (Vec::new(), partition);
        }
        if self.threads == 1 || n == 1 {
            return ((0..n).map(f).collect(), partition);
        }
        let mut partials: Vec<Vec<(usize, R)>> = Vec::with_capacity(partition.groups.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = partition
                .groups
                .iter()
                .filter(|group| !group.is_empty())
                .map(|group| scope.spawn(|| group.iter().map(|&i| (i, f(i))).collect::<Vec<_>>()))
                .collect();
            for handle in handles {
                partials.push(join_or_resume(handle));
            }
        });
        (scatter(n, partials), partition)
    }

    /// Splits `0..n` into `threads` contiguous chunks and runs `f(chunk_range)`
    /// on each. Useful for reductions where every item costs roughly the same
    /// (sorting partitions, building per-subset kd-trees, ...).
    ///
    /// # Panics
    /// The first panicking worker's payload (in spawn order) is resumed on the
    /// calling thread once the region has been joined (module docs).
    pub fn map_chunks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        let chunk = n.div_ceil(workers);
        if workers == 1 {
            return vec![f(0..n)];
        }
        let mut out = Vec::with_capacity(workers);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let start = w * chunk;
                    let end = ((w + 1) * chunk).min(n);
                    scope.spawn(move || f(start..end))
                })
                .collect();
            for handle in handles {
                out.push(join_or_resume(handle));
            }
        });
        out
    }
}

/// Joins a scoped worker, resuming its panic payload on the calling thread —
/// the single point that implements the module-level panic contract.
fn join_or_resume<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Reassembles per-worker `(index, value)` buffers into index order.
fn scatter<R>(n: usize, partials: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for buf in partials {
        for (i, value) in buf {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("index {i} was never produced")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dynamic_chunk_is_adaptive_but_never_zero() {
        assert_eq!(dynamic_chunk(1, 1), 1);
        assert_eq!(dynamic_chunk(100, 4), 1); // small n degenerates to the paper's chunk 1
        assert_eq!(dynamic_chunk(1_000_000, 4), 1_000_000 / (4 * 64));
        // Every worker still sees ~DYNAMIC_CHUNKS_PER_WORKER claims.
        let n = 10_000_000;
        let workers = 8;
        let chunk = dynamic_chunk(n, workers);
        let claims = n.div_ceil(chunk);
        assert!(claims >= workers * (DYNAMIC_CHUNKS_PER_WORKER - 1));
    }

    #[test]
    fn threads_are_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(4).threads(), 4);
        assert_eq!(Executor::single().threads(), 1);
        assert!(Executor::default().threads() >= 1);
    }

    #[test]
    fn map_dynamic_preserves_index_order() {
        for threads in [1usize, 3, 8] {
            let ex = Executor::new(threads);
            let out = ex.map_dynamic(257, |i| i * i);
            assert_eq!(out.len(), 257);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i);
            }
        }
    }

    #[test]
    fn map_dynamic_empty() {
        let out: Vec<u32> = Executor::new(4).map_dynamic(0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn map_partitioned_matches_sequential_results() {
        let costs: Vec<f64> = (0..500).map(|i| ((i * 7) % 23) as f64 + 1.0).collect();
        for threads in [1usize, 2, 4] {
            let ex = Executor::new(threads);
            let (out, partition) = ex.map_partitioned(&costs, |i| i as u64 + 1);
            assert_eq!(out, (1..=500u64).collect::<Vec<_>>());
            assert!(partition.imbalance() >= 1.0);
            assert!(partition.bins() <= threads.max(1));
        }
    }

    #[test]
    fn map_partitioned_empty_tasks() {
        let ex = Executor::new(4);
        let (out, partition) = ex.map_partitioned(&[], |_| 0u8);
        assert!(out.is_empty());
        assert!((partition.total_load() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn map_chunks_covers_range_without_overlap() {
        for threads in [1usize, 3, 7] {
            let ex = Executor::new(threads);
            let ranges = ex.map_chunks(100, |r| r);
            let mut seen = [false; 100];
            for r in ranges {
                for i in r {
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn fan_out_runs_every_task_once() {
        for threads in [1usize, 2, 3, 8] {
            let ex = Executor::new(threads);
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            let tasks: Vec<_> = (0..37)
                .map(|i| {
                    let hits = &hits;
                    move || {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect();
            ex.fan_out(tasks);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "threads {threads}");
        }
    }

    #[test]
    fn fan_out_tasks_own_disjoint_mutable_shards() {
        // The intended use: pre-split one output buffer, move one shard into
        // each task, write in parallel, observe the whole buffer afterwards.
        for threads in [1usize, 2, 4] {
            let ex = Executor::new(threads);
            let mut out = vec![0usize; 100];
            {
                let mut tasks = Vec::new();
                let mut rest: &mut [usize] = &mut out;
                let mut base = 0usize;
                for len in [10usize, 25, 5, 60] {
                    let (mine, tail) = rest.split_at_mut(len);
                    rest = tail;
                    let start = base;
                    base += len;
                    tasks.push(move || {
                        for (k, slot) in mine.iter_mut().enumerate() {
                            *slot = start + k;
                        }
                    });
                }
                ex.fan_out(tasks);
            }
            assert!(out.iter().enumerate().all(|(i, &v)| v == i), "threads {threads}");
        }
    }

    #[test]
    fn fan_out_empty_and_single() {
        Executor::new(4).fan_out(Vec::<fn()>::new());
        let mut ran = false;
        Executor::new(4).fan_out(vec![|| ran = true]);
        assert!(ran);
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for threads in [1usize, 2, 8] {
            let ex = Executor::new(threads);
            let (a, b) = ex.join(|| 2 + 2, || "forked".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "forked");
        }
    }

    #[test]
    fn join_nests_like_a_fork_join_recursion() {
        // A depth-limited parallel sum: the shape the kd-tree build uses.
        fn sum(ex: &Executor, range: std::ops::Range<u64>, levels: usize) -> u64 {
            let span = range.end - range.start;
            if levels == 0 || span < 4 {
                return range.sum();
            }
            let mid = range.start + span / 2;
            let (a, b) = ex.join(
                || sum(ex, range.start..mid, levels - 1),
                || sum(ex, mid..range.end, levels - 1),
            );
            a + b
        }
        let want: u64 = (0..10_000).sum();
        for threads in [1usize, 2, 4, 8] {
            let ex = Executor::new(threads);
            for levels in [0usize, 1, 3] {
                assert_eq!(sum(&ex, 0..10_000, levels), want, "threads {threads}");
            }
        }
    }

    #[test]
    fn join_closures_can_borrow_mutably_and_disjointly() {
        let mut left = [0u32; 8];
        let mut right = [0u32; 8];
        let ex = Executor::new(4);
        ex.join(|| left.iter_mut().for_each(|v| *v = 1), || right.iter_mut().for_each(|v| *v = 2));
        assert!(left.iter().all(|&v| v == 1));
        assert!(right.iter().all(|&v| v == 2));
    }

    /// The module-level panic contract, exercised across every primitive at
    /// the ISSUE-mandated thread counts: the caller catches the *original*
    /// payload (message preserved), sibling workers are joined first, and the
    /// executor stays usable afterwards.
    #[test]
    fn worker_panics_resume_on_the_caller_with_their_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
            payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string payload>")
        }

        type Region<'a> = Box<dyn Fn() + 'a>;

        for threads in [1usize, 4] {
            let ex = Executor::new(threads);
            let regions: Vec<(&str, Region<'_>)> = vec![
                (
                    "join",
                    Box::new(|| {
                        let _ = ex.join(|| 1, || -> i32 { panic!("boom join") });
                    }),
                ),
                (
                    "fan_out",
                    Box::new(|| {
                        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                            .map(|i| -> Box<dyn FnOnce() + Send> {
                                if i == 5 {
                                    Box::new(|| panic!("boom fan_out"))
                                } else {
                                    Box::new(|| ())
                                }
                            })
                            .collect();
                        ex.fan_out(tasks);
                    }),
                ),
                (
                    "map_dynamic",
                    Box::new(|| {
                        drop(ex.map_dynamic(64, |i| {
                            if i == 13 {
                                panic!("boom map_dynamic")
                            }
                            i
                        }))
                    }),
                ),
                (
                    "map_partitioned",
                    Box::new(|| {
                        let costs = vec![1.0; 64];
                        drop(ex.map_partitioned(&costs, |i| {
                            if i == 13 {
                                panic!("boom map_partitioned")
                            }
                            i
                        }))
                    }),
                ),
                (
                    "map_chunks",
                    Box::new(|| {
                        drop(ex.map_chunks(64, |r| {
                            if r.contains(&13) {
                                panic!("boom map_chunks")
                            }
                            r.len()
                        }))
                    }),
                ),
            ];
            for (name, region) in regions {
                let payload = catch_unwind(AssertUnwindSafe(region))
                    .expect_err(&format!("{name} at threads {threads} must propagate the panic"));
                assert_eq!(
                    payload_str(payload.as_ref()),
                    format!("boom {name}"),
                    "threads {threads}"
                );
            }
            // The executor is a plain value; a panicked region must not wedge it.
            assert_eq!(ex.map_dynamic(8, |i| i).len(), 8);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work = |i: usize| -> f64 { (i as f64).sqrt() + (i % 17) as f64 };
        let sequential = Executor::single().map_dynamic(2048, work);
        for threads in [2usize, 4, 16] {
            assert_eq!(Executor::new(threads).map_dynamic(2048, work), sequential);
        }
    }
}
