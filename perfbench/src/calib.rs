//! Host-speed calibration: a fixed piece of reference work, timed beside the
//! measured calls, so that timings are reported at one machine speed.
//!
//! On a shared host the same code runs up to ~2× slower for minutes at a
//! time (neighbours on the same cores, caches and memory bus), which moves
//! every wall-clock median of a run together and swamps any code change a
//! bound could catch. So each stage keeps a [`Gauge`]: on the threads that
//! make the measured calls, at regular intervals, it times the reference
//! work, and the stage reports every timing as `wall × scale` with
//! `scale = REFERENCE_SECS / r`, `r` the median reference time of the stage
//! (rates as `rate / scale`). A host that runs the reference 1.6× slower is
//! taken to run the program 1.6× slower too. On a host as fast as the
//! least loaded one the constants were taken on, `r ≈ REFERENCE_SECS` and
//! the reported values are wall time. The reference work calls nothing of
//! the program, so a change to the program moves only the measured side.
//!
//! The work mixes what the program does: a dependent pointer chase through
//! a table larger than a core's L2 (irregular tree and grid accesses), a
//! block of 2-d squared distances counted against a radius (the batch
//! kernels) and an in-order sum over an array larger than L2 (the linear
//! passes over ρ, δ and the data). Of these, a probe made of all three
//! followed the program's slowdowns best in trial runs.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dpc_rng::StdRng;

/// Entries of the pointer-chase table (4 MiB of `u32`).
const CHAIN: usize = 1 << 20;
/// Dependent loads per probe and thread.
const HOPS: usize = 30_000;
/// Points of the distance block; every pair is compared.
const BLOCK: usize = 1536;
/// Values of the summed array (16 MiB of `f64`), read twice per probe.
const STREAM: usize = 1 << 21;
/// Probe time of the reference speed, by thread count (1, 2): the
/// smallest stage median seen in trial runs on a 2-vCPU x86_64 (AVX2)
/// host. More threads than two use the two-thread constant.
const REFERENCE_SECS: [f64; 2] = [0.0113, 0.0123];
/// A running client probes at most this often.
pub const INTERVAL: Duration = Duration::from_millis(250);

struct Work {
    /// One cycle through every entry (Sattolo's algorithm).
    chain: Vec<u32>,
    /// `BLOCK` 2-d points, row-major.
    points: Vec<f64>,
    /// `STREAM` values summed in order.
    stream: Vec<f64>,
}

fn work() -> &'static Work {
    static WORK: OnceLock<Work> = OnceLock::new();
    WORK.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xCA11_B4A7);
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            let j = rng.gen_range(0..i);
            chain.swap(i, j);
        }
        let points = (0..2 * BLOCK).map(|_| rng.gen_f64()).collect();
        let stream = (0..STREAM).map(|_| rng.gen_f64()).collect();
        Work { chain, points, stream }
    })
}

/// Builds the reference tables, so that no measured region pays for it.
pub fn init() {
    work();
}

/// The reference work of one thread, started at chain entry `start`.
fn reference(start: usize) -> f64 {
    let w = work();
    let mut at = start as u32;
    for _ in 0..HOPS {
        at = w.chain[at as usize];
    }
    let p = &w.points;
    let mut within = 0u64;
    for i in 0..BLOCK {
        let (x, y) = (p[2 * i], p[2 * i + 1]);
        for j in 0..BLOCK {
            let (dx, dy) = (p[2 * j] - x, p[2 * j + 1] - y);
            within += u64::from(dx * dx + dy * dy <= 0.01);
        }
    }
    let mut sum = 0.0;
    for _ in 0..2 {
        sum += w.stream.iter().sum::<f64>();
    }
    f64::from(at) + within as f64 + sum
}

/// Seconds of the reference work run on `threads` threads at once: the
/// mean of each thread's own time. (The slowest thread's time, or the wall
/// time of the whole probe, also counts how late a spawned thread got a
/// CPU, and a single late thread doubled probes that the measured fits,
/// whose threads share their work out, hardly felt.)
fn probe(threads: usize) -> f64 {
    let timed = |start: usize| {
        let t = Instant::now();
        black_box(reference(black_box(start)));
        t.elapsed().as_secs_f64()
    };
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> =
            (1..threads).map(|t| s.spawn(move || timed(t * CHAIN / threads))).collect();
        let own = timed(0);
        own + others.into_iter().map(|h| h.join().expect("a probe thread panicked")).sum::<f64>()
    });
    total / threads as f64
}

/// The probe times of one stage (or one client) on `threads` threads.
#[derive(Clone, Debug)]
pub struct Gauge {
    threads: usize,
    times: Vec<f64>,
    next: Instant,
}

impl Gauge {
    /// A gauge with one probe taken.
    pub fn new(threads: usize) -> Self {
        let mut g = Self { threads: threads.max(1), times: Vec::new(), next: Instant::now() };
        g.probe();
        g
    }

    /// Times the reference work once.
    pub fn probe(&mut self) {
        self.times.push(probe(self.threads));
        self.next = Instant::now() + INTERVAL;
    }

    /// Probes if [`INTERVAL`] has passed since the last probe.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.probe();
        }
    }

    /// Adds `other`'s probes (taken on as many threads) to this gauge's.
    pub fn merge(&mut self, other: &Gauge) {
        debug_assert_eq!(self.threads, other.threads);
        self.times.extend_from_slice(&other.times);
    }

    /// Seconds spent probing (to take out of a client's wall time).
    pub fn spent(&self) -> f64 {
        self.times.iter().sum()
    }

    /// Probes taken.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    fn median(&self) -> f64 {
        let mut t = self.times.clone();
        t.sort_by(f64::total_cmp);
        t[(t.len() - 1) / 2]
    }

    /// `REFERENCE_SECS / median probe time`: multiply a wall time by it,
    /// divide a rate by it.
    pub fn scale(&self) -> f64 {
        REFERENCE_SECS[self.threads.min(2) - 1] / self.median()
    }

    /// Thread count, probe count, median probe time and scale, for the log.
    pub fn summary(&self) -> String {
        format!(
            "probes={}x{}t probe_ms={:.3} scale={:.4}",
            self.len(),
            self.threads,
            self.median() * 1e3,
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_one_cycle() {
        let w = work();
        let mut at = 0u32;
        for step in 1..=CHAIN {
            at = w.chain[at as usize];
            assert_eq!(at == 0, step == CHAIN, "cycle closes early at step {step}");
        }
    }

    #[test]
    fn gauge_scales_by_its_median() {
        let mut g = Gauge::new(1);
        g.times = vec![REFERENCE_SECS[0] * 2.0, REFERENCE_SECS[0] * 4.0, REFERENCE_SECS[0]];
        assert_eq!(g.scale(), 0.5);
        assert_eq!(g.len(), 3);
    }
}
