//! Small helpers shared by the workloads: run parameters and results,
//! seeded instance generation, order statistics, CPU time and peak RSS,
//! and a Zipf sampler.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mstv_graph::{gen, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of every workload's instance: its graphs, and for `live` the
/// popularity of nodes and the mutation stream. Every run of a workload
/// measures the same instance; `--seed` draws what varies between runs —
/// link fault schedules, forgeries and query streams.
pub const INSTANCE_SEED: u64 = 2006;

/// Largest edge weight of every generated instance.
pub const MAX_WEIGHT: u64 = 1 << 16;

/// Metric name → value. Units live in the registry in `main.rs`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Instance size.
    pub nodes: usize,
    /// Seed of every input the run draws.
    pub seed: u64,
    /// Whole rounds of operations are started until this much time has
    /// passed.
    pub seconds: f64,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every check of the set-up and of the operations that did
    /// not fail held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (meaningful from an untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (meaningful from a traced run).
    pub layers: Metrics,
}

/// The CPU time of a workload's set-up, repeated `reps` times: the first
/// half before the timed phase (the last instance is the one measured),
/// the second half after the checks, so that a slow spell of a shared
/// host at one end of the run does not set the median. CPU time, like
/// the operations' `cpu_ms_per_op`, because the hypervisor stalls the
/// wall clock for whole seconds at a time and CPU time is not charged
/// while the vCPU waits.
pub struct Setups {
    reps: usize,
    secs: Vec<f64>,
}

impl Setups {
    /// Runs the first half of the repetitions (at least one) and
    /// returns the last instance.
    pub fn first<T>(reps: usize, setup: impl FnMut() -> T) -> (T, Setups) {
        let mut setups = Setups {
            reps,
            secs: Vec::with_capacity(reps),
        };
        let last = setups.run(reps.div_ceil(2).max(1), setup);
        release_free_memory();
        (last.expect("at least one repetition"), setups)
    }

    /// Runs the second half of the repetitions, dropping each instance,
    /// and returns the median CPU seconds of one set-up.
    pub fn finish<T>(mut self, setup: impl FnMut() -> T) -> f64 {
        self.run(self.reps / 2, setup);
        median(&self.secs)
    }

    fn run<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> Option<T> {
        let mut last = None;
        for _ in 0..reps {
            // The previous instance is freed before the next one is
            // built, so every repetition starts from the same heap.
            drop(last.take());
            release_free_memory();
            let cpu = cpu_seconds();
            last = Some(setup());
            self.secs.push(cpu_seconds() - cpu);
        }
        last
    }
}

/// Pins two glibc malloc parameters before any thread starts, so that
/// the process's peak resident set measures live data rather than the
/// allocator's history, which differs from run to run:
///
/// * at most two arenas: under the default (eight per core) which arena
///   a worker thread draws from varies, and memory freed into one arena
///   is not reused from another. The workspace's own memory experiment
///   (`exp_adversary`) caps arenas at two for the same reason;
/// * the mmap threshold fixed at 128 KiB, its initial value. By default
///   glibc raises it each time a large block is freed, after which large
///   buffers come from the heap, where growing one copies it. With the
///   default, `certify`'s peak read 175–210 MiB across runs of the same
///   work; with the threshold fixed, 135–140 MiB.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        unsafe extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only adjusts allocator parameters; it runs
        // before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 2);
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Hands the allocator's free pages back to the kernel (glibc's
/// `malloc_trim`), so that memory a set-up repetition freed, held in
/// whichever thread's arena allocated it, does not stack up under the
/// next repetition and move the process's peak from run to run.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        unsafe extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free memory to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The random connected graph every workload starts from: `n` nodes,
/// `2n` extra edges, weights uniform in `1..=MAX_WEIGHT`.
pub fn instance(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::random_connected(
        n,
        2 * n,
        gen::WeightDist::Uniform { max: MAX_WEIGHT },
        &mut rng,
    )
}

/// Derives an independent stream seed from the run seed and a label, so
/// the instance, the links and the query streams never share draws.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (which it sorts); 0 for
/// an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs`: the middle value, or the mean of the two middle
/// values of an even count; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// `<target dir>/<sub>`, created if needed: the benchmark writes its
/// snapshot files and traces next to its build, inside the checkout.
pub fn out_dir(sub: &str) -> std::io::Result<PathBuf> {
    let target =
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_owned());
    let dir = Path::new(&target).join(sub);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// CPU time the process has used so far (user plus system, all threads
/// including finished ones), in seconds, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`; 0 where that clock is not
/// available.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    unsafe extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the 64-bit
    // Linux ABI, and the clock id is a constant the kernel defines.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Wall-clock and CPU time of a run's timed work, whole and by round.
#[derive(Debug, Default)]
pub struct Timed {
    /// Operations completed in the timed regions.
    pub ops: u64,
    pub wall_s: f64,
    /// CPU milliseconds per operation of each finished round.
    rounds: Vec<f64>,
    /// Operations and CPU seconds of the round in progress.
    round: (u64, f64),
}

impl Timed {
    /// Runs `f` as a timed region that completes `ops` operations.
    pub fn time<R>(&mut self, ops: u64, f: impl FnOnce() -> R) -> R {
        let (t, cpu) = (Instant::now(), cpu_seconds());
        let r = f();
        let cpu = cpu_seconds() - cpu;
        self.wall_s += t.elapsed().as_secs_f64();
        self.ops += ops;
        self.round.0 += ops;
        self.round.1 += cpu;
        r
    }

    /// Ends the round in progress: the workload's unit of repeated work.
    pub fn end_round(&mut self) {
        let (ops, cpu) = std::mem::take(&mut self.round);
        if ops > 0 {
            self.rounds.push(cpu * 1e3 / ops as f64);
        }
    }

    /// The timing metrics every workload reports. `windows_ms` holds the
    /// latency of each window of the run (an operation, or the median of
    /// a window of requests), `all_ms` every operation's or request's
    /// latency.
    /// `cpu_ms_per_op` is the median over rounds, so that a slow spell
    /// of a shared host over part of the run does not set it.
    pub fn report(&mut self, windows_ms: &[f64], all_ms: &[f64], e: &mut Metrics, l: &mut Metrics) {
        self.end_round();
        e.insert("cpu_ms_per_op", median(&self.rounds));
        l.insert("run.ops_per_s", self.ops as f64 / self.wall_s);
        l.insert("run.latency_p50_ms", median(all_ms));
        l.insert(
            "run.latency_best_ms",
            windows_ms.iter().copied().fold(f64::INFINITY, f64::min),
        );
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where the kernel
/// does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Zipf(s = 1) over `0..n`, sampled by inverse CDF; rank `r` maps to a
/// fixed random node so the hot set is spread over the tree.
pub struct Zipf {
    cdf: Vec<f64>,
    node_of_rank: Vec<u32>,
}

impl Zipf {
    /// A sampler over `n` nodes with the rank → node shuffle drawn from
    /// `seed`.
    pub fn new(n: usize, seed: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut node_of_rank: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            node_of_rank.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, node_of_rank }
    }

    /// Draws one node.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let x: f64 = rng.gen();
        let r = self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1);
        self.node_of_rank[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_and_medians_are_midpoints() {
        let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut xs, 0.5), 3.0);
        assert_eq!(quantile(&mut xs, 0.99), 5.0);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_time_counts_work_at_nanosecond_resolution() {
        let t = cpu_seconds();
        let x: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        let dt = cpu_seconds() - t;
        assert!(x > 0 && dt > 0.0 && dt < 1.0, "{dt}");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let hot = z.node_of_rank[0];
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == hot).count();
        // P(rank 0) = 1 / H(1000) ≈ 0.134.
        assert!((1000..1700).contains(&hits), "{hits}");
    }
}
