//! Clocks, CPU accounting, CPU pinning and percentiles shared by the
//! workloads.

use std::time::{Duration, Instant};

// The `getrusage` and CPU-set bindings below spell out the 64-bit Linux layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage with the 64-bit Linux struct layout");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide resource usage (every thread, the in-process server's too).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in KiB.
    pub max_rss_kib: i64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut raw = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        ru_rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    Usage {
        cpu: tv(&raw.ru_utime) + tv(&raw.ru_stime),
        max_rss_kib: raw.ru_maxrss,
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// highest-numbered CPU it may run on, and returns that CPU.  Hand-offs
/// between the benchmark's threads then never wait for another virtual CPU
/// to be woken.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable CPU set of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_owned());
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the process may run on no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live CPU set of `size` bytes naming an allowed CPU.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("cannot pin to CPU {cpu}"));
    }
    Ok(cpu)
}

/// Per-op wall-clock latencies of one timed phase, plus the wall and process
/// CPU time (every thread, so the in-process server's work counts) of each
/// timed chunk.  Only the chunks run through [`Phase::timed`] count, so input
/// generation and answer checking between chunks stay outside the
/// measurement.
#[derive(Debug, Default)]
pub struct Phase {
    samples: Samples,
    /// Ops, wall time and process CPU time of each timed chunk, in order.
    chunks: Vec<(usize, Duration, Duration)>,
}

/// Per-op wall latencies in nanoseconds, in op order.
#[derive(Debug, Default)]
pub struct Samples {
    pub wall_ns: Vec<u64>,
}

impl Samples {
    /// Times one op, from its start to its answer.
    pub fn op<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = op();
        self.wall_ns.push(start.elapsed().as_nanos() as u64);
        out
    }
}

/// A run of consecutive timed chunks.
#[derive(Debug)]
pub struct Block<'a> {
    pub wall_ns: &'a [u64],
    /// Wall time of the block's chunks.
    pub busy: Duration,
    /// Process CPU time of the block's chunks.
    pub cpu: Duration,
}

impl Block<'_> {
    pub fn ops(&self) -> usize {
        self.wall_ns.len()
    }
}

impl Phase {
    /// Runs one timed chunk; `f` times each op with [`Samples::op`].
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Samples) -> R) -> R {
        let ops = self.ops();
        let cpu0 = usage().cpu;
        let t0 = Instant::now();
        let out = f(&mut self.samples);
        let busy = t0.elapsed();
        let cpu = usage().cpu.saturating_sub(cpu0);
        self.chunks.push((self.ops() - ops, busy, cpu));
        out
    }

    /// Ops measured.
    pub fn ops(&self) -> usize {
        self.samples.wall_ns.len()
    }

    /// Wall latency percentile over the whole phase, in milliseconds.
    pub fn wall_percentile_ms(&self, q: f64) -> f64 {
        percentile_ms(&self.samples.wall_ns, q)
    }

    /// Mean wall latency in milliseconds.
    pub fn mean_wall_ms(&self) -> f64 {
        self.samples.wall_ns.iter().sum::<u64>() as f64 / self.ops().max(1) as f64 / 1e6
    }

    /// Splits the phase into as many blocks of consecutive chunks as it
    /// has `min_ops` ops, each holding about the same number of ops (at
    /// least `min_ops`); a short tail joins the last block.
    pub fn blocks(&self, min_ops: usize) -> Vec<Block<'_>> {
        let size = self.ops() / (self.ops() / min_ops).max(1);
        let block = |start: usize, end: usize, busy, cpu| Block {
            wall_ns: &self.samples.wall_ns[start..end],
            busy,
            cpu,
        };
        let mut blocks: Vec<Block<'_>> = Vec::new();
        let (mut start, mut end) = (0, 0);
        let (mut busy, mut cpu) = (Duration::ZERO, Duration::ZERO);
        for &(ops, chunk_busy, chunk_cpu) in &self.chunks {
            end += ops;
            busy += chunk_busy;
            cpu += chunk_cpu;
            if end - start >= size {
                blocks.push(block(start, end, busy, cpu));
                (start, busy, cpu) = (end, Duration::ZERO, Duration::ZERO);
            }
        }
        if end > start {
            if let Some(last) = blocks.pop() {
                let first = start - last.ops();
                blocks.push(block(first, end, last.busy + busy, last.cpu + cpu));
            }
        }
        blocks
    }
}

/// Nearest-rank latency percentile in milliseconds.
pub fn percentile_ms(lat_ns: &[u64], q: f64) -> f64 {
    assert!(!lat_ns.is_empty(), "percentile of no samples");
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e6
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Seed mixer (SplitMix64): derives independent input seeds from the
/// benchmark seed, so one `--seed` fixes every generated input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
