//! The host's current speed, from a fixed calibration kernel.
//!
//! On a shared host the same work runs up to ~1.6x slower while another
//! tenant contends for the core, in spells of seconds to minutes, and the
//! share of slow time changes from run to run, so a median over a run
//! moves with it. The kernel is timed next to the operations, and an
//! untraced run scales each latency by how much slower than nominal the
//! kernel ran at the time: the end-to-end times are those of a host
//! running at nominal speed.
//!
//! The kernel keeps eight independent streams of table lookups and
//! multiplies in flight, so, like the program, it is bound by the core's
//! issue width, which a contending tenant shares; a single dependent
//! chain slowed only ~1.25x while the program slowed ~1.5x. Its table
//! fits in the core's first-level cache, so it evicts little of the
//! program's data.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the lookup table (32 KiB).
const TABLE: usize = 1 << 12;
/// Steps of each stream in one kernel run.
const STEPS: usize = 1024;
/// How often the kernel is re-timed.
const EVERY: Duration = Duration::from_millis(10);
/// The kernel's time on an uncontended core of the machine the bounds
/// were set on (a 2-vCPU Xeon virtual machine), in ns.
const NOMINAL_NS: f64 = 5_000.0;

pub struct Speed {
    table: Vec<u64>,
    timed_at: Option<Instant>,
    kernel_ns: f64,
}

impl Speed {
    pub fn new() -> Speed {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let table = (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Speed {
            table,
            timed_at: None,
            kernel_ns: 0.0,
        }
    }

    /// One kernel run.
    fn run_kernel(&self) -> Duration {
        let start = Instant::now();
        let mut streams = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..STEPS {
            for s in streams.iter_mut() {
                let looked_up = self.table[(*s >> 52) as usize % TABLE];
                *s = (*s ^ looked_up)
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    .rotate_left(17);
            }
        }
        black_box(streams);
        start.elapsed()
    }

    /// What to multiply a latency measured now by to get the latency at
    /// nominal speed: below 1 while the host runs slow.
    pub fn factor(&mut self) -> f64 {
        NOMINAL_NS / self.kernel_ns()
    }

    /// `seconds` measured since `before` was read from [`Self::factor`],
    /// at nominal speed: scaled by the mean of that factor and the current
    /// one, since the host may have changed speed in between.
    pub fn scale(&mut self, before: f64, seconds: f64) -> f64 {
        seconds * (before + self.factor()) / 2.0
    }

    /// The kernel's current time in ns: the fastest of three runs, so an
    /// interrupt does not count. Re-timed at most every [`EVERY`].
    fn kernel_ns(&mut self) -> f64 {
        let stale = self.timed_at.is_none_or(|t| t.elapsed() >= EVERY);
        if stale {
            let best = (0..3).map(|_| self.run_kernel()).min().unwrap_or_default();
            self.kernel_ns = best.as_secs_f64() * 1e9;
            self.timed_at = Some(Instant::now());
        }
        self.kernel_ns
    }
}
