//! Host speed. The virtual machines the baselines come from share their
//! physical cores with other machines, and their speed changes by up to
//! 2× for seconds to minutes at a time: one recording of the same 64-core
//! TightLoop run read 6.3 ms for several seconds, then 10.6 ms, then
//! 12 ms. Thread CPU time matched wall time throughout and steal time
//! stayed near zero, so the guest cannot see the slowdown; it can only
//! measure it. So every timed op runs a fixed reference kernel, which
//! sorts a pseudo-random vector, just before it, and its host times are
//! reported at the kernel's nominal speed.
//!
//! The simulator slows down more than the kernel does. In three
//! recordings (4 to 7 minutes each) that alternated four grid cases with
//! candidate kernels, cut into 24-second windows, the slope of log
//! simulator time against log kernel time was 0.94–1.61, mostly 1.1–1.27,
//! and the median of simulator time over kernel time to the power 1.25
//! had the smallest spread across windows: 1.3–4.5%, against 1.9–9.3% for
//! the plain ratio and 4–36% for the raw times. A larger sort, a bytecode
//! interpreter, a B-tree, a hash map and pointer chases over 128 KB to
//! 16 MB tracked the simulator no better (slopes 1.15–3.9). So the scale
//! factor is the kernel's speed to the power [`SENSITIVITY`].
//!
//! The kernel lives in the benchmark, so a change to the simulator does
//! not change it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in seconds, when the host runs at the speed the
/// reported times are scaled to: about its fastest on the 2-vCPU host
/// of the README's baselines.
pub const NOMINAL_S: f64 = 2.0e-3;

/// How much more the simulator slows down than the kernel, as the power
/// of the kernel's speed that scales a host time.
pub const SENSITIVITY: f64 = 1.25;

/// Elements the kernel sorts.
const ELEMENTS: usize = 100_000;

/// One run of the reference kernel.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    pub start: Instant,
    pub end: Instant,
}

impl Reference {
    /// Fills a vector with xorshift values and sorts it.
    pub fn run() -> Reference {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut v: Vec<u64> = (0..ELEMENTS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        black_box(&v);
        Reference {
            start,
            end: Instant::now(),
        }
    }

    /// The kernel's own time, in seconds.
    pub fn took(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }

    /// The factor that turns a host time measured now into the time at
    /// the nominal speed: above 1 when the host runs faster than
    /// nominal.
    pub fn speed(&self) -> f64 {
        (NOMINAL_S / self.took().max(1e-9)).powf(SENSITIVITY)
    }
}
