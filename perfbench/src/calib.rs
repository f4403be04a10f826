//! Host speed: a fixed reference workload timed between pieces of work,
//! so that runs made minutes apart on a shared host can be compared.
//!
//! On the shared host the benchmark was built on, a `figures-warm`
//! regeneration's wall swings by tens of percent within seconds and
//! drifts over minutes, while the single-threaded work it does stays the
//! same: other tenants' threads come and go on the physical core, and
//! code that keeps many independent operations in flight, as the entropy
//! analytics do, slows while they run. The reference is such code: eight
//! independent xorshift-multiply lanes in registers, touching no memory.
//! It is the benchmark's own code and never changes with the program, so
//! its time measures the host alone.
//!
//! `figures-warm` multiplies each regeneration's wall by the factor of the
//! sample taken right before it, [`NOMINAL_S`] over the reference's time;
//! it then reads as the seconds the work would have taken on a core that
//! ran the reference in `NOMINAL_S`. The sweeps, whose rounds are longer
//! and whose simulations slow less, use [`HostSpeed::run_factor`] raised
//! to a power below one. See `perfbench/README.md` for the measurements
//! behind both.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference kernel in one sample.
const STEPS: usize = 1 << 20;

/// About the reference kernel's time on an uncontended core of the host
/// named in `perfbench/README.md`: the unit walls are converted to.
pub const NOMINAL_S: f64 = 0.005;

/// The reference kernel: eight independent lanes, each a xorshift
/// followed by a 64-bit multiply.
fn kernel(steps: usize) -> u64 {
    let mut lanes = [0u64; 8];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = black_box(0x9e37_79b9_7f4a_7c15 + i as u64);
    }
    for _ in 0..steps {
        for lane in lanes.iter_mut() {
            *lane ^= *lane << 13;
            *lane ^= *lane >> 7;
            *lane = lane.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
    }
    lanes.iter().fold(0, |a, b| a ^ b)
}

/// The reference times of one run.
#[derive(Default)]
pub struct HostSpeed {
    times: Vec<f64>,
}

impl HostSpeed {
    /// Times the reference once on this thread and returns the factor
    /// that converts a wall measured right after it to nominal seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel(black_box(STEPS)));
        let time = t.elapsed().as_secs_f64();
        self.times.push(time);
        NOMINAL_S / time
    }

    /// `NOMINAL_S` over the mean of the run's reference times without
    /// their lowest and highest tenth: one factor for the whole run.
    pub fn run_factor(&self) -> f64 {
        NOMINAL_S / crate::stats::trimmed_mean(&self.times)
    }

    /// Number of samples and the median and range of their times.
    pub fn summary(&self) -> String {
        let (lo, hi) = self
            .times
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        format!(
            "{} reference samples, median {:.3} ms, range {:.3}-{:.3} ms, nominal {:.3} ms",
            self.times.len(),
            crate::stats::median(&self.times) * 1e3,
            lo * 1e3,
            hi * 1e3,
            NOMINAL_S * 1e3
        )
    }
}
