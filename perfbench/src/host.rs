//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed drifts: the same seed
//! ran 1.7 times as slow twenty minutes later, with CPU time
//! tracking wall time, so the slowdown is contention for the cores' caches
//! and memory, not time taken away. No estimator over one run's samples
//! removes a slow spell that lasts the whole run. A fixed kernel, timed
//! between the timed units of the run, measures the host's speed at that
//! moment; the end-to-end times are scaled by it to what the reference
//! host takes. The kernel is the benchmark's own code, so no change to the
//! program moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::median;

/// Rows the kernel builds: small heap rows, grown by push, filled with
/// pseudo-random numbers and sorted. Of the kernels tried (integer
/// arithmetic, random reads over 32 MB, this one), only this one slowed
/// with the simulator when the host did.
const ROWS: u64 = 2000;
const ROW_LEN: u64 = 64;

/// The kernel's time on the reference host, a shared 2-core x86-64 at its
/// fastest observed state, seconds. Scaled times read as seconds on that
/// host; the constant only sets the scale.
pub const REFERENCE_S: f64 = 0.0034;

/// Times one run of the kernel, seconds.
pub fn sample() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for j in 0..ROWS {
        let mut row = Vec::new();
        for k in 0..ROW_LEN {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(j * ROW_LEN + k + 1);
            row.push((x >> 11) as f64);
        }
        row.sort_by(f64::total_cmp);
        rows.push(row);
    }
    black_box(rows);
    start.elapsed().as_secs_f64()
}

/// `raw_s`, measured while the kernel took `samples`, scaled to the
/// reference host by their median. `None` without samples.
pub fn scale(raw_s: f64, samples: &[f64]) -> Option<f64> {
    median(samples)
        .filter(|m| *m > 0.0)
        .map(|m| raw_s * REFERENCE_S / m)
}

#[cfg(test)]
mod tests {
    use super::scale;

    #[test]
    fn scales_by_the_kernel_time() {
        let r = super::REFERENCE_S;
        // Half speed, with one sample hit by a slow spell.
        let half_speed = [2.0 * r, 2.0 * r, 9.0 * r];
        assert!((scale(10.0, &half_speed).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(scale(10.0, &[]), None);
    }
}
