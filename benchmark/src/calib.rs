//! Host-speed calibration.
//!
//! The benchmark's host is shared: its CPU throughput moves by tens of
//! percent over seconds to minutes, for every program alike. A fixed
//! kernel that depends on none of the repository's code — xorshift
//! random reads and writes over an 8 MiB table with data-dependent
//! branches — is timed between cells. On a shared 2-vCPU host its
//! speed tracked the simulator's over windows of a few seconds more
//! closely than L1- or L2-resident variants did. Its median time over the few
//! cells around a cell, against a fixed reference, gives the host's
//! speed while that cell ran, and the timing metrics are reported at the
//! reference speed.

use std::time::Instant;

use crate::stats::median;

/// Table size in words (8 MiB).
const TABLE_WORDS: usize = 1 << 20;
/// Table steps per calibration unit.
const UNIT_STEPS: u32 = 100_000;
/// Reference duration of one unit in ns: host time is scaled by
/// `REFERENCE_NS / measured` (so a host running the unit in exactly the
/// reference time reports raw times).
pub const REFERENCE_NS: f64 = 1_500_000.0;
/// Samples on each side of a cell that set its factor.
const WINDOW: usize = 4;

/// The calibration kernel's state and its samples.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    x: u64,
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator with its table allocated and touched.
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: (0..TABLE_WORDS as u64).collect(),
            x: 0x2545_f491_4f6c_dd1d,
            samples: Vec::new(),
        };
        c.unit();
        c
    }

    fn unit(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let mut x = self.x;
        let mut acc = 0u64;
        for _ in 0..UNIT_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            let v = self.table[i];
            self.table[i] = v.wrapping_add(x).rotate_left(5);
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v >> 3;
            }
        }
        self.x = x;
        acc
    }

    /// Times one unit and keeps the sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(self.unit());
        self.samples.push(t.elapsed().as_nanos() as f64);
    }

    /// The factor that scales host time to the reference speed, from
    /// the median of the samples since the last take (1 when there are
    /// none); clears them.
    pub fn take_scale(&mut self) -> f64 {
        let m = median(&self.samples);
        self.samples.clear();
        if m > 0.0 {
            REFERENCE_NS / m
        } else {
            1.0
        }
    }

    /// Per-sample factors from the samples since the last take, each
    /// from the median of the samples within `WINDOW` of it, so a
    /// change of host speed within a pass is tracked; clears them.
    pub fn take_scales(&mut self) -> Vec<f64> {
        let n = self.samples.len();
        let scales = (0..n)
            .map(|i| {
                let w = &self.samples[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(n)];
                REFERENCE_NS / median(w)
            })
            .collect();
        self.samples.clear();
        scales
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_scales_follow_a_speed_change() {
        let mut c = Calibrator {
            table: Vec::new(),
            x: 1,
            samples: vec![REFERENCE_NS; 10],
        };
        c.samples.extend(vec![2.0 * REFERENCE_NS; 10]);
        let k = c.take_scales();
        assert_eq!(k.len(), 20);
        assert_eq!(k[0], 1.0);
        assert_eq!(k[19], 0.5);
        assert!(c.samples.is_empty());
        assert_eq!(c.take_scale(), 1.0, "no samples, no scaling");
    }
}
