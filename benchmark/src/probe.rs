//! The reference kernel: a fixed piece of work, timed again and again
//! between operations, that tells how fast the host is *right now*.
//!
//! On the sizing host the same binary runs up to 1.8x slower for tens of
//! seconds at a time with no steal reported at all (neighbours in the
//! shared cache, by the look of it). A kernel of string-keyed `BTreeMap`
//! look-ups slows down with the workloads (r = 0.92 against a cold LP
//! solve, exponent 1.1), where an ALU loop and pointer chases do not; see
//! the README's sizing findings. Timings are reported per unit of this
//! kernel's speed, which removes what the host did and keeps what the
//! program did.

use crate::procfs;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one reading is scaled to: timings are reported as on a host on
/// which the kernel takes this long (about a quiet sizing host).
pub const NOMINAL_NS: f64 = 12.5e6;

/// While a slice runs, a reading is taken about this often.
const PULSE_EVERY: Duration = Duration::from_millis(150);

const ENTRIES: usize = 4096;
const PASSES: usize = 20;

pub struct Probe {
    tree: BTreeMap<String, f64>,
    /// Look-up order: every key once per pass, scattered.
    order: Vec<String>,
    readings: Vec<f64>,
    last: Instant,
}

impl Probe {
    pub fn new() -> Probe {
        let name = |i: usize| format!("series-{i:05}");
        Probe {
            tree: (0..ENTRIES).map(|i| (name(i), i as f64)).collect(),
            // a multiplier coprime to the entry count visits every key
            order: (0..ENTRIES).map(|i| name(i * 2_654_435_761 % ENTRIES)).collect(),
            readings: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Time the kernel once and record the reading, in nanoseconds of
    /// this thread's CPU time (of the clock, where there is no such
    /// counter): stolen time is accounted for apart, by the harness.
    pub fn read(&mut self) {
        let t = Instant::now();
        let cpu = procfs::thread_cpu_ns();
        let mut acc = 0.0;
        for _ in 0..PASSES {
            for key in &self.order {
                acc += self.tree[key.as_str()];
            }
        }
        black_box(acc);
        let ran = cpu.zip(procfs::thread_cpu_ns()).map(|(a, b)| b.saturating_sub(a));
        self.readings.push(ran.map_or(t.elapsed().as_nanos() as f64, |ns| ns as f64));
        self.last = Instant::now();
    }

    /// Called between operations: take a reading if one is due.
    #[inline]
    pub fn pulse(&mut self) {
        if self.last.elapsed() >= PULSE_EVERY {
            self.read();
        }
    }

    /// The readings since the last call, which are then forgotten.
    pub fn drain(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.readings)
    }
}

/// Factor that turns a time measured while the kernel read `readings`
/// into the time on the nominal host: `NOMINAL_NS / median reading`.
pub fn to_nominal(readings: &[f64]) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    NOMINAL_NS / crate::stats::median(readings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_visits_every_key_and_readings_drain() {
        let mut p = Probe::new();
        let mut seen: Vec<&String> = p.order.iter().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), ENTRIES);
        p.read();
        p.read();
        let r = p.drain();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&ns| ns > 0.0));
        assert!(p.drain().is_empty());
    }

    #[test]
    fn a_slow_host_scales_times_down_and_a_fast_one_up() {
        assert_eq!(to_nominal(&[25e6, 25e6, 90e6]), 0.5);
        assert_eq!(to_nominal(&[6.25e6]), 2.0);
        assert_eq!(to_nominal(&[]), 1.0);
    }
}
