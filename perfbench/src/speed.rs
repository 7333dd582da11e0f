//! Host-speed adjustment of timings.
//!
//! The benchmark shares its host. For seconds at a time, what the
//! neighbours run slows this host's caches and memory, and the same
//! call then takes up to 1.6 times as long; a run's median call lands
//! wherever the host happened to be. Pure arithmetic does not slow, so
//! the contention is in the memory hierarchy, where the codecs spend
//! much of their time.
//!
//! So every timed workload also times a fixed [`Probe`]: a codec-shaped
//! pass (log mapping, prediction, quantization, histogram) over 4 MiB,
//! twice this host's L2, so each pass reads from the shared cache or
//! memory whatever ran before it. The host also takes whole cores away
//! at times, which slows a workload that keeps both cores busy but not
//! one that keeps one busy; so the probe runs on as many threads at
//! once as the workload keeps busy. Its code and input live here, where
//! no change to the program can alter them, and its loop uses no
//! instruction whose choice depends on the target CPU. The probe runs
//! between the workload's operations, never beside them, while the
//! program's threads are idle, so the program's own load does not
//! reach it. Each timing is then reported as it would read on a host
//! where one probe pass takes [`REFERENCE_NS`]: the raw time scaled by
//! `REFERENCE_NS` over the median probe reading taken near it. The raw
//! figures are printed beside the adjusted ones.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// The probe time the adjusted timings are expressed at: one pass, ns.
/// About what the probe takes on this benchmark's 2-core Xeon host when
/// the neighbours are quiet.
pub const REFERENCE_NS: f64 = 3.5e6;

/// Values the probe passes over: 4 MiB of `f32`.
const PROBE_VALUES: usize = 1 << 20;

/// A timing is adjusted by the median of the readings taken nearest it
/// in time: this many, or every reading in the span it covers if that
/// holds more.
const NEAREST: usize = 15;

/// The fixed probe and the readings it has taken.
pub struct Probe {
    /// One input and histogram per thread the probe runs on.
    lanes: Vec<(Vec<f32>, Vec<u32>)>,
    start: Instant,
    speed: Speed,
}

impl Probe {
    /// A probe that runs on `threads` threads at once, as many as the
    /// workload keeps busy, so that it slows as the workload does when
    /// the host takes a core away. Readings are timed from when it is
    /// made. Its input is the same on every run, whatever the seed.
    pub fn new(threads: usize) -> Self {
        let lanes = (0..threads.max(1) as u64)
            .map(|lane| {
                let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ lane;
                let values: Vec<f32> = (0..PROBE_VALUES)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        let u = (s >> 40) as f32 / (1u32 << 24) as f32;
                        (8.0 * (u - 0.5)).exp()
                    })
                    .collect();
                let mut bins = vec![0; 1 << 16];
                // A first pass faults the histogram's pages in.
                black_box(pass(&values, &mut bins));
                (values, bins)
            })
            .collect();
        Probe {
            lanes,
            start: Instant::now(),
            speed: Speed::default(),
        }
    }

    /// When the probe was made: reading times count from here.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Takes `n` readings. A reading is one pass on each thread at
    /// once; it takes the mean of their times.
    pub fn read(&mut self, n: usize) {
        for _ in 0..n {
            let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
            let total: f64 = std::thread::scope(|s| {
                let others: Vec<_> = rest.iter_mut().map(|l| s.spawn(|| timed_pass(l))).collect();
                timed_pass(first)
                    + others
                        .into_iter()
                        .map(|h| h.join().expect("probe thread"))
                        .sum::<f64>()
            });
            let at = self.start.elapsed().as_secs_f64();
            self.speed
                .readings
                .push((at, total / self.lanes.len() as f64));
        }
    }

    /// The readings taken so far.
    pub fn speed(&self) -> &Speed {
        &self.speed
    }

    /// The readings, once the probe is no longer needed.
    pub fn into_speed(self) -> Speed {
        self.speed
    }
}

/// One pass over a lane's input, ns.
fn timed_pass((values, bins): &mut (Vec<f32>, Vec<u32>)) -> f64 {
    let t0 = Instant::now();
    black_box(pass(black_box(values), bins));
    t0.elapsed().as_nanos() as f64
}

/// One probe pass: the log2 of each value from its bits, the difference
/// from its predecessor quantized to a 16-bit code, and a histogram of
/// the codes. Returns a checksum so the pass cannot be elided. The
/// histogram keeps the loop scalar, and truncation (not rounding) keeps
/// it to baseline x86-64 instructions, so the build's target flags do
/// not change it.
#[inline(never)]
fn pass(values: &[f32], bins: &mut [u32]) -> u64 {
    let (mut prev, mut sum) = (0f32, 0u64);
    for &v in values {
        let b = v.to_bits();
        let log2 = ((b >> 23) & 0xff) as f32 - 127.0 + (b & 0x7f_ffff) as f32 / 8_388_608.0;
        let code = (((log2 - prev) * 1442.7) as i32).clamp(-32767, 32767) + 32768;
        prev = log2;
        bins[code as usize] += 1;
        sum = sum.wrapping_add(code as u64);
    }
    sum
}

/// Probe readings of a run: when each was taken (s from the run's
/// start, in order) and how long it took (ns).
#[derive(Debug, Default)]
pub struct Speed {
    readings: Vec<(f64, f64)>,
}

impl Speed {
    /// The factor that adjusts a timing taken over `[t0, t1]` (s):
    /// [`REFERENCE_NS`] over the median reading in that span, or over
    /// the median of the [`NEAREST`] readings closest to its middle
    /// when fewer lie in it. Below 1 when the host ran slow.
    pub fn factor(&self, t0: f64, t1: f64) -> f64 {
        assert!(!self.readings.is_empty(), "no probe readings");
        let lo = self.readings.partition_point(|&(t, _)| t < t0);
        let hi = self.readings.partition_point(|&(t, _)| t <= t1);
        let near = if hi - lo >= NEAREST {
            &self.readings[lo..hi]
        } else {
            self.nearest((t0 + t1) / 2.0)
        };
        let ns: Vec<f64> = near.iter().map(|&(_, ns)| ns).collect();
        REFERENCE_NS / stats::median(&ns)
    }

    /// The [`NEAREST`] readings closest in time to `t`: a run of
    /// neighbours, since readings are in time order.
    fn nearest(&self, t: f64) -> &[(f64, f64)] {
        let r = &self.readings;
        let k = NEAREST.min(r.len());
        let mut lo = r.partition_point(|&(at, _)| at < t);
        let mut hi = lo;
        while hi - lo < k {
            if lo > 0 && (hi == r.len() || t - r[lo - 1].0 <= r[hi].0 - t) {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        &r[lo..hi]
    }

    /// The factor from the readings after the first `from`.
    pub fn factor_since(&self, from: usize) -> f64 {
        let ns: Vec<f64> = self.readings[from..].iter().map(|&(_, ns)| ns).collect();
        REFERENCE_NS / stats::median(&ns)
    }

    /// How many readings there are.
    pub fn count(&self) -> usize {
        self.readings.len()
    }

    /// The factor for a timing that ended at `t` (s).
    pub fn factor_at(&self, t: f64) -> f64 {
        self.factor(t, t)
    }

    /// Median reading, ns, and the number of readings.
    pub fn summary(&self) -> (f64, usize) {
        let ns: Vec<f64> = self.readings.iter().map(|&(_, ns)| ns).collect();
        (stats::median(&ns), ns.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(readings: &[(f64, f64)]) -> Speed {
        Speed {
            readings: readings.to_vec(),
        }
    }

    #[test]
    fn factor_is_the_reference_over_the_median_reading() {
        // Host at half speed from t = 10 s on.
        let r: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.1;
                (
                    t,
                    if t < 10.0 {
                        REFERENCE_NS
                    } else {
                        2.0 * REFERENCE_NS
                    },
                )
            })
            .collect();
        let s = speed(&r);
        assert_eq!(s.factor_at(3.0), 1.0);
        assert_eq!(s.factor_at(15.0), 0.5);
        // Half the run at each speed: the median reading is 1.5x.
        assert!((s.factor(0.0, 20.0) - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn factor_uses_the_nearest_readings() {
        // Readings 1 s apart: 1 ms for 10 s, then 4 ms, then 8 ms.
        let r: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64, [1.0e6, 4.0e6, 8.0e6][(i / 10).min(2)]))
            .collect();
        let s = speed(&r);
        // The 15 nearest to t = 10.4 run from 3 to 17: 7 at 1 ms, 8 at 4 ms.
        assert_eq!(s.nearest(10.4), &r[3..18]);
        assert_eq!(s.factor_at(10.4), REFERENCE_NS / 4.0e6);
        // At either end the run is cut by the edge, not shortened.
        assert_eq!(s.nearest(-5.0), &r[..15]);
        assert_eq!(s.nearest(99.0), &r[25..]);
        assert_eq!(s.factor_at(99.0), REFERENCE_NS / 8.0e6);
        let few = speed(&r[..3]);
        assert_eq!(few.nearest(1.0).len(), 3);
        assert_eq!(few.summary(), (1.0e6, 3));
    }

    #[test]
    fn probe_reads_in_order() {
        for threads in [1, 2] {
            let mut p = Probe::new(threads);
            p.read(2);
            let s = p.into_speed();
            assert_eq!(s.readings.len(), 2);
            assert!(s.readings[0].0 <= s.readings[1].0 && s.readings[1].1 > 0.0);
        }
    }
}
