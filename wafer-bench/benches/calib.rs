//! Host-speed calibration: a fixed kernel, sampled between the measured
//! pieces of a run, by which the run's times are scaled to a reference
//! host speed.
//!
//! A shared host's speed swings with its neighbours' load: on a 2-core
//! host the same simulator code ran up to 2x slower from one second to the
//! next, and a whole 15 s run's times moved by up to 45% from one minute
//! to another. The
//! kernel does what the simulator's hot paths do, over a working set of a
//! few MiB like theirs: hash-map and B-tree updates, a binary heap, and
//! churn of small allocations. It slows down with the simulator, so the
//! ratio of the two holds where each alone drifts. The kernel uses the
//! standard library only, so no change to the simulator changes it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Mean kernel time, in seconds, at the reference host speed: about the
/// kernel's time on the 2-core host the benchmark was written on, when its
/// neighbours were quiet. A run whose kernel takes twice this has its
/// times halved.
pub const REFERENCE_KERNEL_S: f64 = 0.05;

/// A sample is taken at most this often.
const INTERVAL_S: f64 = 0.3;

/// Samples a calibrator takes at least, at the end if need be.
const MIN_SAMPLES: usize = 5;

/// Samples one look at the clock takes at most, after a long stretch.
const MAX_BURST: usize = 8;

/// Kernel samples of one stretch of a run, each weighted by the share of
/// the stretch it stands for. A calibrator that is off takes none and
/// reads no clock.
#[derive(Debug)]
pub struct Calibrator {
    on: bool,
    last: Instant,
    /// (kernel seconds, weight in seconds of the stretch).
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    /// A calibrator whose stretch of the run starts now.
    pub fn new(on: bool) -> Calibrator {
        Calibrator { on, last: Instant::now(), samples: Vec::new() }
    }

    /// Samples the kernel if `INTERVAL_S` has passed since the last sample:
    /// once per interval passed, up to `MAX_BURST`, each sample standing for
    /// an equal share of the time since the last. The caller measures in
    /// pieces of its own size (a figure point, 1 024 serve steps or a
    /// set-up batch), and one piece may be many intervals long. Returns the
    /// nanoseconds taken, which the caller leaves out of its own timing.
    pub fn tick(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let since_s = self.last.elapsed().as_secs_f64();
        if since_s < INTERVAL_S {
            return 0;
        }
        let n = ((since_s / INTERVAL_S) as usize).min(MAX_BURST);
        self.sample(n, since_s)
    }

    /// Takes `n` samples now, standing for `stretch_s` seconds in all;
    /// returns the nanoseconds taken.
    fn sample(&mut self, n: usize, stretch_s: f64) -> u64 {
        let t = Instant::now();
        for _ in 0..n {
            let t_kernel = Instant::now();
            for part in [hash_map, btree, heap, small_allocs] {
                black_box(part(black_box(0x9e37_79b9_7f4a_7c15)));
            }
            self.samples.push((t_kernel.elapsed().as_secs_f64(), stretch_s / n as f64));
        }
        self.last = Instant::now();
        t.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The factor that scales the mean of times measured while the
    /// calibrator sampled to the reference host speed. Means, not medians:
    /// the samples are spread over the stretch by the time they stand for,
    /// so their weighted mean and the mean of the times measured in the
    /// stretch average the same host speeds.
    pub fn scale(&mut self) -> f64 {
        if self.len() < MIN_SAMPLES {
            let since_s = self.last.elapsed().as_secs_f64();
            self.sample(MIN_SAMPLES - self.len(), since_s.max(1e-9));
        }
        REFERENCE_KERNEL_S / self.kernel_s()
    }

    /// The weighted mean kernel time.
    pub fn kernel_s(&self) -> f64 {
        let (sum, weight) = self.samples.iter().fold((0.0, 0.0), |(s, w), &(k, kw)| (s + k * kw, w + kw));
        sum / weight
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Random updates of a map over 200 000 keys, then a sort of its values.
fn hash_map(mut x: u64) -> u64 {
    let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(200_000, Default::default());
    let mut acc = 0u64;
    for k in 0..300_000u64 {
        let e = m.entry(xorshift(&mut x) % 200_000).or_insert(k);
        *e = e.wrapping_add(k);
        acc = acc.wrapping_add(*e);
    }
    let mut values: Vec<u64> = m.into_values().collect();
    values.sort_unstable();
    acc.wrapping_add(values[values.len() / 2])
}

/// Random float updates of a B-tree over 100 000 keys, then a range sum.
fn btree(mut x: u64) -> u64 {
    let mut m: BTreeMap<u64, f64> = BTreeMap::new();
    for k in 0..75_000u64 {
        *m.entry(xorshift(&mut x) % 100_000).or_insert(0.0) += k as f64 * 0.5;
    }
    m.range(1_000..50_000).map(|(_, v)| *v).sum::<f64>() as u64
}

/// A binary heap held at 50 000 entries under random pushes.
fn heap(mut x: u64) -> u64 {
    let mut h = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        h.push((xorshift(&mut x) % 1_000_000, i));
        if h.len() > 50_000 {
            acc = acc.wrapping_add(h.pop().map_or(0, |(v, _)| v));
        }
    }
    acc
}

/// Churn of up to 4 096 live vectors of 1 to 48 words.
fn small_allocs(mut x: u64) -> u64 {
    let mut live: Vec<Vec<u64>> = Vec::new();
    for i in 0..60_000u64 {
        let n = xorshift(&mut x) % 48 + 1;
        live.push((0..n).map(|j| i ^ j).collect());
        if live.len() > 4_096 {
            let k = (xorshift(&mut x) % live.len() as u64) as usize;
            live.swap_remove(k);
        }
    }
    live.iter().map(|v| v[0]).fold(0, u64::wrapping_add)
}
