//! Host-speed normalisation.
//!
//! The benchmark's host is shared: a busy neighbour on the sibling
//! hyperthread can halve this core's speed for stretches of seconds to
//! minutes, and the speed also swings within a second. A sampler thread
//! on the same core (`run.sh` pins the process to one CPU) runs a fixed
//! dense-LU kernel of the benchmark's own every few milliseconds. The
//! ratio of the kernel's reference time to its measured time, averaged
//! over an interval, is how fast the core ran then; multiplying the
//! interval's seconds by it gives reference-host seconds. Dense LU is
//! what dominates the campaign's own solver time, so both slow down
//! alike under contention. The kernel never calls the program, so a
//! change to the program moves the normalised time and not the factor.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kernel matrix order.
const N: usize = 24;
/// Factor-and-solve passes per sample.
const PASSES: usize = 24;
/// Pause between samples.
const PERIOD: Duration = Duration::from_millis(8);

/// Nanoseconds one sample takes on the reference host (a 2.1 GHz Xeon
/// vCPU) when no neighbour contends for its core. Only ratios matter;
/// the constant fixes the unit at reference-host seconds.
pub const REFERENCE_NS: f64 = 110_000.0;

fn matrix() -> Vec<f64> {
    let mut a = vec![0.0; N * N];
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..N {
        for j in 0..N {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            a[i * N + j] = if i == j { v + N as f64 } else { v };
        }
    }
    a
}

/// One factor-and-solve pass with partial pivoting; returns x[0].
fn lu_solve(a: &mut [f64], b: &mut [f64]) -> f64 {
    for k in 0..N {
        let mut p = k;
        for i in k + 1..N {
            if a[i * N + k].abs() > a[p * N + k].abs() {
                p = i;
            }
        }
        if p != k {
            for j in 0..N {
                a.swap(k * N + j, p * N + j);
            }
            b.swap(k, p);
        }
        let pivot = a[k * N + k];
        for i in k + 1..N {
            let l = a[i * N + k] / pivot;
            a[i * N + k] = l;
            for j in k + 1..N {
                a[i * N + j] -= l * a[k * N + j];
            }
            b[i] -= l * b[k];
        }
    }
    for k in (0..N).rev() {
        let mut s = b[k];
        for j in k + 1..N {
            s -= a[k * N + j] * b[j];
        }
        b[k] = s / a[k * N + k];
    }
    b[0]
}

/// Nanoseconds of one kernel sample.
fn sample_ns(base: &[f64], a: &mut [f64], b: &mut [f64]) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0.0;
    for pass in 0..PASSES {
        a.copy_from_slice(black_box(base));
        for (i, bi) in b.iter_mut().enumerate() {
            *bi = (i + pass) as f64;
        }
        acc += lu_solve(a, b);
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// The background sampler. Dropping it stops and joins the thread.
pub struct Sampler {
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start() -> Sampler {
        let samples: Arc<Mutex<Vec<(Instant, f64)>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let base = matrix();
                let (mut a, mut b) = (base.clone(), vec![0.0; N]);
                while !stop.load(Ordering::Relaxed) {
                    let ns = sample_ns(&base, &mut a, &mut b);
                    samples
                        .lock()
                        .expect("sampler never panics holding the lock")
                        .push((Instant::now(), ns));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Sampler {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// Reference-host seconds per measured second over `from..to`: the
    /// mean of reference over measured sample time. An interval shorter
    /// than the sampling period takes the samples nearest to it; 1 when
    /// there are none.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("never poisoned");
        let mut pad = Duration::ZERO;
        while pad <= 4 * PERIOD {
            let (a, b) = (from.checked_sub(pad).unwrap_or(from), to + pad);
            // Samples are pushed in time order.
            let lo = samples.partition_point(|(t, _)| *t < a);
            let hi = samples.partition_point(|(t, _)| *t <= b);
            if hi > lo {
                let sum: f64 = samples[lo..hi]
                    .iter()
                    .map(|(_, ns)| REFERENCE_NS / ns)
                    .sum();
                return sum / (hi - lo) as f64;
            }
            pad += PERIOD;
        }
        1.0
    }

    /// Total reference-host seconds of `intervals`, each scaled by the
    /// host speed over it.
    pub fn seconds(&self, intervals: &[(Instant, Instant)]) -> f64 {
        intervals
            .iter()
            .map(|&(a, b)| b.duration_since(a).as_secs_f64() * self.factor(a, b))
            .sum()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
