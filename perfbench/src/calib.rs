//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the CPU itself runs faster and slower in stretches of
//! seconds to minutes: a fixed single-threaded loop took 18 ms in one
//! stretch and 45 ms in the next, with no steal time, and the median
//! `cg_poisson` solve moved from 0.18 s to 0.23 s between runs of the same
//! code a few minutes apart. The end-to-end run therefore times a fixed
//! calibration kernel between its rounds, under the same conditions as the
//! ops, and reports times scaled to a nominal host speed: a wall time `t`
//! measured while the kernel took `c` seconds reads `t * NOMINAL_S / c`.
//!
//! The kernel is the benchmark's own code and calls nothing in the program,
//! so a change to the program moves the scaled times exactly as it moves
//! the wall times; only the host's drift is divided out. It has the two
//! parts the workloads spend their time in: a cache-resident stencil sweep
//! with a dot product and an axpy, like a small Krylov step, and a
//! wake-up round trip between two threads through a mutex and condition
//! variable, like a pool dispatch.

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Seconds one calibration sample took, as a median, on the 2-vCPU host
/// the benchmark was tuned on. Scaled times read as wall seconds on a host
/// running at that speed.
pub const NOMINAL_S: f64 = 0.007;

/// Vector length of the compute part: three vectors of 256 KiB.
const N: usize = 1 << 15;
/// Sweeps of the compute part.
const SWEEPS: usize = 60;
/// Timed wake-up round trips of the dispatch part, after a few untimed.
const ROUND_TRIPS: u64 = 300;
const WARM_TRIPS: u64 = 20;

/// One calibration sample: the seconds of the compute part plus the
/// seconds of the dispatch part.
pub fn sample() -> f64 {
    compute() + round_trips()
}

/// Scales wall seconds `t` measured while a calibration sample took
/// `cal` seconds to the nominal host speed.
pub fn at_nominal(t: f64, cal: f64) -> f64 {
    t * NOMINAL_S / cal
}

fn compute() -> f64 {
    let mut x = vec![1.0f64; N];
    let mut y = vec![0.0f64; N];
    let t0 = Instant::now();
    let mut acc = 0.0;
    for sweep in 0..SWEEPS {
        let shift = 1e-3 * sweep as f64;
        for i in 1..N - 1 {
            y[i] = 2.0 * x[i] - x[i - 1] - x[i + 1] + shift;
        }
        acc += x.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>();
        for (a, b) in x.iter_mut().zip(&y) {
            *a += 1e-6 * b;
        }
        black_box(&mut x);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Times `ROUND_TRIPS` hand-offs of a counter between this thread and a
/// partner thread, which is joined before returning. An odd count is the
/// partner's turn.
fn round_trips() -> f64 {
    let turn = Arc::new((Mutex::new(0u64), Condvar::new()));
    let last = 2 * (WARM_TRIPS + ROUND_TRIPS);
    let partner = {
        let turn = Arc::clone(&turn);
        std::thread::spawn(move || {
            let (count, cv) = &*turn;
            let mut n = count.lock().unwrap_or_else(|e| e.into_inner());
            while *n < last {
                if *n % 2 == 1 {
                    *n += 1;
                    cv.notify_one();
                } else {
                    n = cv.wait(n).unwrap_or_else(|e| e.into_inner());
                }
            }
        })
    };
    let (count, cv) = &*turn;
    let mut n = count.lock().unwrap_or_else(|e| e.into_inner());
    let mut t0 = Instant::now();
    while *n < last {
        if *n == 2 * WARM_TRIPS {
            t0 = Instant::now();
        }
        if *n % 2 == 0 {
            *n += 1;
            cv.notify_one();
        }
        n = cv.wait(n).unwrap_or_else(|e| e.into_inner());
    }
    drop(n);
    let s = t0.elapsed().as_secs_f64();
    let _ = partner.join();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_takes_time_and_joins_its_partner() {
        let s = sample();
        assert!(s > 0.0 && s < 10.0, "{s}");
    }

    #[test]
    fn scaling_divides_out_the_host_speed() {
        assert_eq!(at_nominal(0.2, NOMINAL_S), 0.2);
        // Twice as slow a host: the calibration and the op both double.
        assert!((at_nominal(0.4, 2.0 * NOMINAL_S) - 0.2).abs() < 1e-15);
    }
}
