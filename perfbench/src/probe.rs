//! Host-speed probe: scales the end-to-end times to one reference host
//! speed.
//!
//! The benchmark runs on a shared host whose speed changes with what
//! other tenants run: by about ±15% from one iteration to the next,
//! and by up to a third between stretches of several minutes. Process
//! CPU time slows down with it, so it is contention for the cores'
//! shared resources, not time spent descheduled. A median over one
//! run cannot average out the slow stretches, so two runs of the same
//! code, minutes apart, differ by more than any useful bound.
//!
//! [`time`] times a fixed job written in this file alone, on as many
//! threads as the workload runs workers, right before and right after
//! each timed iteration. It runs the job several times and takes the
//! median, more times for longer iterations ([`reps_for`]), so that a
//! probe costs about [`SHARE`] of the iteration it scales. The job
//! builds and searches an ordered map of small heap buffers, the kind
//! of allocation and pointer-chasing work the simulator does. It calls
//! nothing in doqlab, so no change to the program can make it faster or
//! slower. [`Speed`] turns the two probes around an iteration into a
//! factor: how much longer the job took than [`REFERENCE_S`]. Every
//! end-to-end time is divided by that factor, so it reads as the time
//! on a host that runs the job in exactly [`REFERENCE_S`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The job's time on the reference host: about its fastest time on the
/// 2-vCPU Xeon virtual machine the recorded runs used.
pub const REFERENCE_S: f64 = 0.010;

/// The share of an iteration's time that one probe takes.
pub const SHARE: f64 = 0.03;

/// Keys inserted, and lookups made, by one thread's job.
const INSERTS: u64 = 20_000;
const LOOKUPS: u64 = 60_000;
const KEY_SPACE: u64 = 50_000;

/// One thread's job. The key stream is a fixed xorshift sequence, so
/// every call does the same work.
fn job(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for i in 0..INSERTS {
        let k = next();
        map.insert(k % KEY_SPACE, vec![i as u8; (k % 64) as usize]);
    }
    let mut sum = 0u64;
    for _ in 0..LOOKUPS {
        if let Some(v) = map.get(&(next() % KEY_SPACE)) {
            sum = sum.wrapping_add(v.len() as u64);
        }
    }
    sum
}

/// How many times to run the job per probe around iterations that
/// take `iteration_s` each: [`SHARE`] of the iteration, 1 to 9 times.
pub fn reps_for(iteration_s: f64) -> usize {
    (SHARE * iteration_s / REFERENCE_S).ceil().clamp(1.0, 9.0) as usize
}

/// Median over `reps` runs of the seconds the job takes on `threads`
/// threads at once.
pub fn time(threads: usize, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                let jobs: Vec<_> = (0..threads as u64)
                    .map(|i| s.spawn(move || black_box(job(black_box(i + 7)))))
                    .collect();
                for j in jobs {
                    j.join().expect("probe job panicked");
                }
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::median(&mut times)
}

/// The host's slowdown over an interval, against the reference host,
/// from the probes taken right before and right after it.
#[derive(Debug, Clone, Copy)]
pub struct Speed(f64);

impl Speed {
    pub fn around(before_s: f64, after_s: f64) -> Speed {
        Speed((before_s + after_s) / 2.0 / REFERENCE_S)
    }

    /// A time taken in the interval, as the reference host would take it.
    pub fn seconds(self, measured_s: f64) -> f64 {
        measured_s / self.0
    }

    /// A rate taken in the interval, as the reference host would reach it.
    pub fn rate(self, measured_per_s: f64) -> f64 {
        measured_per_s * self.0
    }
}
