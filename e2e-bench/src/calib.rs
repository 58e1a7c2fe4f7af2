//! A fixed host-speed probe, sampled between points in the pass's own
//! thread.
//!
//! The benchmark host is a VM whose speed drifts by tens of percent over
//! minutes as neighbours load the machine. The probe is code that never
//! changes with the simulator, a dependent integer loop, so its time
//! tracks the drift and host times can be scaled to a reference speed.

use std::time::Instant;

/// Probe time, in seconds, at the reference host speed: the median probe
/// time on the host the committed baseline was taken on.
pub const REFERENCE_S: f64 = 0.0040;

const ITERS: u64 = 1_000_000;

/// Median of three probe runs, in seconds.
pub fn probe_s() -> f64 {
    let mut t = [once(), once(), once()];
    t.sort_by(f64::total_cmp);
    t[1]
}

fn once() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut acc = 0u64;
    for k in 0..std::hint::black_box(ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x % (k | 1));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}
