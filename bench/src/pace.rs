//! The open-loop generator: 1 ms ticks at a fixed packet rate. Every
//! packet of a tick is timed from the instant the tick was *due*, so a
//! stall in the program (or in the generator) counts against the packets
//! it delayed; how late the generator itself ran is reported beside the
//! latencies it produced.
//!
//! Against a threaded workload the generator sleeps between ticks and
//! never spins: the run has one CPU, and a spinning generator would hold
//! it against the very threads it is timing (on two cores it decided by
//! where the scheduler happened to place it whether the shard worker ran
//! at once or waited, and `runtime_sync`'s p50 swung 30 → 120 µs between
//! identical runs). Sleeping wakes ~60–100 µs late (timer slack) on every
//! tick alike, more on a busy host. `sched_direct` has no other thread to
//! make room for and spins up to the tick, so its figure is the
//! scheduler's service time and none of the host's timer.

use std::time::Duration;

use crate::host::now_ns;

pub const TICK_NS: u64 = 1_000_000;

/// How the generator passes the time to the next tick.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    Sleep,
    Spin,
}

pub struct Paced {
    pub packets: u64,
    /// Largest lateness of a tick's first submit against its due time.
    pub late_max_us: f64,
}

/// Runs ticks for `duration`, calling `emit(due_ns, i, per_tick)` for
/// packet `i` of each tick, `per_tick = rate_pps / 1000`. `emit` may
/// block (backpressure): later ticks then start late and say so.
pub fn run(
    rate_pps: u64,
    duration: Duration,
    wait: Wait,
    mut emit: impl FnMut(u64, u64, u64),
) -> Paced {
    let per_tick = (rate_pps / 1000).max(1);
    let t0 = now_ns() + TICK_NS;
    let ticks = (duration.as_nanos() as u64 / TICK_NS).max(1);
    let mut late_max = 0u64;
    for k in 0..ticks {
        let due = t0 + k * TICK_NS;
        loop {
            let now = now_ns();
            if now >= due {
                late_max = late_max.max(now - due);
                break;
            }
            match wait {
                Wait::Sleep => std::thread::sleep(Duration::from_nanos(due - now)),
                Wait::Spin => std::hint::spin_loop(),
            }
        }
        for i in 0..per_tick {
            emit(due, i, per_tick);
        }
    }
    Paced {
        packets: ticks * per_tick,
        late_max_us: late_max as f64 / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_rate_times_duration_with_rising_due_times() {
        let mut dues = Vec::new();
        let p = run(3000, Duration::from_millis(20), Wait::Sleep, |due, i, n| {
            assert!(i < n && n == 3);
            dues.push(due)
        });
        assert_eq!(p.packets, 60);
        let spun = run(1000, Duration::from_millis(5), Wait::Spin, |_, _, _| {});
        assert_eq!(spun.packets, 5);
        assert_eq!(dues.len(), 60);
        assert!(dues
            .windows(2)
            .all(|w| w[1] == w[0] || w[1] == w[0] + TICK_NS));
        assert_eq!(dues[59] - dues[0], 19 * TICK_NS);
    }
}
