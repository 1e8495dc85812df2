//! A run that hangs must say where, and must not hang the driver: past
//! the limit the watchdog names the phase, counts what was never
//! delivered and exits non-zero without printing a result.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

static PHASE: Mutex<String> = Mutex::new(String::new());
/// Packets accepted by / delivered from the program under test so far,
/// refreshed at phase boundaries and inside drain waits.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static DELIVERED: AtomicU64 = AtomicU64::new(0);

/// Names the phase now running (shown if the run hangs in it).
pub fn phase(name: &str) {
    let mut p = PHASE.lock().unwrap_or_else(|e| e.into_inner());
    p.clear();
    p.push_str(name);
}

pub fn progress(attempted: u64, delivered: u64) {
    ATTEMPTED.store(attempted, Ordering::Relaxed);
    DELIVERED.store(delivered, Ordering::Relaxed);
}

pub struct Watchdog {
    stop: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    pub fn start(limit: Duration) -> Self {
        let (stop, rx) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("ledger-watchdog".into())
            .spawn(move || {
                if rx.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                    let phase = PHASE.lock().unwrap_or_else(|e| e.into_inner()).clone();
                    let attempted = ATTEMPTED.load(Ordering::Relaxed);
                    let delivered = DELIVERED.load(Ordering::Relaxed);
                    eprintln!(
                        "err-ledger: WATCHDOG after {limit:?}: hung in phase '{phase}'; \
                         {attempted} packets attempted, {} undelivered (failed)",
                        attempted.saturating_sub(delivered)
                    );
                    std::process::exit(3);
                }
            })
            .expect("spawning the watchdog");
        Self { stop, thread }
    }

    /// Stands the watchdog down and waits for its thread.
    pub fn stop(self) {
        drop(self.stop);
        self.thread.join().expect("watchdog thread panicked");
    }
}
