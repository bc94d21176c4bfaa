//! Open-loop pacing: each request has a due time fixed before the run, is
//! sent at that time (or at once when the generator is already late), and
//! is timed from when it was due, so a stall is charged to every request
//! queued behind it instead of slowing the offered rate.

use std::time::{Duration, Instant};

/// How long after the end of the run requests that fell due before it are
/// still sent (late); any left after that are counted as unsent.
pub const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Due times of `rate_hz` evenly spaced requests over `seconds`, as offsets
/// from the start of the run.
pub fn due_times(rate_hz: f64, seconds: f64) -> Vec<Duration> {
    let count = (rate_hz * seconds).floor() as usize;
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate_hz))
        .collect()
}

/// What an open-loop run did.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopTally {
    /// Requests that fell due inside the run.
    pub due: u64,
    /// Requests the target acknowledged successfully.
    pub applied: u64,
    /// Requests the target failed or refused.
    pub failed: u64,
    /// Requests that fell due but were still unsent [`DRAIN_GRACE`] after
    /// the run ended, because the generator was that far behind.
    pub unsent: u64,
    /// Per-request latency from due time to acknowledgement, µs, in send
    /// order (failed requests included).
    pub latency_us: Vec<f64>,
    /// Per-request lateness of the send itself behind its due time, µs.
    pub lateness_us: Vec<f64>,
}

impl OpenLoopTally {
    /// Per-request time from send to acknowledgement, µs: the latency
    /// from due time without the generator's own lateness.
    pub fn service_us(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .zip(&self.lateness_us)
            .map(|(latency, late)| latency - late)
            .collect()
    }
}

/// Drives `send(i)` for every due time that falls before `stop_at`,
/// sleeping until each is due. Requests still unsent at `stop_at` plus
/// [`DRAIN_GRACE`] are counted as due and unsent. `send` returns whether the target applied
/// the request. The loop never waits on a previous request's latency to
/// decide the next send: only the clock does.
pub fn run_open_loop(
    start: Instant,
    due: &[Duration],
    stop_at: Instant,
    mut send: impl FnMut(usize) -> bool,
) -> OpenLoopTally {
    let mut tally = OpenLoopTally::default();
    for (i, offset) in due.iter().enumerate() {
        let due_at = start + *offset;
        if due_at >= stop_at {
            break;
        }
        let now = Instant::now();
        if now >= stop_at + DRAIN_GRACE {
            tally.due += 1;
            tally.unsent += 1;
            continue;
        }
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        tally.due += 1;
        if send(i) {
            tally.applied += 1;
        } else {
            tally.failed += 1;
        }
        let acked = Instant::now();
        tally
            .lateness_us
            .push(sent.saturating_duration_since(due_at).as_secs_f64() * 1e6);
        tally
            .latency_us
            .push(acked.saturating_duration_since(due_at).as_secs_f64() * 1e6);
    }
    tally
}
