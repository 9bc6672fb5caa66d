//! Open-loop load generation: requests are due on a fixed schedule whether
//! or not earlier ones have finished, and every latency is measured from the
//! request's due time, so a stall is charged to every request it delays.

use std::time::{Duration, Instant};

/// When one request was due, sent and answered, as offsets from the start
/// of the run.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Position in the global schedule.
    pub index: u64,
    /// When the schedule said to send it.
    pub due: Duration,
    /// When its lane actually sent it (never before `due`).
    pub sent: Duration,
    /// When the reply arrived.
    pub done: Duration,
}

impl Timing {
    /// Latency from the due time: includes any wait for the lane to free up.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Offers `rate` requests per second for `duration`, spread round-robin over
/// one thread per lane (request `i` goes to lane `i % lanes.len()` and is due
/// at `i / rate`). A lane is one blocking connection: while it waits for a
/// reply, its next request can only be late, never dropped, and the lateness
/// shows in both [`Timing::lag`] and [`Timing::latency`].
///
/// Returns every request's timing and reply, in schedule order.
///
/// # Panics
///
/// Panics when `rate` is not positive or there are no lanes.
pub fn run<L, T>(
    rate: f64,
    duration: Duration,
    lanes: &mut [L],
    op: impl Fn(&mut L, u64) -> T + Sync,
) -> Vec<(Timing, T)>
where
    L: Send,
    T: Send,
{
    assert!(rate > 0.0, "offered rate must be positive");
    assert!(!lanes.is_empty(), "open loop needs at least one lane");
    let total = (rate * duration.as_secs_f64()).floor() as u64;
    let stride = lanes.len() as u64;
    let start = Instant::now();
    let op = &op;
    let mut all: Vec<(Timing, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(lane_index, lane)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut index = lane_index as u64;
                    while index < total {
                        let due = Duration::from_secs_f64(index as f64 / rate);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let reply = op(lane, index);
                        let done = start.elapsed();
                        out.push((
                            Timing {
                                index,
                                due,
                                sent,
                                done,
                            },
                            reply,
                        ));
                        index += stride;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    all.sort_by_key(|(t, _)| t.index);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_kept_and_nothing_is_sent_early() {
        let mut lanes = [(), ()];
        let out = run(500.0, Duration::from_millis(40), &mut lanes, |_, i| i);
        assert_eq!(out.len(), 20);
        for (k, (t, reply)) in out.iter().enumerate() {
            assert_eq!((t.index, *reply), (k as u64, k as u64));
            assert_eq!(t.due, Duration::from_secs_f64(k as f64 / 500.0));
            assert!(t.sent >= t.due && t.done >= t.sent);
        }
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_and_shows_as_lag() {
        // One lane, a request due every 2 ms; request 3 stalls for 30 ms.
        let stall = Duration::from_millis(30);
        let mut lanes = [()];
        let out = run(500.0, Duration::from_millis(40), &mut lanes, |_, i| {
            if i == 3 {
                std::thread::sleep(stall);
            }
        });
        let stalled = out[3].0;
        assert!(stalled.latency() >= stall);
        // Requests due during the stall go out late: their lag is the wait
        // for the lane, and their latency (from the due time) includes it.
        let next = out[4].0;
        assert!(next.lag() >= stall - Duration::from_millis(2) - Duration::from_millis(1));
        assert!(next.latency() >= next.lag());
        assert!(next.latency() > next.done - next.sent);
        // The backlog drains only as fast as requests complete, so the
        // schedule never restarts from the stall: request 10 is still late.
        assert!(out[10].0.lag() > Duration::ZERO);
    }
}
