//! Open-loop load: the seeded arrival schedule and the due-time
//! accounting of one rate phase.
//!
//! Jobs are sent on a schedule fixed before the phase starts, whatever
//! the daemon does. Each job's latency runs from the time it was *due*,
//! not the time it was sent, so a generator stall shows up as latency of
//! the jobs it delayed. How late the generator sent is reported apart,
//! and a phase whose generator lagged beyond [`LAG_LIMIT_MS`] is invalid:
//! its numbers describe the generator, not the daemon.

use rand::Rng;

/// Latency limit a rate phase must meet at its tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Generator lateness beyond which a phase is invalid: half the latency
/// limit. Up to it, the due-time accounting still charges a stall to
/// the jobs it delayed; beyond it the generator, not the daemon, would
/// set the tail.
pub const LAG_LIMIT_MS: f64 = 25.0;
/// A phase has a growing backlog when it completes jobs at less than
/// this share of the rate they were due.
pub const MIN_COMPLETION_SHARE: f64 = 0.9;

/// Due times (seconds from the phase start) of `n` arrivals at `rate`
/// per second: job `i` is due at a seeded uniform point of its own slot
/// `[i / rate, (i + 1) / rate)`. Gaps vary from 0 to two slots, but the
/// rate is exact over any stretch of the phase, so the tail measures the
/// daemon rather than how bursty one seed's draw happened to be.
pub fn schedule(rng: &mut impl Rng, rate: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) / rate)
        .collect()
}

/// One job's timeline within a phase, in seconds from the phase start.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobTimes {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator sent it.
    pub sent: f64,
    /// When its report was seen to be available; `None` if it never
    /// completed (failed, refused or lost).
    pub done: Option<f64>,
}

/// What a rate phase measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Offered rate, jobs/s.
    pub rate: f64,
    /// Latencies from due time, ms; a job that never completed counts
    /// as the time from its due time to the end of the phase.
    pub latencies_ms: Vec<f64>,
    /// Jobs that never completed.
    pub failed: usize,
    /// Largest generator lateness, ms.
    pub lag_max_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// Tail latency, ms, at the percentile in `tail_pct`.
    pub tail_ms: f64,
    /// The percentile `tail_ms` reports (see [`crate::stats::tail`]).
    pub tail_pct: f64,
    /// Jobs completed per second, from the first due time to the last
    /// completion.
    pub completion_rate: f64,
    /// First due time to last completion (or phase end), s.
    pub wall_s: f64,
}

impl Phase {
    /// Whether the generator kept to its schedule.
    pub fn valid(&self) -> bool {
        self.lag_max_ms <= LAG_LIMIT_MS
    }

    /// Whether the phase meets the latency limit without failures or a
    /// growing backlog. Meaningful only for a valid phase.
    pub fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.tail_ms <= LATENCY_LIMIT_MS
            && self.completion_rate >= MIN_COMPLETION_SHARE * self.rate
    }
}

/// Accounts a finished phase that ended at `end` (seconds from its
/// start) and was offered `rate` jobs/s.
pub fn assess(jobs: &[JobTimes], rate: f64, end: f64) -> Phase {
    let latencies_ms: Vec<f64> = jobs
        .iter()
        .map(|j| (j.done.unwrap_or(end) - j.due).max(0.0) * 1e3)
        .collect();
    let failed = jobs.iter().filter(|j| j.done.is_none()).count();
    let lag_max_ms = jobs
        .iter()
        .map(|j| (j.sent - j.due).max(0.0) * 1e3)
        .fold(0.0, f64::max);
    let first_due = jobs.iter().map(|j| j.due).fold(f64::INFINITY, f64::min);
    let last_done = jobs
        .iter()
        .map(|j| j.done.unwrap_or(end))
        .fold(0.0, f64::max);
    let wall_s = (last_done - first_due).max(f64::MIN_POSITIVE);
    let (tail_ms, tail_pct) = crate::stats::tail(&latencies_ms);
    Phase {
        rate,
        p50_ms: crate::stats::median(&latencies_ms),
        tail_ms,
        tail_pct,
        failed,
        lag_max_ms,
        completion_rate: (jobs.len() - failed) as f64 / wall_s,
        wall_s,
        latencies_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// `n` jobs due every `1/rate` s, sent on time, each done `lat` s
    /// after it was due.
    fn steady(n: usize, rate: f64, lat: f64) -> Vec<JobTimes> {
        (0..n)
            .map(|i| {
                let due = i as f64 / rate;
                JobTimes {
                    due,
                    sent: due,
                    done: Some(due + lat),
                }
            })
            .collect()
    }

    #[test]
    fn schedule_is_seeded_increasing_and_offers_the_rate() {
        let a = schedule(&mut ChaCha8Rng::seed_from_u64(4), 100.0, 2000);
        let b = schedule(&mut ChaCha8Rng::seed_from_u64(4), 100.0, 2000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        for (i, d) in a.iter().enumerate() {
            assert!((i as f64 / 100.0..(i + 1) as f64 / 100.0).contains(d));
        }
        assert_ne!(a, schedule(&mut ChaCha8Rng::seed_from_u64(5), 100.0, 2000));
    }

    #[test]
    fn latency_runs_from_due_time_not_send_time() {
        let mut jobs = steady(100, 100.0, 0.004);
        // The generator stalled: job 50 went out 30 ms late and finished
        // 4 ms after it was sent.
        jobs[50].sent = jobs[50].due + 0.030;
        jobs[50].done = Some(jobs[50].sent + 0.004);
        let p = assess(&jobs, 100.0, 2.0);
        assert!((p.latencies_ms[50] - 34.0).abs() < 1e-9);
        assert!((p.latencies_ms[49] - 4.0).abs() < 1e-9);
        assert!((p.lag_max_ms - 30.0).abs() < 1e-9);
    }

    #[test]
    fn generator_lag_beyond_the_limit_invalidates_the_phase() {
        let mut jobs = steady(1000, 100.0, 0.004);
        assert!(assess(&jobs, 100.0, 11.0).valid());
        jobs[10].sent += (LAG_LIMIT_MS + 1.0) / 1e3;
        let p = assess(&jobs, 100.0, 11.0);
        assert!(!p.valid());
        // Invalid is not the same as slow: the latencies still pass.
        assert!(p.meets_limit());
    }

    #[test]
    fn a_phase_meets_the_limit_at_its_p99() {
        let mut jobs = steady(1000, 100.0, 0.004);
        let p = assess(&jobs, 100.0, 11.0);
        assert_eq!(p.tail_pct, 99.0);
        assert!(p.meets_limit());
        // Ten slow jobs sit beyond p99; an eleventh moves p99 itself.
        for j in jobs.iter_mut().take(10) {
            j.done = Some(j.due + 0.2);
        }
        assert!(assess(&jobs, 100.0, 11.0).meets_limit());
        jobs[10].done = Some(jobs[10].due + 0.2);
        assert!(!assess(&jobs, 100.0, 11.0).meets_limit());
    }

    #[test]
    fn a_failed_job_misses_the_limit() {
        let mut jobs = steady(1000, 100.0, 0.004);
        jobs[3].done = None;
        let p = assess(&jobs, 100.0, 11.0);
        assert_eq!(p.failed, 1);
        assert!((p.latencies_ms[3] - (11.0 - jobs[3].due) * 1e3).abs() < 1e-6);
        assert!(!p.meets_limit());
    }

    #[test]
    fn a_growing_backlog_misses_the_limit() {
        // Due at 400/s, completed at 200/s: each job waits longer.
        let jobs: Vec<JobTimes> = (0..1000)
            .map(|i| {
                let due = i as f64 / 400.0;
                JobTimes {
                    due,
                    sent: due,
                    done: Some(i as f64 / 200.0 + 0.004),
                }
            })
            .collect();
        let p = assess(&jobs, 400.0, 6.0);
        assert!(p.completion_rate < 0.9 * 400.0);
        assert!(!p.meets_limit());
    }
}
