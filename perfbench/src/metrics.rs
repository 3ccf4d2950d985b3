//! Exact end-to-end arithmetic over the service's per-transaction events.
//!
//! Every figure here comes from `TxnEvent` timestamps, never from the
//! service's log-bucketed latency histogram: percentiles are nearest-rank
//! over the exact sample. In the open loop the service stamps
//! `submitted_at` with the *scheduled* arrival, so a late generator or a
//! queue counts against latency; arrivals shed at a full in-flight window
//! have no event at all and are counted from the offered total.

use std::time::Duration;

use ac_cluster::TxnEvent;

/// The latency limit L = 4U: a commit later than this misses its deadline.
const LIMIT: Duration = Duration::from_millis(20);

/// Share of the load phase cut off at each end before goodput is counted,
/// so ramp-up and drain do not dilute the steady-state rate.
const TRIM: f64 = 0.1;

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile of an ascending sample (`q` in (0, 1]).
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of a sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end tally of one or more measured rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of every committed transaction, nanoseconds.
    commit_ns: Vec<u64>,
    /// Transactions the schedule offered (submitted plus shed).
    pub offered: u64,
    /// Transactions the client saw fully decided.
    decided: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Commits within [`LIMIT`] of their (scheduled) submission.
    on_time: u64,
    /// On-time commits decided inside the trimmed window.
    window_commits: u64,
    /// Summed length of the trimmed windows, seconds.
    window_s: f64,
}

impl Tally {
    /// Fold in one round: its client events, the offered count and the
    /// length of its load phase.
    pub fn add_round(&mut self, events: &[TxnEvent], offered: usize, elapsed: Duration) {
        let lo = elapsed.mul_f64(TRIM);
        let hi = elapsed.mul_f64(1.0 - TRIM);
        self.offered += offered as u64;
        self.window_s += (hi - lo).as_secs_f64();
        for e in events {
            let (Some(done), Some(committed)) = (e.decided_at, e.committed) else {
                continue;
            };
            self.decided += 1;
            if !committed {
                continue;
            }
            self.committed += 1;
            let lat = done.saturating_sub(e.submitted_at);
            self.commit_ns.push(nanos(lat));
            if lat <= LIMIT {
                self.on_time += 1;
                if done >= lo && done < hi {
                    self.window_commits += 1;
                }
            }
        }
    }

    /// Nearest-rank percentile of commit latency, milliseconds.
    pub fn commit_ms(&mut self, q: f64) -> f64 {
        self.commit_ns.sort_unstable();
        nearest_rank(&self.commit_ns, q).unwrap_or(0) as f64 / 1e6
    }

    /// Committed ÷ decided, per cent (100 − abort rate).
    pub fn commit_pct(&self) -> f64 {
        100.0 * self.committed as f64 / self.decided.max(1) as f64
    }

    /// Offered transactions that committed within L ÷ offered, per cent
    /// (100 − the share shed, stalled, aborted or late).
    pub fn ontime_pct(&self) -> f64 {
        100.0 * self.on_time as f64 / self.offered.max(1) as f64
    }

    /// Offered transactions the service refused or never answered: shed
    /// at a full window or stalled. Aborts and late commits are answers;
    /// `commit_pct` and `ontime_pct` count them.
    pub fn failed(&self) -> u64 {
        self.offered - self.decided
    }

    /// On-time commits per second over the trimmed windows.
    pub fn goodput_tps(&self) -> f64 {
        if self.window_s <= 0.0 {
            return 0.0;
        }
        self.window_commits as f64 / self.window_s
    }
}

/// How late the generator dispatched each transaction: first `Begin`
/// dispatch at any participant minus the (scheduled) submission,
/// nanoseconds, ascending. Transactions the flight recorder lost are
/// skipped.
pub fn dispatch_lags(events: &[TxnEvent]) -> Vec<u64> {
    let mut lags: Vec<u64> = events
        .iter()
        .filter_map(|e| {
            e.first_protocol_at
                .map(|f| nanos(f.saturating_sub(e.submitted_at)))
        })
        .collect();
    lags.sort_unstable();
    lags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> Duration {
        Duration::from_secs_f64(v / 1e3)
    }

    /// A decided transaction submitted at `sub` ms, decided `lat` ms later.
    fn ev(sub: f64, lat: f64, committed: bool) -> TxnEvent {
        TxnEvent {
            id: 0,
            client: 0,
            participants: 2,
            submitted_at: ms(sub),
            decided_at: Some(ms(sub + lat)),
            committed: Some(committed),
            retries: 0,
            first_protocol_at: None,
            votes_held_at: None,
            journaled_at: None,
        }
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_sample_values() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50));
        assert_eq!(nearest_rank(&s, 0.99), Some(99));
        assert_eq!(nearest_rank(&s, 1.0), Some(100));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // 10 samples: p99 is the maximum, p50 the 5th value.
        let s: Vec<u64> = (1..=10).map(|v| v * 10).collect();
        assert_eq!(nearest_rank(&s, 0.99), Some(100));
        assert_eq!(nearest_rank(&s, 0.5), Some(50));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn aborts_count_as_decided_but_not_committed() {
        let mut t = Tally::default();
        let events = [ev(1.0, 5.0, true), ev(2.0, 5.0, false), ev(3.0, 7.0, true)];
        t.add_round(&events, 3, ms(100.0));
        assert_eq!((t.decided, t.committed, t.on_time), (3, 2, 2));
        assert!((t.commit_pct() - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.commit_ms(0.5), 5.0);
        assert_eq!(t.commit_ms(0.99), 7.0);
        assert_eq!(t.failed(), 0, "an abort is an answer, not a failure");
    }

    #[test]
    fn goodput_counts_on_time_commits_inside_the_trimmed_window() {
        // Load phase 1000 ms: the window is [100, 900) ms, 0.8 s long.
        let events = [
            ev(50.0, 5.0, true),   // decided at 55 ms: before the window
            ev(100.0, 5.0, true),  // 105 ms: in
            ev(500.0, 19.0, true), // 519 ms: in, just within L
            ev(500.0, 21.0, true), // 521 ms: in the window but late
            ev(600.0, 5.0, false), // aborted
            ev(894.0, 6.0, true),  // 900 ms: the window is half-open
        ];
        let mut t = Tally::default();
        t.add_round(&events, 6, ms(1000.0));
        assert!((t.goodput_tps() - 2.0 / 0.8).abs() < 1e-9);
        assert_eq!(t.on_time, 4);
        assert!((t.ontime_pct() - 400.0 / 6.0).abs() < 1e-9);
        // The late commit and the abort miss L but were answered.
        assert_eq!(t.failed(), 0);
    }

    #[test]
    fn rounds_pool_samples_and_windows() {
        let mut t = Tally::default();
        t.add_round(&[ev(500.0, 4.0, true)], 1, ms(1000.0));
        t.add_round(&[ev(200.0, 8.0, true), ev(300.0, 6.0, true)], 2, ms(500.0));
        // Windows 0.8 s + 0.4 s; all three commits land inside theirs.
        assert!((t.goodput_tps() - 3.0 / 1.2).abs() < 1e-9);
        assert_eq!(t.commit_ms(0.5), 6.0);
        assert_eq!(t.offered, 3);
    }

    #[test]
    fn open_loop_latency_runs_from_the_scheduled_arrival() {
        // Scheduled at 100 ms, but the generator only dispatched it at
        // 115 ms; the protocol took 8 ms. Sojourn = 23 ms > L: a miss,
        // even though the commit itself was fast.
        let mut late = ev(100.0, 23.0, true);
        late.first_protocol_at = Some(ms(115.0));
        let mut prompt = ev(200.0, 8.0, true);
        prompt.first_protocol_at = Some(ms(200.5));
        let mut t = Tally::default();
        t.add_round(&[late.clone(), prompt.clone()], 2, ms(1000.0));
        assert_eq!(t.on_time, 1);
        assert_eq!(t.commit_ms(1.0), 23.0);
        assert_eq!(
            dispatch_lags(&[late, prompt]),
            vec![500_000, 15_000_000],
            "dispatch lag is first protocol event minus scheduled arrival"
        );
    }

    #[test]
    fn shed_arrivals_have_no_event_but_count_as_missed() {
        // Ten arrivals offered, six submitted and committed on time, four
        // shed at a full window: 60 % on time, four missed.
        let events: Vec<TxnEvent> = (0..6).map(|i| ev(100.0 * i as f64, 3.0, true)).collect();
        let mut t = Tally::default();
        t.add_round(&events, 10, ms(1000.0));
        assert_eq!(t.failed(), 4);
        assert!((t.ontime_pct() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn stalled_transactions_are_neither_decided_nor_on_time() {
        let mut stalled = ev(10.0, 1.0, true);
        stalled.decided_at = None;
        stalled.committed = None;
        let mut t = Tally::default();
        t.add_round(&[stalled, ev(20.0, 1.0, true)], 2, ms(100.0));
        assert_eq!((t.decided, t.on_time, t.failed()), (1, 1, 1));
    }
}
