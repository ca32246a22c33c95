//! The load drivers. A closed loop sends a connection's next op when the
//! previous one has been verified; an open loop sends on a fixed schedule
//! whatever the system does, and times each op from when it was *due*, so
//! the wait a stall imposes on later ops is counted.

use std::time::{Duration, Instant};

use crate::env::Target;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::CLASS_NAMES;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// One op in flight per connection, back to back.
    Closed,
    /// Each connection sends one op every `interval_s`, connections evenly
    /// staggered within the interval.
    Open { interval_s: f64 },
}

/// An open loop that has fallen this far behind its window gives up; the
/// ops it never sent count as failed.
const BACKLOG_LIMIT: f64 = 1.5;

/// A slice is quiet when the hypervisor stole at most this share of the
/// box's CPU time from it.
const QUIET_STEAL: f64 = 0.02;
/// Slices a value is always taken from, however noisy the box.
const MIN_QUIET: usize = 3;
/// `/proc/stat` counts in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU time stolen from this machine by its hypervisor so far, in seconds
/// (0 where `/proc/stat` has no such column).
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

#[derive(Debug, Clone)]
pub struct OpSample {
    /// Completion time, seconds from the start of the window.
    pub end_s: f64,
    /// Send → last row verified.
    pub latency_ms: f64,
    /// Due → last row verified (equals `latency_ms` in a closed loop).
    pub due_latency_ms: f64,
    /// How late the generator sent the op (0 in a closed loop).
    pub late_ms: f64,
    pub ttfr_ms: Option<f64>,
}

/// Everything one measured window observed.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: f64,
    pub ops: Vec<OpSample>,
    /// `(class, latency ms)` of every statement.
    pub stmts: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub rows: u64,
    pub partitions: u64,
    /// Per slice, the share of the box's CPU time its hypervisor stole.
    pub steal: Vec<f64>,
}

/// Drive every target for `seconds`, one thread each, while a sampler
/// notes at every slice boundary how much CPU time the hypervisor stole.
pub fn run_window(
    targets: Vec<&mut dyn Target>,
    seconds: f64,
    pace: Pace,
    rec: &Recorder,
) -> Window {
    let started = Instant::now();
    let conns = targets.len();
    let cpus = std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
    let width = seconds / stats::SLICES as f64;
    let (parts, steal): (Vec<Window>, Vec<f64>) = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut before = stolen_s();
            (1..=stats::SLICES)
                .map(|i| {
                    let boundary = started + Duration::from_secs_f64(width * i as f64);
                    std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                    let now = stolen_s();
                    let share = (now - before) / (width * cpus);
                    before = now;
                    share
                })
                .collect()
        });
        let workers: Vec<_> = targets
            .into_iter()
            .enumerate()
            .map(|(k, target)| {
                scope.spawn(move || match pace {
                    Pace::Closed => closed_loop(target, started, seconds, rec),
                    Pace::Open { interval_s } => {
                        let offset_s = interval_s * k as f64 / conns as f64;
                        open_loop(target, started, seconds, interval_s, offset_s, rec)
                    }
                })
            })
            .collect();
        let parts = workers
            .into_iter()
            .map(|w| w.join().expect("driver thread panicked"))
            .collect();
        (parts, sampler.join().expect("steal sampler panicked"))
    });
    let mut window = Window {
        seconds,
        steal,
        ..Window::default()
    };
    for part in parts {
        window.ops.extend(part.ops);
        window.stmts.extend(part.stmts);
        window.attempted += part.attempted;
        window.failed += part.failed;
        window.first_error = window.first_error.or(part.first_error);
        window.rows += part.rows;
        window.partitions += part.partitions;
    }
    window
}

fn closed_loop(target: &mut dyn Target, started: Instant, seconds: f64, rec: &Recorder) -> Window {
    let mut window = Window::default();
    while started.elapsed().as_secs_f64() < seconds {
        let sent = Instant::now();
        window.run_one(target, started, sent, sent, rec);
    }
    window
}

fn open_loop(
    target: &mut dyn Target,
    started: Instant,
    seconds: f64,
    interval_s: f64,
    offset_s: f64,
    rec: &Recorder,
) -> Window {
    let mut window = Window::default();
    for k in 0.. {
        let due_s = offset_s + k as f64 * interval_s;
        if due_s >= seconds {
            break;
        }
        if started.elapsed().as_secs_f64() > seconds * BACKLOG_LIMIT {
            // Hopelessly behind: what was due and never sent has failed.
            let unsent = ((seconds - due_s) / interval_s).ceil() as u64;
            window.attempted += unsent;
            window.failed += unsent;
            window.first_error.get_or_insert_with(|| {
                format!(
                    "open loop fell {BACKLOG_LIMIT}x behind its schedule; {unsent} ops never sent"
                )
            });
            break;
        }
        let due = started + Duration::from_secs_f64(due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        window.run_one(target, started, due, Instant::now(), rec);
    }
    window
}

impl Window {
    fn run_one(
        &mut self,
        target: &mut dyn Target,
        started: Instant,
        due: Instant,
        sent: Instant,
        rec: &Recorder,
    ) {
        let result = target.run_next(rec);
        let done = Instant::now();
        self.attempted += 1;
        if let Some(error) = result.error {
            self.failed += 1;
            self.first_error.get_or_insert(error);
            return;
        }
        self.ops.push(OpSample {
            end_s: (done - started).as_secs_f64(),
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            due_latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
            ttfr_ms: result.ttfr_ms,
        });
        self.stmts.extend(result.stmts);
        self.rows += result.rows;
        self.partitions += result.partitions;
    }

    /// The end-to-end aggregation: the median of the per-slice values, so
    /// that a noisy-neighbour burst moves at most one of the five — taken
    /// over the quiet slices alone, because a slice the hypervisor took CPU
    /// time from did not measure this program. When fewer than three slices
    /// are quiet, the three least disturbed ones stand in.
    pub fn across_slices(&self, per_slice: &[f64]) -> f64 {
        let mut by_steal: Vec<(f64, f64)> = self
            .steal
            .iter()
            .copied()
            .zip(per_slice.iter().copied())
            .collect();
        by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
        let quiet = by_steal
            .iter()
            .filter(|(steal, _)| *steal <= QUIET_STEAL)
            .count();
        let kept: Vec<f64> = by_steal
            .iter()
            .take(quiet.max(MIN_QUIET))
            .map(|(_, v)| *v)
            .collect();
        stats::median(&kept)
    }

    fn series(&self, value: impl Fn(&OpSample) -> Option<f64>) -> Vec<(f64, f64)> {
        self.ops
            .iter()
            .filter_map(|op| value(op).map(|v| (op.end_s, v)))
            .collect()
    }

    /// Verified ops completed per second: median of the five slice rates.
    /// An op that spans a slice boundary counts towards each slice by the
    /// share of its time spent there — whole-op counting would quantise a
    /// slow workload's rate to steps of a few percent.
    pub fn throughput_ops_s(&self) -> f64 {
        let width = self.seconds / stats::SLICES as f64;
        let mut done = [0.0; stats::SLICES];
        for op in &self.ops {
            let start_s = op.end_s - op.latency_ms / 1e3;
            for (i, done) in done.iter_mut().enumerate() {
                let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
                let overlap = op.end_s.min(hi) - start_s.max(lo);
                if overlap > 0.0 {
                    *done += overlap / (op.end_s - start_s);
                }
            }
        }
        self.across_slices(&done.map(|d| d / width))
    }

    /// Median over the slices of a percentile of the op latency.
    pub fn latency_ms(&self, p: f64) -> f64 {
        self.across_slices(&self.latency_slices_ms(p))
    }

    /// The per-slice values behind [`Window::latency_ms`].
    pub fn latency_slices_ms(&self, p: f64) -> Vec<f64> {
        stats::per_slice(&self.series(|op| Some(op.latency_ms)), self.seconds, |s| {
            stats::percentile(s, p)
        })
    }

    pub fn due_latency_ms(&self, p: f64) -> f64 {
        self.across_slices(&stats::per_slice(
            &self.series(|op| Some(op.due_latency_ms)),
            self.seconds,
            |s| stats::percentile(s, p),
        ))
    }

    pub fn ttfr_p50_ms(&self) -> f64 {
        self.across_slices(&stats::per_slice(
            &self.series(|op| op.ttfr_ms),
            self.seconds,
            |s| stats::percentile(s, 50.0),
        ))
    }

    /// A percentile over the whole window (no slicing) of a per-op value.
    pub fn whole(&self, p: f64, value: impl Fn(&OpSample) -> f64) -> f64 {
        let values: Vec<f64> = self.ops.iter().map(value).collect();
        stats::percentile(&values, p)
    }

    /// `(median latency ms, statements)` of one class.
    pub fn class_p50_ms(&self, class: usize) -> (f64, usize) {
        let values: Vec<f64> = self
            .stmts
            .iter()
            .filter(|s| s.0 == class)
            .map(|s| s.1)
            .collect();
        (stats::median(&values), values.len())
    }

    /// Classes that ran, in report order.
    pub fn classes(&self) -> Vec<usize> {
        (0..CLASS_NAMES.len())
            .filter(|c| self.stmts.iter().any(|s| s.0 == *c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::OpResult;

    /// A fake server whose first op stalls.
    struct Stalling {
        stall: Duration,
        calls: u32,
    }

    impl Target for Stalling {
        fn run_next(&mut self, _rec: &Recorder) -> OpResult {
            if self.calls == 0 {
                std::thread::sleep(self.stall);
            }
            self.calls += 1;
            OpResult::default()
        }
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_keeps_its_schedule() {
        // Ops are due every 10 ms; the first one stalls for 80 ms, so the
        // ops due at 10..70 ms queue behind it.
        let mut server = Stalling {
            stall: Duration::from_millis(80),
            calls: 0,
        };
        let window = run_window(
            vec![&mut server],
            0.3,
            Pace::Open { interval_s: 0.010 },
            &Recorder::new(),
        );
        // Every due op is sent, stall or not.
        assert_eq!(window.attempted, 30);
        assert_eq!(window.failed, 0);
        let second = &window.ops[1];
        // It could not start before the stall ended at >= 80 ms, 70 ms
        // after it was due — and that wait is part of its latency from the
        // due time but not of its service latency.
        assert!(second.late_ms >= 69.9, "late {}", second.late_ms);
        assert!(second.due_latency_ms - second.latency_ms >= 69.9);
        // A closed-loop view would have hidden the stall from every op but
        // the first.
        let hidden = window
            .ops
            .iter()
            .filter(|op| op.due_latency_ms >= 10.0)
            .count();
        assert!(hidden >= 7, "{hidden} ops saw the stall");
        // The backlog drains and the generator is back on schedule.
        let last = window.ops.last().unwrap();
        assert!(last.late_ms < second.late_ms);
    }

    #[test]
    fn throughput_splits_an_op_over_the_slices_it_spans() {
        // A 10 s window; ops of 0.8 s back to back on one connection: 1.25
        // ops/s in every slice, although no slice holds a whole number.
        let ops = (1..=12)
            .map(|k| OpSample {
                end_s: 0.8 * f64::from(k),
                latency_ms: 800.0,
                due_latency_ms: 800.0,
                late_ms: 0.0,
                ttfr_ms: None,
            })
            .collect();
        let window = Window {
            seconds: 10.0,
            ops,
            steal: vec![0.0; stats::SLICES],
            ..Window::default()
        };
        assert!((window.throughput_ops_s() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn slices_the_hypervisor_stole_from_are_left_out() {
        let mut window = Window {
            steal: vec![0.0, 0.30, 0.0, 0.25, 0.01],
            ..Window::default()
        };
        // The two disturbed slices read slow; the quiet three decide.
        assert_eq!(window.across_slices(&[10.0, 30.0, 11.0, 40.0, 12.0]), 11.0);
        // With two quiet slices the least disturbed third one joins them.
        window.steal[0] = 0.5;
        assert_eq!(window.across_slices(&[10.0, 30.0, 11.0, 40.0, 12.0]), 12.0);
        // On a quiet box it is the plain median of five.
        window.steal = vec![0.0; 5];
        assert_eq!(window.across_slices(&[10.0, 30.0, 11.0, 40.0, 12.0]), 12.0);
    }

    #[test]
    fn closed_loop_latency_starts_at_the_send() {
        let mut server = Stalling {
            stall: Duration::from_millis(30),
            calls: 0,
        };
        let window = run_window(vec![&mut server], 0.1, Pace::Closed, &Recorder::new());
        assert!(window.attempted > 1);
        assert!(window.ops[0].latency_ms >= 29.9);
        assert!(window
            .ops
            .iter()
            .all(|op| op.late_ms == 0.0 && op.due_latency_ms == op.latency_ms));
    }
}
