//! The live load shape: exactly two driver threads — one writer, one reader
//! — each in a closed loop with zero think time (so two operations are in
//! flight), judged per operation by the O(1) [`Checker`].
//!
//! A driver thread never sleeps: on this 2-vCPU box a paced generator
//! measures idle-vCPU wake latency, not the program (see README). The
//! calling thread is free during the run; `tcp-restart` uses it for the
//! fault schedule. A third helper thread wakes once per window to read
//! the process's CPU clock.
//!
//! Between windows the two driver threads measure the host reference
//! ([`crate::reference`]): the measurement is a slice, then window and
//! slice in turn, so every window has a slice on either side.
//!
//! The engine knows nothing about the register stack: clients are two
//! closures over opaque `u64` tags and values, so the end-to-end binary and
//! the traced binary drive it the same way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use crate::check::{Checker, ClientMemory};
use crate::host::{now_ns, process_cpu, sleep_until};
use crate::reference::{self, Link};
use crate::spec::KeyStream;

/// What a completed operation returns: the packed tag and the value.
pub type OpOutput = Result<(u64, u64), String>;

/// The two blocking clients of a live workload.
pub struct Clients {
    /// Writes `value` to register index `key`.
    pub write: Box<dyn FnMut(usize, u64) -> OpOutput + Send>,
    /// Reads register index `key`.
    pub read: Box<dyn FnMut(usize) -> OpOutput + Send>,
}

/// How long and over which registers the loop runs.
#[derive(Debug, Clone)]
pub struct LoopPlan {
    /// Register choice of the writer thread.
    pub writer_keys: KeyStream,
    /// Register choice of the reader thread.
    pub reader_keys: KeyStream,
    /// Unmeasured lead-in.
    pub warmup: Duration,
    /// Number of measurement windows.
    pub windows: usize,
    /// Length of one window.
    pub window: Duration,
    /// Length of the host-reference slice before the first window and after
    /// each.
    pub reference: Duration,
    /// Keep a per-operation mark (kind, key, start, end) for the traced
    /// pass to hang spans on.
    pub record_ops: bool,
}

impl LoopPlan {
    /// From one window's opening to the next's.
    fn period_ns(&self) -> u64 {
        (self.window + self.reference).as_nanos() as u64
    }

    /// When window `k` opens, in nanoseconds after the measurement began.
    pub fn window_start_ns(&self, k: usize) -> u64 {
        self.period_ns() * k as u64 + self.reference.as_nanos() as u64
    }

    /// Length of the measurement, slices included.
    pub fn total_ns(&self) -> u64 {
        self.window_start_ns(self.windows)
    }

    /// The window an instant `after_begin_ns` into the measurement lies in,
    /// if it lies in one.
    fn window_of(&self, after_begin_ns: u64) -> Option<usize> {
        let k = (after_begin_ns / self.period_ns()) as usize;
        (k < self.windows && after_begin_ns >= self.window_start_ns(k)).then_some(k)
    }
}

/// One operation's interval, for the traced pass. The `n`-th mark of a
/// thread on a key is that client's `n`-th operation on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMark {
    /// Register index.
    pub key: u32,
    /// Invocation, [`now_ns`] clock.
    pub start_ns: u64,
    /// Completion (or failure), [`now_ns`] clock.
    pub end_ns: u64,
    /// Whether it completed.
    pub ok: bool,
}

/// One thread's share of a run.
#[derive(Debug, Default)]
pub struct Lane {
    /// Latencies in nanoseconds, per measurement window (by completion).
    pub windows: Vec<Vec<u32>>,
    /// Operations invoked inside the measurement, completed or not.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    /// Longest single operation inside the measurement, nanoseconds.
    pub max_ns: u64,
    /// Every operation including warm-up, when `record_ops` is set.
    pub marks: Vec<OpMark>,
    /// What each reference slice measured, on the thread that leads them.
    pub reference_us: Vec<Option<f64>>,
}

impl Lane {
    /// Completed operations inside the measurement.
    pub fn completed(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }
}

/// What one run of the loop measured.
#[derive(Debug)]
pub struct LoopResult {
    /// The writer thread.
    pub writes: Lane,
    /// The reader thread.
    pub reads: Lane,
    /// Process CPU time spent inside each window (all threads).
    pub cpu: Vec<Duration>,
    /// The host reference's round trip in each slice, microseconds: slice
    /// `k` precedes window `k`, the last follows the last window.
    pub reference_us: Vec<Option<f64>>,
    /// When the measurement started, [`now_ns`] clock.
    pub begin_ns: u64,
}

/// Runs the two-thread closed loop. `conductor` runs on the calling thread
/// once the driver threads are released, and receives the [`now_ns`]
/// instant at which the first measurement window opens; the loop ends on
/// its own clock regardless of when `conductor` returns.
pub fn run_closed_loop<T>(
    clients: Clients,
    plan: &LoopPlan,
    checker: &Checker,
    conductor: impl FnOnce(u64) -> T,
) -> (LoopResult, T) {
    let Clients {
        mut write,
        mut read,
    } = clients;
    let barrier = Barrier::new(3);
    let begin_at = AtomicU64::new(0);
    let (lead, echo) = reference::pair();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            drive(
                plan,
                plan.writer_keys.clone(),
                lead,
                (&barrier, &begin_at),
                |key| {
                    let (value, frontier) = checker.begin_write(key);
                    (write(key, value), frontier)
                },
                |key, frontier, tag, _, mem| checker.end_write(key, frontier, tag, mem),
            )
        });
        let reader = scope.spawn(|| {
            drive(
                plan,
                plan.reader_keys.clone(),
                echo,
                (&barrier, &begin_at),
                |key| {
                    let frontier = checker.begin_read(key);
                    (read(key), frontier)
                },
                |key, frontier, tag, value, mem| checker.end_read(key, frontier, tag, value, mem),
            )
        });

        barrier.wait();
        let begin = now_ns() + plan.warmup.as_nanos() as u64;
        begin_at.store(begin, Ordering::SeqCst);
        barrier.wait();
        // Reads the CPU clock as every window opens and closes; asleep
        // otherwise.
        let sampler = scope.spawn(move || {
            let clock_at = |instant_ns| {
                sleep_until(instant_ns);
                process_cpu().unwrap_or_default()
            };
            (0..plan.windows)
                .map(|k| {
                    let opens = begin + plan.window_start_ns(k);
                    let opened = clock_at(opens);
                    clock_at(opens + plan.window.as_nanos() as u64).saturating_sub(opened)
                })
                .collect::<Vec<_>>()
        });
        sleep_until(begin);
        let conducted = conductor(begin);
        let mut writes = writer.join().expect("writer thread panicked");
        let reads = reader.join().expect("reader thread panicked");
        let cpu = sampler.join().expect("sampler thread panicked");
        (
            LoopResult {
                reference_us: std::mem::take(&mut writes.reference_us),
                writes,
                reads,
                cpu,
                begin_ns: begin,
            },
            conducted,
        )
    })
}

/// One driver thread: invoke, time, judge, file under the window the
/// operation completed in; back to back until the last window closes,
/// stopping only for this thread's part in each reference slice.
/// `invoke` returns the outcome and the frontier it snapshotted (taken
/// inside the timed interval: one atomic load).
fn drive(
    plan: &LoopPlan,
    mut keys: KeyStream,
    mut link: Link,
    (barrier, begin_at): (&Barrier, &AtomicU64),
    mut invoke: impl FnMut(usize) -> (OpOutput, u64),
    judge: impl Fn(usize, u64, u64, u64, &mut ClientMemory),
) -> Lane {
    let mut lane = Lane {
        windows: (0..plan.windows)
            .map(|_| Vec::with_capacity(1 << 14))
            .collect(),
        ..Lane::default()
    };
    let mut memory = vec![ClientMemory::default(); keys.keys()];
    barrier.wait();
    barrier.wait();
    let begin = begin_at.load(Ordering::SeqCst);
    let stop = begin + plan.total_ns();
    // Slice `k` ends as window `k` opens (the last one: as the loop stops).
    let mut slice = 0;
    loop {
        let start = now_ns();
        let until = begin + plan.window_start_ns(slice);
        if slice <= plan.windows && start + plan.reference.as_nanos() as u64 >= until {
            lane.reference_us.push(link.slice(until));
            slice += 1;
            continue;
        }
        if start >= stop {
            return lane;
        }
        let key = keys.next_key();
        let (outcome, frontier) = invoke(key);
        let end = now_ns();
        if let Ok((tag, value)) = outcome {
            judge(key, frontier, tag, value, &mut memory[key]);
        }
        if plan.record_ops {
            lane.marks.push(OpMark {
                key: key as u32,
                start_ns: start,
                end_ns: end,
                ok: outcome.is_ok(),
            });
        }
        if start < begin {
            continue;
        }
        lane.attempted += 1;
        lane.max_ns = lane.max_ns.max(end - start);
        if outcome.is_err() {
            lane.failed += 1;
        } else if let Some(window) = plan.window_of(end - begin) {
            let latency = u32::try_from(end - start).unwrap_or(u32::MAX);
            lane.windows[window].push(latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// An in-process register with one writer: a single atomic holds the
    /// latest tag, and the k-th write of register 0 carries value k, so the
    /// value is the tag and a read is one load.
    fn fake_clients() -> Clients {
        let cell = Arc::new(AtomicU64::new(0));
        let (w, r) = (Arc::clone(&cell), cell);
        Clients {
            write: Box::new(move |_, value| {
                w.store(value, Ordering::SeqCst);
                Ok((value, value))
            }),
            read: Box::new(move |_| {
                let tag = r.load(Ordering::SeqCst);
                Ok((tag, tag))
            }),
        }
    }

    fn plan() -> LoopPlan {
        LoopPlan {
            writer_keys: KeyStream::single(),
            reader_keys: KeyStream::single(),
            warmup: Duration::from_millis(5),
            windows: 3,
            window: Duration::from_millis(10),
            reference: Duration::from_millis(2),
            record_ops: true,
        }
    }

    #[test]
    fn loop_fills_every_window_and_runs_the_conductor() {
        let checker = Checker::new(1);
        let (result, conducted) = run_closed_loop(fake_clients(), &plan(), &checker, |begin| begin);
        assert_eq!(conducted, result.begin_ns);
        assert_eq!(result.cpu.len(), 3);
        assert_eq!(result.reference_us.len(), 4, "a slice on either side");
        for lane in [&result.writes, &result.reads] {
            assert_eq!(lane.windows.len(), 3);
            // Not "every window saw ops": on a loaded box a thread can sit
            // out a whole 10 ms window.
            assert!(lane.completed() > 0);
            assert!(lane.attempted >= lane.completed());
            assert_eq!(lane.failed, 0);
            assert!(
                lane.marks.len() as u64 >= lane.attempted,
                "marks include warm-up"
            );
            assert!(lane.marks.windows(2).all(|p| p[0].end_ns <= p[1].start_ns));
        }
        assert_eq!(checker.violations(), 0);
    }

    #[test]
    fn loop_reports_what_the_checker_catches_and_what_fails() {
        // Reads that always return the initial value. Every read invoked
        // after the first write was judged is stale; `judged` counts the
        // writes that returned (each call but the one in flight), and a
        // read that sees it non-zero makes the *next* read's frontier
        // non-zero — so all but one of those reads must be caught, however
        // the scheduler interleaved the two threads.
        let judged = Arc::new(AtomicU64::new(0));
        let seen_after_write = Arc::new(AtomicU64::new(0));
        let (j, seen) = (Arc::clone(&judged), Arc::clone(&seen_after_write));
        let mut calls = 0u64;
        let stale = Clients {
            write: Box::new(move |_, value| {
                j.store(calls, Ordering::SeqCst);
                calls += 1;
                Ok((calls, value))
            }),
            read: Box::new(move |_| {
                if judged.load(Ordering::SeqCst) > 0 {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                Ok((0, 0))
            }),
        };
        let checker = Checker::new(1);
        let (result, ()) = run_closed_loop(stale, &plan(), &checker, |_| ());
        let stale_reads = seen_after_write.load(Ordering::SeqCst);
        assert!(
            checker.violations() + 1 >= stale_reads,
            "{} of {stale_reads}",
            checker.violations()
        );
        assert!(result.reads.attempted > 0);

        let failing = Clients {
            write: Box::new(|_, _| Err("no quorum".into())),
            read: Box::new(|_| Ok((0, 0))),
        };
        let checker = Checker::new(1);
        let (result, ()) = run_closed_loop(failing, &plan(), &checker, |_| ());
        assert!(result.writes.failed > 0);
        assert_eq!(result.writes.failed, result.writes.attempted);
        assert_eq!(result.writes.completed(), 0);
    }
}
