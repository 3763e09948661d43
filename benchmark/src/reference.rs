//! The host reference: what a fixed piece of work that is not the program
//! costs on this host right now, measured in slices between the windows of
//! every run, so that a timing can be quoted at a nominal host speed.
//!
//! The box is a slice of a shared host that goes through slow phases
//! lasting minutes, in which everything that enters the kernel — the
//! program's threads hand every message over through a futex or a socket —
//! takes up to 40 % longer while plain arithmetic ([`crate::host::canary_ms`])
//! barely moves. Ten runs of the same code that straddle such a phase
//! differ by more than any bound a benchmark could declare (README, *the
//! host reference*). So the two driver threads stop between windows and
//! bounce a token off each other, through a `std::sync::mpsc` channel and
//! through a loopback TCP connection: two thread hand-overs and four
//! system calls per round trip, none of the repository's code. A slow phase
//! stretches that round trip and the program's operations alike; their
//! ratio holds.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use crate::host::now_ns;
use crate::stats::median;

/// The round trip every timing is quoted at, in microseconds: what this
/// box measures in its quiet phases. `value × reference ÷ NOMINAL_US` gives
/// back what the clock read.
pub const NOMINAL_US: f64 = 8.0;

/// Length of one reference slice: some ten thousand round trips.
pub const SLICE: Duration = Duration::from_millis(100);

/// Fewer timed round trips than this is no measurement (the partner turned
/// up after the slice was over).
const MIN_TRIPS: u64 = 100;

const PING: u8 = 1;
const STOP: u8 = 0;
const TOKEN: usize = 16;

/// One end of the reference connection.
pub struct Link {
    tx: Sender<u8>,
    rx: Receiver<u8>,
    tcp: TcpStream,
    leads: bool,
}

/// A connected pair: the end that leads (and measures) and the end that
/// echoes.
///
/// # Panics
///
/// If the loopback interface refuses a connection; the live workloads need
/// it anyway.
pub fn pair() -> (Link, Link) {
    let connect = || -> std::io::Result<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        Ok((near, far))
    };
    let (near, far) = connect().expect("loopback TCP for the host reference");
    let (to_far, from_near) = channel();
    let (to_near, from_far) = channel();
    (
        Link {
            tx: to_far,
            rx: from_far,
            tcp: near,
            leads: true,
        },
        Link {
            tx: to_near,
            rx: from_near,
            tcp: far,
            leads: false,
        },
    )
}

impl Link {
    /// This end's part in one slice, which the leading end closes at
    /// `until_ns` on the [`now_ns`] clock. Both ends must call it, in any
    /// order: whoever arrives first waits. The leading end returns the mean
    /// round trip in microseconds, not counting the first (which waited for
    /// the partner) — `None` from the echoing end, and when the partner
    /// arrived too late for [`MIN_TRIPS`].
    ///
    /// # Panics
    ///
    /// If the other end is gone.
    pub fn slice(&mut self, until_ns: u64) -> Option<f64> {
        const GONE: &str = "the other end of the host reference";
        let mut token = [0u8; TOKEN];
        if !self.leads {
            while self.rx.recv().expect(GONE) == PING {
                self.tx.send(PING).expect(GONE);
                self.tcp.read_exact(&mut token).expect(GONE);
                self.tcp.write_all(&token).expect(GONE);
            }
            return None;
        }
        let (mut first, mut last, mut trips) = (None, 0, 0u64);
        while last < until_ns {
            self.tx.send(PING).expect(GONE);
            self.rx.recv().expect(GONE);
            self.tcp.write_all(&token).expect(GONE);
            self.tcp.read_exact(&mut token).expect(GONE);
            last = now_ns();
            match first {
                None => first = Some(last),
                Some(_) => trips += 1,
            }
        }
        self.tx.send(STOP).expect(GONE);
        let first = first?;
        (trips >= MIN_TRIPS).then(|| (last - first) as f64 / trips as f64 / 1e3)
    }
}

/// One slice of `length` between the calling thread and a helper thread,
/// for the single-threaded parts of a run (set-up sampling, the simulator).
pub fn sample(length: Duration) -> Option<f64> {
    let (mut lead, mut echo) = pair();
    let until = now_ns() + length.as_nanos() as u64;
    std::thread::scope(|scope| {
        scope.spawn(move || echo.slice(until));
        lead.slice(until)
    })
}

/// The factor that takes a timing measured between the slices `around` it
/// to [`NOMINAL_US`]: nominal ÷ their mean. Falls back to `overall` (the
/// run's median slice) when neither neighbour measured anything.
pub fn scale(around: &[Option<f64>], overall: Option<f64>) -> Option<f64> {
    let near: Vec<f64> = around.iter().flatten().copied().collect();
    let reference = if near.is_empty() {
        overall?
    } else {
        near.iter().sum::<f64>() / near.len() as f64
    };
    Some(NOMINAL_US / reference)
}

/// The run's median slice.
pub fn overall(slices: &[Option<f64>]) -> Option<f64> {
    median(&slices.iter().flatten().copied().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_measures_a_round_trip_and_releases_both_ends() {
        let micros = sample(SLICE).expect("100 ms hold far more than 100 round trips");
        assert!(micros > 0.1 && micros < 10_000.0, "{micros}");
    }

    #[test]
    fn a_late_partner_voids_the_slice_without_hanging() {
        let (mut lead, mut echo) = pair();
        let until = now_ns(); // already over when the leader starts
        let measured = std::thread::scope(|scope| {
            scope.spawn(move || echo.slice(until));
            lead.slice(until)
        });
        assert_eq!(measured, None);
    }

    #[test]
    fn scale_prefers_the_neighbours_and_falls_back_to_the_run() {
        let twice = scale(&[Some(NOMINAL_US * 2.0), Some(NOMINAL_US * 2.0)], None);
        assert_eq!(twice, Some(0.5));
        assert_eq!(scale(&[None, Some(NOMINAL_US)], Some(1.0)), Some(1.0));
        assert_eq!(scale(&[None, None], Some(NOMINAL_US * 4.0)), Some(0.25));
        assert_eq!(scale(&[None], None), None);
        assert_eq!(overall(&[Some(1.0), None, Some(3.0)]), Some(2.0));
    }
}
