//! O(1)-per-operation atomicity checks for the timed runs.
//!
//! No history is kept and no sidecar thread runs: the two driver threads
//! share one `max_completed` tag per register, updated by fetch-max at
//! every completion, and each operation is judged against the value it
//! snapshotted at invocation. The rules are the real-time half of
//! atomicity (Definition 2.1) that a wrong protocol step breaks first:
//!
//! - a **read** invoked after an operation with tag `T` completed must
//!   return a tag `≥ T` (catches stale reads and new/old inversions —
//!   the earlier read's completion raised `max_completed`);
//! - a **write** invoked after tag `T` completed must mint a tag `> T`;
//! - one client's own tags never go backwards;
//! - every value read was issued by the writer, for that register.
//!
//! A read that breaks the first or third rule with a value that *was*
//! issued is additionally counted as a **stale read**, so a workload that
//! runs a protocol with a known staleness defect can track it apart from
//! everything else (see `workloads::tracks_stale_reads`).
//!
//! Tags and values are opaque `u64`s here (see [`crate::workloads`] for
//! the packing), so the checker stays independent of the crates it judges.
//! The traced pass additionally runs the full `StreamingAuditor`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bits of a value that hold the per-register write counter; the register
/// index sits above them.
const SEQ_BITS: u32 = 40;

/// The shared per-run checker state; one slot per register.
#[derive(Debug)]
pub struct Checker {
    /// Largest tag any completed operation wrote or returned, per register.
    max_completed: Vec<AtomicU64>,
    /// Largest write counter issued so far, per register.
    issued: Vec<AtomicU64>,
    violations: AtomicU64,
    stale_reads: AtomicU64,
    /// The first rule miss, described, for the log.
    first: Mutex<Option<String>>,
}

/// What a client remembers between its own operations on one register.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientMemory {
    last_tag: u64,
}

impl Checker {
    /// A checker for `registers` independent registers.
    pub fn new(registers: usize) -> Self {
        Checker {
            max_completed: (0..registers).map(|_| AtomicU64::new(0)).collect(),
            issued: (0..registers).map(|_| AtomicU64::new(0)).collect(),
            violations: AtomicU64::new(0),
            stale_reads: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    /// How many registers this checker judges.
    pub fn registers(&self) -> usize {
        self.max_completed.len()
    }

    /// Rule misses recorded so far, stale reads included.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::SeqCst)
    }

    /// Of those, reads that returned an issued value older than one that
    /// had completed before the read was invoked.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads.load(Ordering::SeqCst)
    }

    /// The first rule miss, if any: which rule, on which register, with
    /// the tags involved (packed as `timestamp << 8 | writer slot`).
    pub fn first_violation(&self) -> Option<String> {
        self.first.lock().ok()?.clone()
    }

    fn miss(&self, describe: impl FnOnce() -> String) {
        if self.violations.fetch_add(1, Ordering::SeqCst) == 0 {
            if let Ok(mut first) = self.first.lock() {
                *first = Some(describe());
            }
        }
    }

    /// Mints the next value to write to `register` and snapshots the
    /// completed frontier; call immediately before invoking the write.
    pub fn begin_write(&self, register: usize) -> (u64, u64) {
        let seq = self.issued[register].fetch_add(1, Ordering::SeqCst) + 1;
        let value = ((register as u64) << SEQ_BITS) | seq;
        (value, self.max_completed[register].load(Ordering::SeqCst))
    }

    /// Judges a completed write that minted `tag` after snapshotting
    /// `frontier`.
    pub fn end_write(&self, register: usize, frontier: u64, tag: u64, mem: &mut ClientMemory) {
        if tag <= frontier || tag <= mem.last_tag {
            self.miss(|| {
                format!(
                    "write on register {register} minted tag {tag:#x}, not above the completed \
                     frontier {frontier:#x} and its own last tag {:#x}",
                    mem.last_tag
                )
            });
        }
        mem.last_tag = mem.last_tag.max(tag);
        self.max_completed[register].fetch_max(tag, Ordering::SeqCst);
    }

    /// Snapshots the completed frontier; call immediately before invoking
    /// the read.
    pub fn begin_read(&self, register: usize) -> u64 {
        self.max_completed[register].load(Ordering::SeqCst)
    }

    /// Judges a completed read that returned `(tag, value)` after
    /// snapshotting `frontier`.
    pub fn end_read(
        &self,
        register: usize,
        frontier: u64,
        tag: u64,
        value: u64,
        mem: &mut ClientMemory,
    ) {
        let written = if tag == 0 {
            // The initial tag carries the initial (zero) value.
            value == 0
        } else {
            let seq = value & ((1 << SEQ_BITS) - 1);
            value >> SEQ_BITS == register as u64
                && (1..=self.issued[register].load(Ordering::SeqCst)).contains(&seq)
        };
        if tag < frontier || tag < mem.last_tag || !written {
            if written {
                self.stale_reads.fetch_add(1, Ordering::SeqCst);
            }
            self.miss(|| {
                format!(
                    "read on register {register} returned tag {tag:#x} value {value:#x} \
                     (issued: {written}), below the completed frontier {frontier:#x} or its \
                     own last tag {:#x}",
                    mem.last_tag
                )
            });
        }
        mem.last_tag = mem.last_tag.max(tag);
        self.max_completed[register].fetch_max(tag, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one write to completion with `tag`, returning the value.
    fn write(c: &Checker, reg: usize, tag: u64, mem: &mut ClientMemory) -> u64 {
        let (value, frontier) = c.begin_write(reg);
        c.end_write(reg, frontier, tag, mem);
        value
    }

    #[test]
    fn a_correct_run_has_no_violations() {
        let c = Checker::new(2);
        let (mut w, mut r) = (ClientMemory::default(), ClientMemory::default());
        let v1 = write(&c, 1, 10, &mut w);
        let f = c.begin_read(1);
        c.end_read(1, f, 10, v1, &mut r);
        // A read concurrent with the next write may return either value.
        let f = c.begin_read(1);
        let v2 = write(&c, 1, 20, &mut w);
        c.end_read(1, f, 10, v1, &mut r);
        let f = c.begin_read(1);
        c.end_read(1, f, 20, v2, &mut r);
        // The untouched register still reads its initial value.
        let f = c.begin_read(0);
        c.end_read(0, f, 0, 0, &mut ClientMemory::default());
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn a_stale_read_is_caught() {
        let c = Checker::new(1);
        let mut w = ClientMemory::default();
        let v1 = write(&c, 0, 10, &mut w);
        write(&c, 0, 20, &mut w);
        // Invoked after the second write completed, yet returns the first.
        let f = c.begin_read(0);
        c.end_read(0, f, 10, v1, &mut ClientMemory::default());
        assert_eq!((c.violations(), c.stale_reads()), (1, 1));
        assert!(c
            .first_violation()
            .unwrap()
            .starts_with("read on register 0 returned tag 0xa"));
    }

    #[test]
    fn a_new_old_inversion_is_caught() {
        let c = Checker::new(1);
        let mut w = ClientMemory::default();
        let v1 = write(&c, 0, 10, &mut w);
        // The second write is still in flight while both reads run.
        let (v2, wf) = c.begin_write(0);
        let f = c.begin_read(0);
        c.end_read(0, f, 20, v2, &mut ClientMemory::default());
        assert_eq!(c.violations(), 0, "reading the in-flight write is fine");
        // A later read by another client returns the older value.
        let f = c.begin_read(0);
        c.end_read(0, f, 10, v1, &mut ClientMemory::default());
        assert_eq!((c.violations(), c.stale_reads()), (1, 1));
        c.end_write(0, wf, 20, &mut w);
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn unwritten_values_and_regressing_tags_are_caught() {
        let c = Checker::new(2);
        let mut w = ClientMemory::default();
        let v = write(&c, 0, 10, &mut w);
        // A value nobody issued.
        let f = c.begin_read(0);
        c.end_read(0, f, 10, v + 5, &mut ClientMemory::default());
        // A value issued for another register.
        let f = c.begin_read(1);
        c.end_read(1, f, 10, v, &mut ClientMemory::default());
        assert_eq!(c.violations(), 2);
        // A writer whose second tag does not exceed its first.
        write(&c, 0, 10, &mut w);
        assert_eq!((c.violations(), c.stale_reads()), (3, 0));
    }
}
