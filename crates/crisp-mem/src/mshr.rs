//! Miss-status holding registers.
//!
//! One entry per in-flight *sector*; later misses to the same sector merge
//! onto the existing entry instead of generating new traffic. Entry and
//! merge capacities are finite — when either is exhausted the LSU must stall
//! and retry, which is how L1 bandwidth pressure back-propagates into issue
//! stalls (the effect the LoD case study quantifies).

use std::collections::HashMap;
use std::io;

use crisp_trace::wire::{bad, CheckpointState, Reader, Writer};

use crate::req::ReqToken;

/// Result of asking the MSHR to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated; the caller must send a fetch to the next level.
    Allocated,
    /// Merged onto an existing in-flight fetch; no new traffic.
    Merged,
    /// Table or merge list full; caller must stall and retry.
    Full,
}

/// The MSHR table, keyed by sector address.
///
/// Waiter lists are recycled: a fill hands its list back to `spare`, and
/// the next allocation takes it from there. A list is created with room for
/// `max_merges` waiters and the table and spare pool with room for
/// `max_entries`, so once the table has seen its peak occupancy, tracking a
/// miss, merging onto it and filling it never allocate.
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: HashMap<u64, Vec<ReqToken>>,
    spare: Vec<Vec<ReqToken>>,
    max_entries: usize,
    max_merges: usize,
}

impl Mshr {
    /// A table with `max_entries` distinct in-flight sectors and up to
    /// `max_merges` waiters per sector.
    pub fn new(max_entries: usize, max_merges: usize) -> Self {
        assert!(max_entries > 0 && max_merges > 0);
        Mshr {
            entries: HashMap::with_capacity(max_entries),
            spare: Vec::with_capacity(max_entries),
            max_entries,
            max_merges,
        }
    }

    /// Track a miss on `sector_addr` for `token`.
    pub fn on_miss(&mut self, sector_addr: u64, token: ReqToken) -> MshrOutcome {
        if let Some(waiters) = self.entries.get_mut(&sector_addr) {
            if waiters.len() >= self.max_merges {
                return MshrOutcome::Full;
            }
            waiters.push(token);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.max_entries {
            return MshrOutcome::Full;
        }
        let mut waiters = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.max_merges));
        waiters.push(token);
        self.entries.insert(sector_addr, waiters);
        MshrOutcome::Allocated
    }

    /// A fill for `sector_addr` arrived: hand every waiting token to
    /// `wake`, in arrival order, and release the entry.
    pub fn on_fill(&mut self, sector_addr: u64, mut wake: impl FnMut(ReqToken)) {
        if let Some(mut waiters) = self.entries.remove(&sector_addr) {
            for t in waiters.drain(..) {
                wake(t);
            }
            self.spare.push(waiters);
        }
    }

    /// Whether a fetch for `sector_addr` is already in flight.
    pub fn is_pending(&self, sector_addr: u64) -> bool {
        self.entries.contains_key(&sector_addr)
    }

    /// Whether a miss on `sector_addr` could be tracked right now (either a
    /// new entry fits or the pending entry still has merge capacity). Lets
    /// callers test for a stall *before* touching cache statistics.
    pub fn can_accept(&self, sector_addr: u64) -> bool {
        match self.entries.get(&sector_addr) {
            Some(waiters) => waiters.len() < self.max_merges,
            None => self.entries.len() < self.max_entries,
        }
    }

    /// Number of in-flight sectors.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }
}

impl CheckpointState for Mshr {
    type SaveCtx<'a> = ();
    /// `(max_entries, max_merges)` from the configuration.
    type RestoreCtx<'a> = (usize, usize);

    fn save<W: io::Write>(&self, w: &mut Writer<W>, _: ()) -> io::Result<()> {
        // The entry map is keyed-access only, but serialize sorted by sector
        // anyway so the byte stream is deterministic.
        let mut sectors: Vec<u64> = self.entries.keys().copied().collect();
        sectors.sort_unstable();
        w.len(sectors.len())?;
        for s in sectors {
            w.u64(s)?;
            let waiters = &self.entries[&s];
            w.len(waiters.len())?;
            for t in waiters {
                t.save(w, ())?;
            }
        }
        Ok(())
    }

    fn restore<R: io::Read>(
        r: &mut Reader<R>,
        (max_entries, max_merges): (usize, usize),
    ) -> io::Result<Self> {
        if max_entries == 0 || max_merges == 0 {
            return Err(bad("mshr capacities must be positive"));
        }
        let n = r.len(max_entries)?;
        let mut entries = HashMap::with_capacity(n);
        for _ in 0..n {
            let sector = r.u64()?;
            let n_waiters = r.len(max_merges)?;
            let mut waiters = Vec::with_capacity(n_waiters);
            for _ in 0..n_waiters {
                waiters.push(ReqToken::restore(r, ())?);
            }
            if entries.insert(sector, waiters).is_some() {
                return Err(bad("duplicate mshr sector"));
            }
        }
        // Sized by the data, not the configured capacities: the buffers
        // grow back to their working sizes as the resumed run goes.
        Ok(Mshr {
            entries,
            spare: Vec::new(),
            max_entries,
            max_merges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(id: u64) -> ReqToken {
        ReqToken { sm: 0, id }
    }

    #[test]
    fn allocate_then_merge_then_fill() {
        let mut m = Mshr::new(4, 4);
        assert_eq!(m.on_miss(0x100, tok(1)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x100, tok(2)), MshrOutcome::Merged);
        assert!(m.is_pending(0x100));
        assert_eq!(m.in_flight(), 1);
        let mut waiters = Vec::new();
        m.on_fill(0x100, |t| waiters.push(t));
        assert_eq!(waiters, vec![tok(1), tok(2)]);
        assert!(!m.is_pending(0x100));
    }

    #[test]
    fn released_waiter_lists_are_reused() {
        let mut m = Mshr::new(4, 4);
        assert_eq!(m.on_miss(0x100, tok(1)), MshrOutcome::Allocated);
        m.on_fill(0x100, |_| {});
        assert_eq!(m.spare.len(), 1, "the fill parks its list");
        assert_eq!(m.on_miss(0x200, tok(2)), MshrOutcome::Allocated);
        assert!(m.spare.is_empty(), "the next allocation takes it back");
        let mut waiters = Vec::new();
        m.on_fill(0x200, |t| waiters.push(t));
        assert_eq!(waiters, vec![tok(2)], "a reused list starts empty");
    }

    #[test]
    fn entry_capacity_limits_distinct_sectors() {
        let mut m = Mshr::new(2, 8);
        assert_eq!(m.on_miss(0x000, tok(1)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x020, tok(2)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x040, tok(3)), MshrOutcome::Full);
        // Merging onto existing entries still works when the table is full.
        assert_eq!(m.on_miss(0x000, tok(4)), MshrOutcome::Merged);
    }

    #[test]
    fn merge_capacity_limits_waiters() {
        let mut m = Mshr::new(4, 2);
        assert_eq!(m.on_miss(0x0, tok(1)), MshrOutcome::Allocated);
        assert_eq!(m.on_miss(0x0, tok(2)), MshrOutcome::Merged);
        assert_eq!(m.on_miss(0x0, tok(3)), MshrOutcome::Full);
    }

    #[test]
    fn fill_of_untracked_sector_returns_empty() {
        let mut m = Mshr::new(2, 2);
        m.on_fill(0xdead, |t| panic!("untracked sector woke {t:?}"));
    }
}
