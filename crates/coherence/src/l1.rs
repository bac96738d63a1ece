//! Private L1 data cache: set-associative, LRU, MESI stable states.

use asymfence_common::ids::LineAddr;

use crate::msg::LineData;
use crate::slab::{SetSlab, Slot};

/// MESI stable states of an L1 line (`I` is represented by absence).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1State {
    /// Shared, clean.
    S,
    /// Exclusive, clean.
    E,
    /// Modified, dirty.
    M,
}

impl L1State {
    /// Whether a store can hit this state without a coherence transaction.
    pub fn writable(self) -> bool {
        matches!(self, L1State::E | L1State::M)
    }
}

/// Bits of a packed tag holding the MESI state (0 marks an invalid way).
const STATE_BITS: u32 = 2;

fn pack(line: LineAddr, state: L1State) -> u64 {
    debug_assert!(
        line.raw() >> (64 - STATE_BITS) == 0,
        "line address too wide"
    );
    let code = match state {
        L1State::S => 1,
        L1State::E => 2,
        L1State::M => 3,
    };
    (line.raw() << STATE_BITS) | code
}

fn tag_line(tag: u64) -> LineAddr {
    LineAddr::from_raw(tag >> STATE_BITS)
}

fn tag_state(tag: u64) -> L1State {
    match tag & ((1 << STATE_BITS) - 1) {
        1 => L1State::S,
        2 => L1State::E,
        _ => L1State::M,
    }
}

/// A resident line, read through [`L1Cache::peek`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct L1Line<'a> {
    /// Line address.
    pub line: LineAddr,
    /// Coherence state.
    pub state: L1State,
    /// Word values.
    pub data: &'a [u64],
}

/// A resident line, borrowed for update through [`L1Cache::lookup`].
#[derive(Debug)]
pub struct L1LineMut<'a> {
    tag: &'a mut u64,
    /// Word values.
    pub data: &'a mut [u64],
}

impl L1LineMut<'_> {
    /// Coherence state.
    pub fn state(&self) -> L1State {
        tag_state(*self.tag)
    }

    /// Changes the coherence state in place.
    pub fn set_state(&mut self, state: L1State) {
        *self.tag = pack(tag_line(*self.tag), state);
    }
}

/// What an insertion displaced.
#[derive(Clone, Debug, PartialEq)]
pub struct Evicted {
    /// Victim line address.
    pub line: LineAddr,
    /// Dirty data needing a writeback, if the victim was Modified.
    pub dirty: Option<LineData>,
}

/// A set-associative, true-LRU L1 cache.
///
/// Lines live in one flat slab: a per-set index, then a block of tags,
/// LRU stamps and line words for each set a run has touched. A way's
/// tag packs the line address with its MESI state (0 = invalid). A
/// fresh cache is one small allocation whatever its geometry, and
/// [`L1Cache::reset`] clears only the set index. Victims are the
/// minimum-stamp way, so eviction is true LRU.
///
/// # Examples
///
/// ```
/// use asymfence_coherence::l1::{L1Cache, L1State};
/// use asymfence_coherence::msg::LineData;
/// use asymfence_common::ids::LineAddr;
///
/// let mut l1 = L1Cache::new(2, 2, 4);
/// l1.insert(LineAddr::from_raw(0), L1State::E, LineData::zeroed(4));
/// assert!(l1.lookup(LineAddr::from_raw(0)).is_some());
/// assert!(l1.lookup(LineAddr::from_raw(2)).is_none()); // same set, absent
/// ```
#[derive(Clone, Debug)]
pub struct L1Cache {
    slab: SetSlab,
}

impl L1Cache {
    /// Creates a cache of `sets x ways` lines of `words_per_line` words.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(sets: usize, ways: usize, words_per_line: usize) -> Self {
        assert!(sets > 0 && ways > 0 && words_per_line > 0);
        L1Cache {
            slab: SetSlab::new(sets, ways, words_per_line),
        }
    }

    fn find(&self, line: LineAddr) -> Option<Slot> {
        self.slab.find(line.raw(), |t| tag_line(t) == line)
    }

    /// Finds a resident line and refreshes its LRU position.
    pub fn lookup(&mut self, line: LineAddr) -> Option<L1LineMut<'_>> {
        let now = self.slab.tick();
        let slot = self.find(line)?;
        self.slab.stamp(slot, now);
        let (tag, data) = self.slab.entry_mut(slot);
        Some(L1LineMut { tag, data })
    }

    /// Finds a resident line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<L1Line<'_>> {
        let slot = self.find(line)?;
        Some(L1Line {
            line,
            state: tag_state(self.slab.tag(slot)),
            data: self.slab.payload(slot),
        })
    }

    /// Inserts (or replaces) a line, returning any displaced victim.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the cache's words per line.
    pub fn insert(&mut self, line: LineAddr, state: L1State, data: LineData) -> Option<Evicted> {
        let now = self.slab.tick();
        let mut evicted = None;
        let slot = match self.find(line) {
            Some(slot) => slot,
            None => {
                let slot = self.slab.victim(line.raw());
                let tag = self.slab.tag(slot);
                if tag != 0 {
                    evicted = Some(Evicted {
                        line: tag_line(tag),
                        dirty: self.dirty_data(slot),
                    });
                }
                slot
            }
        };
        self.slab.stamp(slot, now);
        let (tag, words) = self.slab.entry_mut(slot);
        *tag = pack(line, state);
        words.copy_from_slice(&data);
        evicted
    }

    /// The slot's data if it holds a Modified line.
    fn dirty_data(&self, slot: Slot) -> Option<LineData> {
        (tag_state(self.slab.tag(slot)) == L1State::M)
            .then(|| LineData::from_words(self.slab.payload(slot)))
    }

    /// Removes a line, returning dirty data if it was Modified.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineData> {
        let slot = self.find(line)?;
        let dirty = self.dirty_data(slot);
        self.slab.set_tag(slot, 0);
        dirty
    }

    /// Downgrades an owner line to Shared, returning dirty data if it was
    /// Modified. Returns `None` if the line is absent.
    pub fn downgrade(&mut self, line: LineAddr) -> Option<Option<LineData>> {
        let slot = self.find(line)?;
        let dirty = self.dirty_data(slot);
        self.slab.set_tag(slot, pack(line, L1State::S));
        Some(dirty)
    }

    /// Number of resident lines (for tests/stats).
    pub fn resident(&self) -> usize {
        self.slab.resident()
    }

    /// Bytes of heap capacity retained across resets (for pool
    /// telemetry).
    pub fn retained_bytes(&self) -> usize {
        self.slab.capacity_bytes()
    }

    /// Empties the cache for machine reuse, keeping the slab's capacity
    /// so a warmed pool runs allocation-free.
    pub fn reset(&mut self) {
        self.slab.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(n: u64) -> LineAddr {
        LineAddr::from_raw(n)
    }

    fn ld(words: &[u64]) -> LineData {
        LineData::from_words(words)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut l1 = L1Cache::new(1, 2, 1);
        l1.insert(la(1), L1State::S, ld(&[1]));
        l1.insert(la(2), L1State::S, ld(&[2]));
        l1.lookup(la(1)); // touch 1 so 2 is LRU
        let ev = l1.insert(la(3), L1State::S, ld(&[3])).expect("eviction");
        assert_eq!(ev.line, la(2));
        assert_eq!(ev.dirty, None, "clean eviction is silent");
        assert!(l1.peek(la(1)).is_some());
        assert!(l1.peek(la(2)).is_none());
    }

    #[test]
    fn dirty_eviction_returns_data() {
        let mut l1 = L1Cache::new(1, 1, 2);
        l1.insert(la(1), L1State::M, ld(&[7, 8]));
        let ev = l1.insert(la(2), L1State::S, ld(&[0, 0])).expect("eviction");
        assert_eq!(ev.line, la(1));
        assert_eq!(ev.dirty, Some(ld(&[7, 8])));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut l1 = L1Cache::new(1, 1, 1);
        l1.insert(la(1), L1State::S, ld(&[1]));
        assert!(l1.insert(la(1), L1State::M, ld(&[2])).is_none());
        let line = l1.peek(la(1)).unwrap();
        assert_eq!(line.state, L1State::M);
        assert_eq!(line.data, &[2]);
        assert_eq!(l1.resident(), 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut l1 = L1Cache::new(2, 2, 1);
        l1.insert(la(0), L1State::M, ld(&[9]));
        l1.insert(la(1), L1State::S, ld(&[4]));
        assert_eq!(l1.invalidate(la(0)), Some(ld(&[9])));
        assert_eq!(l1.invalidate(la(1)), None);
        assert_eq!(l1.invalidate(la(5)), None, "absent line");
        assert_eq!(l1.resident(), 0);
    }

    #[test]
    fn downgrade_keeps_line_shared() {
        let mut l1 = L1Cache::new(1, 2, 1);
        l1.insert(la(1), L1State::M, ld(&[3]));
        assert_eq!(l1.downgrade(la(1)), Some(Some(ld(&[3]))));
        assert_eq!(l1.peek(la(1)).unwrap().state, L1State::S);
        assert_eq!(l1.downgrade(la(1)), Some(None), "already clean");
        assert_eq!(l1.downgrade(la(9)), None, "absent");
    }

    #[test]
    fn sets_are_independent() {
        let mut l1 = L1Cache::new(2, 1, 1);
        l1.insert(la(0), L1State::S, ld(&[0])); // set 0
        l1.insert(la(1), L1State::S, ld(&[1])); // set 1
        assert_eq!(l1.resident(), 2);
        // Same set as line 0 evicts only from set 0.
        let ev = l1.insert(la(2), L1State::S, ld(&[2])).unwrap();
        assert_eq!(ev.line, la(0));
        assert!(l1.peek(la(1)).is_some());
    }

    #[test]
    fn writable_states() {
        assert!(!L1State::S.writable());
        assert!(L1State::E.writable());
        assert!(L1State::M.writable());
    }
}
