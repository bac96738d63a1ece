//! Flat set-associative storage shared by the L1 caches and the L2 tag
//! banks.
//!
//! A [`SetSlab`] is one `Vec<u64>`: a per-set index of `sets` words,
//! then one block per set touched so far, appended in touch order. A
//! set's index word is the offset of its block, or 0 while the set is
//! untouched (blocks start after the index, so no block sits at 0). A
//! block holds `ways` tags (0 = invalid way), `ways` LRU stamps and
//! `ways × payload` payload words, and is appended zeroed, so a set
//! starts with every way invalid. A fresh slab is therefore one small
//! allocation whose cost does not grow with the cache geometry, and
//! [`SetSlab::reset`] only clears the index: the blocks' capacity stays
//! for the next run and their old contents are never read again.
//!
//! Replacement is true LRU by minimum stamp. The clock strictly
//! increases, so the stamps of valid ways are distinct and which slot a
//! line occupies inside its set is unobservable.

/// One way of a [`SetSlab`]: the start of its set's block and its index
/// within the set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    base: usize,
    way: usize,
}

/// Set-associative tag/stamp/payload storage (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct SetSlab {
    words: Vec<u64>,
    sets: usize,
    ways: usize,
    payload: usize,
    clock: u64,
}

impl SetSlab {
    /// An empty slab of `sets × ways` ways with `payload` words each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub(crate) fn new(sets: usize, ways: usize, payload: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        SetSlab {
            words: vec![0; sets],
            sets,
            ways,
            payload,
            clock: 0,
        }
    }

    fn block_len(&self) -> usize {
        self.ways * (2 + self.payload)
    }

    /// Start of `set`'s block, if the set has been touched.
    fn block(&self, set: usize) -> Option<usize> {
        match self.words[set] {
            0 => None,
            base => Some(base as usize),
        }
    }

    /// The set a key (a line address) maps to.
    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// Advances the LRU clock and returns the new time.
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The valid way in `key`'s set whose tag satisfies `hit`.
    pub(crate) fn find(&self, key: u64, hit: impl Fn(u64) -> bool) -> Option<Slot> {
        let base = self.block(self.set_of(key))?;
        self.words[base..base + self.ways]
            .iter()
            .position(|&t| t != 0 && hit(t))
            .map(|way| Slot { base, way })
    }

    /// The slot a new line with `key` should fill: an invalid way of its
    /// set if there is one, else the least recently stamped way (whose
    /// tag is then still nonzero, for the caller to evict).
    pub(crate) fn victim(&mut self, key: u64) -> Slot {
        let set = self.set_of(key);
        let base = match self.block(set) {
            Some(base) => base,
            None => {
                let base = self.words.len();
                self.words.resize(base + self.block_len(), 0);
                self.words[set] = base as u64;
                base
            }
        };
        let tags = &self.words[base..base + self.ways];
        let stamps = &self.words[base + self.ways..base + 2 * self.ways];
        let way = match tags.iter().position(|&t| t == 0) {
            Some(w) => w,
            None => (0..self.ways)
                .min_by_key(|&w| stamps[w])
                .expect("nonempty set"),
        };
        Slot { base, way }
    }

    /// A slot's tag (0 when invalid).
    pub(crate) fn tag(&self, slot: Slot) -> u64 {
        self.words[slot.base + slot.way]
    }

    /// Replaces a slot's tag (0 invalidates the way).
    pub(crate) fn set_tag(&mut self, slot: Slot, tag: u64) {
        self.words[slot.base + slot.way] = tag;
    }

    /// Marks a slot most recently used at `time`.
    pub(crate) fn stamp(&mut self, slot: Slot, time: u64) {
        self.words[slot.base + self.ways + slot.way] = time;
    }

    /// Index of a slot's first payload word.
    fn payload_start(&self, slot: Slot) -> usize {
        slot.base + 2 * self.ways + slot.way * self.payload
    }

    /// A slot's payload words.
    pub(crate) fn payload(&self, slot: Slot) -> &[u64] {
        let start = self.payload_start(slot);
        &self.words[start..start + self.payload]
    }

    /// A slot's tag and payload words, both mutable.
    pub(crate) fn entry_mut(&mut self, slot: Slot) -> (&mut u64, &mut [u64]) {
        let start = self.payload_start(slot);
        let (head, rest) = self.words.split_at_mut(start);
        (&mut head[slot.base + slot.way], &mut rest[..self.payload])
    }

    /// Number of valid ways.
    pub(crate) fn resident(&self) -> usize {
        (0..self.sets)
            .filter_map(|set| self.block(set))
            .map(|base| {
                self.words[base..base + self.ways]
                    .iter()
                    .filter(|&&t| t != 0)
                    .count()
            })
            .sum()
    }

    /// Bytes of heap capacity the slab holds.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Empties every set and rewinds the clock, keeping the capacity.
    pub(crate) fn reset(&mut self) {
        self.words.truncate(self.sets);
        self.words.fill(0);
        self.clock = 0;
    }
}
