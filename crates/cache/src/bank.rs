//! A single cache bank.
//!
//! A bank stores `ways × sets` frames. Uniform designs use 64 KB
//! direct-mapped banks (1 way × 1024 sets); the non-uniform halo and
//! mesh designs use banks of 2, 4, or 8 ways. Within a bank, the ways of
//! a set are kept in recency order (position 0 = most recently arrived),
//! so a multi-way bank behaves as one segment of the distributed LRU
//! stack: it accepts pushed-down blocks at its top and evicts from its
//! bottom.
//!
//! All frames live in one contiguous allocation, set after set
//! (`frames[set * ways + way]`): building, clearing and dropping a bank
//! cost one allocation and one linear pass whatever its geometry.

/// One cached block: its tag and dirty bit. (Data values are not
/// simulated; only placement and movement matter.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// Address tag.
    pub tag: u32,
    /// Set when the block has been written since it was fetched.
    pub dirty: bool,
}

/// The flat index range of `set` in a `sets × ways` set-major array.
/// The explicit range check is what both flat containers rely on: a
/// position is then checked against the `ways`-long slice, so neither
/// an out-of-range `set` nor an out-of-range position can alias a
/// neighbouring set.
pub(crate) fn set_range(set: usize, sets: usize, ways: usize) -> std::ops::Range<usize> {
    assert!(set < sets, "set {set} out of range ({sets} sets)");
    set * ways..(set + 1) * ways
}

/// Removes and returns the frame at `pos` of a recency-ordered slice;
/// the survivors keep their order and the hole sinks to the bottom, so
/// the next pushed-down block fills from the top.
pub(crate) fn extract_at(ways: &mut [Option<Block>], pos: usize) -> Option<Block> {
    ways[pos..].rotate_left(1);
    ways.last_mut().and_then(Option::take)
}

/// Pushes `block` onto the top of a recency-ordered slice. The
/// bottom-most empty frame absorbs the push; a full slice evicts and
/// returns its bottom block.
pub(crate) fn push_top(ways: &mut [Option<Block>], block: Block) -> Option<Block> {
    let end = ways
        .iter()
        .rposition(Option::is_none)
        .unwrap_or(ways.len() - 1);
    ways[..=end].rotate_right(1);
    ways[0].replace(block)
}

/// A bank of `ways × sets` frames with per-set recency order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    ways: usize,
    sets: usize,
    /// `frames[set * ways + way]`: each set's ways in recency order,
    /// `None` = empty frame.
    frames: Vec<Option<Block>>,
}

impl Bank {
    /// Creates an empty bank.
    ///
    /// # Panics
    ///
    /// Panics if `ways` or `sets` is zero.
    pub fn new(ways: usize, sets: usize) -> Self {
        assert!(ways >= 1, "bank needs at least one way");
        assert!(sets >= 1, "bank needs at least one set");
        Bank {
            ways,
            sets,
            frames: vec![None; ways * sets],
        }
    }

    /// Associativity of this bank.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    fn set(&self, set: usize) -> &[Option<Block>] {
        &self.frames[set_range(set, self.sets, self.ways)]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Option<Block>] {
        &mut self.frames[set_range(set, self.sets, self.ways)]
    }

    /// Whether `tag` is present in `set` (tag match; no state change).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range, as does every method taking a
    /// `set`.
    pub fn probe(&self, set: usize, tag: u32) -> bool {
        self.set(set).iter().flatten().any(|b| b.tag == tag)
    }

    /// Removes and returns the block with `tag` from `set`, leaving a
    /// hole. Used when a hit block departs toward the MRU bank.
    pub fn extract(&mut self, set: usize, tag: u32) -> Option<Block> {
        let ways = self.set_mut(set);
        let pos = ways.iter().position(|b| b.is_some_and(|b| b.tag == tag))?;
        extract_at(ways, pos)
    }

    /// Marks `tag` dirty in `set`; returns whether it was present.
    pub fn mark_dirty(&mut self, set: usize, tag: u32) -> bool {
        for b in self.set_mut(set).iter_mut().flatten() {
            if b.tag == tag {
                b.dirty = true;
                return true;
            }
        }
        false
    }

    /// Pushes `block` onto the top (most recent way) of `set`, evicting
    /// and returning the bottom block when the set is full. Empty frames
    /// absorb the push without eviction.
    pub fn push_top(&mut self, set: usize, block: Block) -> Option<Block> {
        push_top(self.set_mut(set), block)
    }

    /// The block currently at the bottom (least recent way) of `set`.
    pub fn peek_bottom(&self, set: usize) -> Option<Block> {
        self.set(set).iter().rev().flatten().next().copied()
    }

    /// Removes and returns the bottom (least recent) block of `set`,
    /// leaving a hole. This is the Fast-LRU eviction a bank performs
    /// right after detecting its own miss (§3.2): the departing block
    /// travels to the next bank while the hole awaits the block pushed
    /// down from the previous bank.
    pub fn evict_bottom(&mut self, set: usize) -> Option<Block> {
        // Everything below the last block is already a hole, so taking
        // it in place leaves the hole at the bottom.
        self.set_mut(set).iter_mut().rev().find_map(Option::take)
    }

    /// Moves `tag` to the top of its set (an internal-hit touch).
    /// Returns whether the tag was present.
    pub fn touch(&mut self, set: usize, tag: u32) -> bool {
        let Some(blk) = self.extract(set, tag) else {
            return false;
        };
        // extract left a trailing hole, so this cannot evict.
        let evicted = self.push_top(set, blk);
        debug_assert!(evicted.is_none());
        true
    }

    /// Overwrites `set` with the given frames (recency order, `None` =
    /// hole). Used to preload warmed cache contents into a timed
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len()` differs from the bank's way count.
    pub fn load_set(&mut self, set: usize, frames: &[Option<Block>]) {
        assert_eq!(
            frames.len(),
            self.ways,
            "frame count must equal associativity"
        );
        self.set_mut(set).copy_from_slice(frames);
    }

    /// Empties every frame in place, returning the bank to its
    /// just-constructed state without touching the frame storage: the
    /// warm-reset path's way of reusing a bank across sweep points.
    pub fn clear(&mut self) {
        self.frames.fill(None);
    }

    /// All blocks of `set` in recency order (holes skipped).
    pub fn blocks(&self, set: usize) -> Vec<Block> {
        self.set(set).iter().flatten().copied().collect()
    }

    /// Number of valid blocks in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.set(set).iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(tag: u32) -> Block {
        Block { tag, dirty: false }
    }

    #[test]
    fn probe_empty_bank() {
        let bank = Bank::new(2, 4);
        assert!(!bank.probe(0, 1));
        assert_eq!(bank.occupancy(0), 0);
    }

    #[test]
    fn push_fills_then_evicts_bottom() {
        let mut bank = Bank::new(2, 1);
        assert_eq!(bank.push_top(0, b(1)), None);
        assert_eq!(bank.push_top(0, b(2)), None);
        // Full: pushing 3 evicts the oldest (1).
        assert_eq!(bank.push_top(0, b(3)), Some(b(1)));
        assert_eq!(bank.blocks(0), vec![b(3), b(2)]);
    }

    #[test]
    fn extract_leaves_hole_and_preserves_order() {
        let mut bank = Bank::new(3, 1);
        bank.push_top(0, b(1));
        bank.push_top(0, b(2));
        bank.push_top(0, b(3)); // order: 3,2,1
        assert_eq!(bank.extract(0, 2), Some(b(2)));
        assert_eq!(bank.blocks(0), vec![b(3), b(1)]);
        assert_eq!(bank.occupancy(0), 2);
        // The hole absorbs the next push without eviction.
        assert_eq!(bank.push_top(0, b(4)), None);
        assert_eq!(bank.blocks(0), vec![b(4), b(3), b(1)]);
    }

    #[test]
    fn extract_missing_tag_is_none() {
        let mut bank = Bank::new(1, 1);
        assert_eq!(bank.extract(0, 5), None);
    }

    #[test]
    fn touch_moves_to_top() {
        let mut bank = Bank::new(3, 1);
        bank.push_top(0, b(1));
        bank.push_top(0, b(2));
        bank.push_top(0, b(3));
        assert!(bank.touch(0, 1));
        assert_eq!(bank.blocks(0), vec![b(1), b(3), b(2)]);
        assert!(!bank.touch(0, 9));
    }

    #[test]
    fn mark_dirty() {
        let mut bank = Bank::new(2, 2);
        bank.push_top(1, b(7));
        assert!(bank.mark_dirty(1, 7));
        assert!(!bank.mark_dirty(1, 8));
        assert_eq!(
            bank.blocks(1),
            vec![Block {
                tag: 7,
                dirty: true
            }]
        );
        // Other set untouched.
        assert_eq!(bank.occupancy(0), 0);
    }

    #[test]
    fn peek_bottom_sees_oldest() {
        let mut bank = Bank::new(2, 1);
        assert_eq!(bank.peek_bottom(0), None);
        bank.push_top(0, b(1));
        bank.push_top(0, b(2));
        assert_eq!(bank.peek_bottom(0), Some(b(1)));
    }

    #[test]
    fn sets_are_independent() {
        let mut bank = Bank::new(1, 3);
        bank.push_top(0, b(1));
        bank.push_top(2, b(2));
        assert!(bank.probe(0, 1));
        assert!(!bank.probe(1, 1));
        assert!(bank.probe(2, 2));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = Bank::new(0, 4);
    }

    #[test]
    fn evict_bottom_removes_oldest() {
        let mut bank = Bank::new(3, 1);
        bank.push_top(0, b(1));
        bank.push_top(0, b(2));
        assert_eq!(bank.evict_bottom(0), Some(b(1)));
        assert_eq!(bank.blocks(0), vec![b(2)]);
        // The hole absorbs the next push.
        assert_eq!(bank.push_top(0, b(3)), None);
        assert_eq!(bank.evict_bottom(0), Some(b(2)));
        assert_eq!(bank.evict_bottom(0), Some(b(3)));
        assert_eq!(bank.evict_bottom(0), None);
    }

    #[test]
    fn direct_mapped_bank_replaces_immediately() {
        let mut bank = Bank::new(1, 2);
        assert_eq!(bank.push_top(0, b(1)), None);
        assert_eq!(bank.push_top(0, b(2)), Some(b(1)));
    }

    #[test]
    #[should_panic(expected = "set 4 out of range")]
    fn out_of_range_set_panics_on_write() {
        let mut bank = Bank::new(2, 4);
        bank.push_top(4, b(1));
    }

    #[test]
    #[should_panic(expected = "set 2 out of range")]
    fn out_of_range_set_panics_on_read() {
        let bank = Bank::new(4, 2);
        let _ = bank.probe(2, 0);
    }

    #[test]
    #[should_panic(expected = "frame count must equal associativity")]
    fn load_set_rejects_wrong_width() {
        let mut bank = Bank::new(2, 2);
        bank.load_set(0, &[None; 3]);
    }

    /// The nested one-`Vec`-per-set bank this crate used before the flat
    /// layout, kept as the reference the flat [`Bank`] is fuzzed against.
    struct NestedBank {
        frames: Vec<Vec<Option<Block>>>,
    }

    impl NestedBank {
        fn new(ways: usize, sets: usize) -> Self {
            NestedBank {
                frames: vec![vec![None; ways]; sets],
            }
        }

        fn probe(&self, set: usize, tag: u32) -> bool {
            self.frames[set].iter().flatten().any(|b| b.tag == tag)
        }

        fn extract(&mut self, set: usize, tag: u32) -> Option<Block> {
            let ways = &mut self.frames[set];
            let pos = ways.iter().position(|b| b.is_some_and(|b| b.tag == tag))?;
            let blk = ways.remove(pos);
            ways.push(None);
            blk
        }

        fn mark_dirty(&mut self, set: usize, tag: u32) -> bool {
            for b in self.frames[set].iter_mut().flatten() {
                if b.tag == tag {
                    b.dirty = true;
                    return true;
                }
            }
            false
        }

        fn push_top(&mut self, set: usize, block: Block) -> Option<Block> {
            let ways = &mut self.frames[set];
            let evicted = if let Some(hole) = ways.iter().rposition(Option::is_none) {
                ways.remove(hole);
                None
            } else {
                ways.pop().expect("ways is non-empty")
            };
            ways.insert(0, Some(block));
            evicted
        }

        fn evict_bottom(&mut self, set: usize) -> Option<Block> {
            let ways = &mut self.frames[set];
            let pos = ways.iter().rposition(|b| b.is_some())?;
            let blk = ways.remove(pos);
            ways.push(None);
            blk
        }

        fn touch(&mut self, set: usize, tag: u32) -> bool {
            let Some(blk) = self.extract(set, tag) else {
                return false;
            };
            self.push_top(set, blk);
            true
        }

        fn load_set(&mut self, set: usize, frames: &[Option<Block>]) {
            self.frames[set].clear();
            self.frames[set].extend_from_slice(frames);
        }

        fn clear(&mut self) {
            for set in &mut self.frames {
                set.fill(None);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Every operation returns the same value on the flat bank as on
        /// the nested reference, and leaves every set — holes included —
        /// with the same frames.
        #[test]
        fn flat_bank_matches_nested_reference(
            ways in 1usize..9,
            sets in 1usize..5,
            ops in proptest::collection::vec(
                (0u8..9, 0usize..4, 0u32..12, proptest::bool::ANY, 0u64..u64::MAX),
                1..200,
            ),
        ) {
            let mut flat = Bank::new(ways, sets);
            let mut nested = NestedBank::new(ways, sets);
            for (op, set, tag, dirty, bits) in ops {
                let set = set % sets;
                let block = Block { tag, dirty };
                match op {
                    0 => assert_eq!(flat.probe(set, tag), nested.probe(set, tag)),
                    1 => assert_eq!(flat.extract(set, tag), nested.extract(set, tag)),
                    // Twice as many pushes as any other op, so sets fill.
                    2 | 3 => assert_eq!(flat.push_top(set, block), nested.push_top(set, block)),
                    4 => assert_eq!(flat.evict_bottom(set), nested.evict_bottom(set)),
                    5 => assert_eq!(flat.touch(set, tag), nested.touch(set, tag)),
                    6 => assert_eq!(flat.mark_dirty(set, tag), nested.mark_dirty(set, tag)),
                    7 => {
                        // Arbitrary frames, holes anywhere: way `w` is
                        // occupied when bit `w` of `bits` is set.
                        let frames: Vec<Option<Block>> = (0..ways)
                            .map(|w| {
                                (bits >> w & 1 == 1).then_some(Block {
                                    tag: tag + w as u32,
                                    dirty: bits >> (w + 8) & 1 == 1,
                                })
                            })
                            .collect();
                        flat.load_set(set, &frames);
                        nested.load_set(set, &frames);
                    }
                    // Rare: most sequences should build up state.
                    _ if bits % 8 == 0 => {
                        flat.clear();
                        nested.clear();
                        assert_eq!(flat, Bank::new(ways, sets), "clear() == fresh");
                    }
                    _ => {}
                }
                for s in 0..sets {
                    assert_eq!(flat.set(s), &nested.frames[s][..], "set {s} after op {op}");
                    assert_eq!(
                        flat.peek_bottom(s),
                        nested.frames[s].iter().rev().flatten().next().copied()
                    );
                }
            }
        }
    }
}
