//! The position-stack model of one distributed bank set.
//!
//! A bank set is the paper's unit of associativity: one mesh column or
//! halo spike whose banks together hold the `W` ways of every set, in
//! distance order — position 0 lives in the bank closest to the core
//! (MRU bank), position `W-1` in the farthest (LRU bank).
//!
//! Replacement policies:
//!
//! * **LRU / Fast-LRU** — a hit moves the block to position 0 and shifts
//!   the intervening blocks one position away from the core; a miss
//!   installs at position 0, shifts everything, and evicts position
//!   `W-1`. Fast-LRU (§3.2) performs exactly these movements, merely
//!   overlapped with tag-matching, so the two are functionally one
//!   policy.
//! * **Promotion** (D-NUCA) — a hit swaps the block with the one in the
//!   next-closer position; a miss installs at position 0 with recursive
//!   push-down (the paper's implementation, §6.1 footnote).
//!
//! Every stack lives in one contiguous allocation, set after set
//! (`stack[set * ways + position]`), and the model lists the sets it
//! has touched, so a model that replayed a short trace can be read out
//! and emptied again in time proportional to the trace, not the cache.

use crate::bank::{extract_at, push_top, set_range, Block};

/// Replacement policy of a bank set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// D-NUCA promotion: hit blocks move one bank closer (swap).
    Promotion,
    /// Full LRU ordering across the bank set.
    Lru,
    /// Fast-LRU: same ordering as LRU, replacement overlapped with
    /// tag-match in the timed protocol.
    FastLru,
}

impl ReplacementPolicy {
    /// Whether the functional block movement equals LRU's.
    pub fn orders_like_lru(self) -> bool {
        matches!(self, ReplacementPolicy::Lru | ReplacementPolicy::FastLru)
    }
}

/// Outcome of one functional access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was found at stack `position` (0 = MRU bank).
    Hit {
        /// Way position prior to the access.
        position: usize,
    },
    /// The block was absent; it has been installed at position 0.
    Miss {
        /// The evicted LRU block, if the set was full. Dirty evictions
        /// must be written back.
        evicted: Option<Block>,
    },
}

impl AccessResult {
    /// True for [`AccessResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit { .. })
    }
}

/// Functional model of one bank set (all sets of one column).
#[derive(Debug, Clone)]
pub struct BankSetModel {
    ways: usize,
    sets: usize,
    policy: ReplacementPolicy,
    /// Ways per bank along the column, MRU bank first. Promotion moves
    /// blocks at *bank* granularity (D-NUCA), so multi-way banks change
    /// its behaviour; LRU/Fast-LRU are segment-agnostic.
    segments: Vec<usize>,
    /// `stack[set * ways + position]`; position 0 is the MRU (closest)
    /// way.
    stack: Vec<Option<Block>>,
    /// The sets holding at least one block, in first-touch order. An
    /// access never empties a set, so these are exactly the sets
    /// accessed since construction or the last [`BankSetModel::clear`].
    /// Capacity `sets` from the start: `access` never allocates.
    touched: Vec<usize>,
}

/// Two models are equal when they have the same geometry, policy and
/// contents; the order in which their sets were first touched is not
/// part of their value.
impl PartialEq for BankSetModel {
    fn eq(&self, other: &Self) -> bool {
        self.sets == other.sets
            && self.policy == other.policy
            && self.segments == other.segments
            && self.stack == other.stack
    }
}

impl Eq for BankSetModel {}

impl BankSetModel {
    /// Creates an empty bank set of `ways` ways × `sets` sets, with
    /// one-way banks (the paper's Designs A/B/E geometry).
    ///
    /// # Panics
    ///
    /// Panics if `ways` or `sets` is zero.
    pub fn new(ways: usize, sets: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways >= 1, "bank set needs at least one way");
        Self::with_segments(vec![1; ways], sets, policy)
    }

    /// Creates an empty bank set whose ways are grouped into banks of
    /// the given sizes (e.g. `[1, 1, 2, 4, 8]` for Designs D/F).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, contains a zero, or `sets` is 0.
    pub fn with_segments(segments: Vec<usize>, sets: usize, policy: ReplacementPolicy) -> Self {
        assert!(!segments.is_empty(), "bank set needs at least one bank");
        assert!(
            segments.iter().all(|&w| w >= 1),
            "banks need at least one way"
        );
        assert!(sets >= 1, "bank set needs at least one set");
        let ways = segments.iter().sum();
        BankSetModel {
            ways,
            sets,
            policy,
            segments,
            stack: vec![None; ways * sets],
            touched: Vec::with_capacity(sets),
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Sets per bank.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Performs one access to (`set`, `tag`); `write` marks dirty.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn access(&mut self, set: usize, tag: u32, write: bool) -> AccessResult {
        let stack = &mut self.stack[set_range(set, self.sets, self.ways)];
        if let Some(pos) = stack.iter().position(|b| b.is_some_and(|b| b.tag == tag)) {
            if write {
                stack[pos].as_mut().expect("position found above").dirty = true;
            }
            match self.policy {
                ReplacementPolicy::Promotion => Self::promote(&self.segments, stack, pos),
                ReplacementPolicy::Lru | ReplacementPolicy::FastLru => {
                    stack[..=pos].rotate_right(1);
                }
            }
            return AccessResult::Hit { position: pos };
        }
        if stack.iter().all(Option::is_none) {
            self.touched.push(set);
        }
        // Miss: install at MRU, push everything down, evict the LRU.
        stack.rotate_right(1);
        let evicted = stack[0].replace(Block { tag, dirty: write });
        AccessResult::Miss { evicted }
    }

    /// D-NUCA promotion at bank granularity: the hit block moves onto
    /// the *top* of the next-closer bank; that bank's bottom block
    /// descends onto the top of the hit bank. With one-way banks this
    /// degenerates to the classic position swap. Mirrors the timed
    /// protocol's extract/push_top operations on the two banks' slices
    /// of the stack.
    fn promote(segments: &[usize], stack: &mut [Option<Block>], pos: usize) {
        // `off`: stack position of the hit bank's top.
        let (mut bank, mut off) = (0usize, 0usize);
        while pos >= off + segments[bank] {
            off += segments[bank];
            bank += 1;
        }
        if bank == 0 {
            // Hit in the MRU bank: internal touch to its top.
            stack[..=pos].rotate_right(1);
            return;
        }
        let (closer, farther) = stack.split_at_mut(off);
        let prev_bank = &mut closer[off - segments[bank - 1]..];
        let hit_bank = &mut farther[..segments[bank]];
        // Extract the hit block; the hole sinks to the bank's bottom.
        let hit = extract_at(hit_bank, pos - off).expect("caller found the tag at pos");
        // Push it onto the previous bank's top; a bottom hole absorbs
        // it, otherwise the bottom block is displaced and descends onto
        // the hit bank's top, filling the extraction hole.
        if let Some(displaced) = push_top(prev_bank, hit) {
            let overflow = push_top(hit_bank, displaced);
            debug_assert!(overflow.is_none(), "extraction left a hole");
        }
    }

    /// Block at (`set`, `position`), if any.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `position` is out of range.
    pub fn block_at(&self, set: usize, position: usize) -> Option<Block> {
        self.stack_of(set)[position]
    }

    /// The full stack of `set` (holes included) in position order.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn stack_of(&self, set: usize) -> &[Option<Block>] {
        &self.stack[set_range(set, self.sets, self.ways)]
    }

    /// Number of resident blocks in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        self.stack_of(set).iter().flatten().count()
    }

    /// The sets accessed since construction or the last
    /// [`BankSetModel::clear`], each once, in first-touch order. Every
    /// other set is empty.
    pub fn touched_sets(&self) -> &[usize] {
        &self.touched
    }

    /// Empties the model in time proportional to the touched sets,
    /// keeping its storage: afterwards it equals a freshly constructed
    /// model of the same geometry and policy.
    pub fn clear(&mut self) {
        for &set in &self.touched {
            self.stack[set_range(set, self.sets, self.ways)].fill(None);
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(m: &BankSetModel, set: usize) -> Vec<Option<u32>> {
        m.stack_of(set).iter().map(|b| b.map(|b| b.tag)).collect()
    }

    #[test]
    fn cold_miss_installs_at_mru() {
        let mut m = BankSetModel::new(4, 1, ReplacementPolicy::Lru);
        let r = m.access(0, 10, false);
        assert_eq!(r, AccessResult::Miss { evicted: None });
        assert_eq!(tags(&m, 0), vec![Some(10), None, None, None]);
    }

    #[test]
    fn lru_hit_moves_to_front_and_shifts() {
        let mut m = BankSetModel::new(4, 1, ReplacementPolicy::Lru);
        for t in [1, 2, 3, 4] {
            m.access(0, t, false);
        }
        // Stack: 4,3,2,1. Hit on 2 (position 2).
        let r = m.access(0, 2, false);
        assert_eq!(r, AccessResult::Hit { position: 2 });
        assert_eq!(tags(&m, 0), vec![Some(2), Some(4), Some(3), Some(1)]);
    }

    #[test]
    fn promotion_hit_swaps_one_position() {
        let mut m = BankSetModel::new(4, 1, ReplacementPolicy::Promotion);
        for t in [1, 2, 3, 4] {
            m.access(0, t, false);
        }
        // Stack: 4,3,2,1. Promotion hit on 1 (position 3) swaps with 2.
        let r = m.access(0, 1, false);
        assert_eq!(r, AccessResult::Hit { position: 3 });
        assert_eq!(tags(&m, 0), vec![Some(4), Some(3), Some(1), Some(2)]);
    }

    #[test]
    fn promotion_hit_at_mru_is_stable() {
        let mut m = BankSetModel::new(2, 1, ReplacementPolicy::Promotion);
        m.access(0, 1, false);
        let r = m.access(0, 1, false);
        assert_eq!(r, AccessResult::Hit { position: 0 });
        assert_eq!(tags(&m, 0), vec![Some(1), None]);
    }

    #[test]
    fn full_set_miss_evicts_lru() {
        let mut m = BankSetModel::new(2, 1, ReplacementPolicy::Lru);
        m.access(0, 1, false);
        m.access(0, 2, false);
        let r = m.access(0, 3, false);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some(Block {
                    tag: 1,
                    dirty: false
                })
            }
        );
        assert_eq!(tags(&m, 0), vec![Some(3), Some(2)]);
    }

    #[test]
    fn dirty_block_evicts_dirty() {
        let mut m = BankSetModel::new(1, 1, ReplacementPolicy::Lru);
        m.access(0, 1, true);
        let r = m.access(0, 2, false);
        assert_eq!(
            r,
            AccessResult::Miss {
                evicted: Some(Block {
                    tag: 1,
                    dirty: true
                })
            }
        );
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut m = BankSetModel::new(2, 1, ReplacementPolicy::Lru);
        m.access(0, 1, false);
        m.access(0, 1, true);
        assert_eq!(
            m.block_at(0, 0),
            Some(Block {
                tag: 1,
                dirty: true
            })
        );
    }

    #[test]
    fn fastlru_equals_lru_functionally() {
        let mut lru = BankSetModel::new(8, 4, ReplacementPolicy::Lru);
        let mut fast = BankSetModel::new(8, 4, ReplacementPolicy::FastLru);
        // Deterministic pseudo-random access pattern.
        let mut x: u32 = 12345;
        for _ in 0..5_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let set = (x >> 8) as usize % 4;
            let tag = (x >> 16) % 12;
            let write = x.is_multiple_of(3);
            assert_eq!(lru.access(set, tag, write), fast.access(set, tag, write));
        }
        assert_eq!(lru.stack, fast.stack);
        assert_eq!(lru.touched_sets(), fast.touched_sets());
    }

    #[test]
    fn lru_beats_promotion_hit_rate_under_locality() {
        // Stack-distance-skewed workload: LRU keeps the hot set compact,
        // promotion converges slowly (the paper reports 14% better hit
        // rate for LRU).
        let mut lru = BankSetModel::new(4, 1, ReplacementPolicy::Lru);
        let mut promo = BankSetModel::new(4, 1, ReplacementPolicy::Promotion);
        let mut hits = [0u32; 2];
        let mut x: u32 = 99;
        for _ in 0..20_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            // 6-tag working set over 4 ways, skewed toward low tags.
            let r = (x >> 10) % 100;
            let tag = match r {
                0..=44 => 0,
                45..=69 => 1,
                70..=84 => 2,
                85..=92 => 3,
                93..=97 => 4,
                _ => 5,
            };
            if lru.access(0, tag, false).is_hit() {
                hits[0] += 1;
            }
            if promo.access(0, tag, false).is_hit() {
                hits[1] += 1;
            }
        }
        assert!(
            hits[0] >= hits[1],
            "LRU {} vs Promotion {}",
            hits[0],
            hits[1]
        );
    }

    #[test]
    fn occupancy_counts_blocks() {
        let mut m = BankSetModel::new(4, 2, ReplacementPolicy::Lru);
        assert_eq!(m.occupancy(0), 0);
        m.access(0, 1, false);
        m.access(0, 2, false);
        m.access(1, 3, false);
        assert_eq!(m.occupancy(0), 2);
        assert_eq!(m.occupancy(1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = BankSetModel::new(0, 1, ReplacementPolicy::Lru);
    }

    #[test]
    fn segment_promotion_moves_bank_granular() {
        // Banks of [1, 1, 2]: stack positions 0 | 1 | 2,3.
        let mut m = BankSetModel::with_segments(vec![1, 1, 2], 1, ReplacementPolicy::Promotion);
        for t in [1, 2, 3, 4] {
            m.access(0, t, false);
        }
        // Stack: 4 | 3 | 2,1. Hit tag 1 at position 3 (bank 2): the hit
        // block mounts bank 1's top; bank 1's block (3) descends onto
        // bank 2's top.
        let r = m.access(0, 1, false);
        assert_eq!(r, AccessResult::Hit { position: 3 });
        assert_eq!(tags(&m, 0), vec![Some(4), Some(1), Some(3), Some(2)]);
    }

    #[test]
    fn segment_promotion_within_mru_bank_touches() {
        // One 4-way MRU bank: an internal hit moves to its top.
        let mut m = BankSetModel::with_segments(vec![4], 1, ReplacementPolicy::Promotion);
        for t in [1, 2, 3] {
            m.access(0, t, false);
        }
        m.access(0, 1, false); // hit at position 2
        assert_eq!(tags(&m, 0), vec![Some(1), Some(3), Some(2), None]);
    }

    #[test]
    fn segment_promotion_into_holey_prev_bank() {
        // Previous bank with a hole absorbs the promoted block.
        let mut m = BankSetModel::with_segments(vec![2, 2], 1, ReplacementPolicy::Promotion);
        // Fill only 3 ways: stack 3 | 2 | 1 | hole... build carefully:
        m.access(0, 1, false); // 1,_,_,_
        m.access(0, 2, false); // 2,1,_,_
        m.access(0, 3, false); // 3,2,1,_
                               // Hit tag 1 at position 2 (bank 1): bank 0 is full -> its bottom
                               // (2) descends; bank 1 becomes [2, hole].
        m.access(0, 1, false);
        assert_eq!(tags(&m, 0), vec![Some(1), Some(3), Some(2), None]);
    }

    #[test]
    #[should_panic(expected = "set 2 out of range")]
    fn out_of_range_set_panics() {
        let mut m = BankSetModel::new(4, 2, ReplacementPolicy::Lru);
        m.access(2, 1, false);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_position_does_not_alias_the_next_set() {
        // Flat index 0 * 4 + 4 is set 1's MRU way; the per-set slice
        // must refuse it.
        let mut m = BankSetModel::new(4, 2, ReplacementPolicy::Lru);
        m.access(1, 7, false);
        let _ = m.block_at(0, 4);
    }

    #[test]
    fn equality_ignores_touch_order() {
        let mut a = BankSetModel::new(2, 4, ReplacementPolicy::Lru);
        let mut b = a.clone();
        for set in [0, 3, 1] {
            a.access(set, 5, false);
        }
        for set in [1, 0, 3] {
            b.access(set, 5, false);
        }
        assert_ne!(a.touched_sets(), b.touched_sets());
        assert_eq!(a, b);
        b.access(2, 5, false);
        assert_ne!(a, b);
    }

    /// The nested one-`Vec`-per-set model (and its scratch-`Vec`
    /// `promote`) this crate used before the flat layout, kept as the
    /// reference the flat [`BankSetModel`] is fuzzed against.
    struct NestedModel {
        policy: ReplacementPolicy,
        segments: Vec<usize>,
        stack: Vec<Vec<Option<Block>>>,
    }

    impl NestedModel {
        fn new(segments: Vec<usize>, sets: usize, policy: ReplacementPolicy) -> Self {
            let ways = segments.iter().sum();
            NestedModel {
                policy,
                segments,
                stack: vec![vec![None; ways]; sets],
            }
        }

        fn access(&mut self, set: usize, tag: u32, write: bool) -> AccessResult {
            let ways = &mut self.stack[set];
            if let Some(pos) = ways.iter().position(|b| b.is_some_and(|b| b.tag == tag)) {
                if write {
                    ways[pos].as_mut().expect("position found above").dirty = true;
                }
                match self.policy {
                    ReplacementPolicy::Promotion => Self::promote(&self.segments, ways, pos),
                    ReplacementPolicy::Lru | ReplacementPolicy::FastLru => {
                        let blk = ways.remove(pos);
                        ways.insert(0, blk);
                    }
                }
                return AccessResult::Hit { position: pos };
            }
            let evicted = ways.pop().expect("ways is non-empty");
            ways.insert(0, Some(Block { tag, dirty: write }));
            AccessResult::Miss { evicted }
        }

        fn promote(segments: &[usize], ways: &mut Vec<Option<Block>>, pos: usize) {
            let mut banks: Vec<Vec<Option<Block>>> = Vec::with_capacity(segments.len());
            let mut off = 0usize;
            let mut bank = 0usize;
            for (i, &w) in segments.iter().enumerate() {
                banks.push(ways[off..off + w].to_vec());
                if (off..off + w).contains(&pos) {
                    bank = i;
                }
                off += w;
            }
            if bank == 0 {
                let blk = ways.remove(pos);
                ways.insert(0, blk);
                return;
            }
            let within = pos - segments[..bank].iter().sum::<usize>();
            let hit = banks[bank].remove(within);
            banks[bank].push(None);
            let displaced = {
                let pb = &mut banks[bank - 1];
                let out = if let Some(h) = pb.iter().rposition(Option::is_none) {
                    pb.remove(h);
                    None
                } else {
                    pb.pop().expect("banks have at least one way")
                };
                pb.insert(0, hit);
                out
            };
            if let Some(d) = displaced {
                let hb = &mut banks[bank];
                let h = hb
                    .iter()
                    .rposition(Option::is_none)
                    .expect("extraction left a hole");
                hb.remove(h);
                hb.insert(0, Some(d));
            }
            *ways = banks.concat();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Under every policy and bank segmentation, each access returns
        /// the same result on the flat model as on the nested reference
        /// and leaves every set with the same stack; the touched list is
        /// exactly the distinct sets accessed; `clear()` restores a
        /// fresh model.
        #[test]
        fn flat_model_matches_nested_reference(
            policy_idx in 0usize..3,
            segments_idx in 0usize..4,
            sets in 1usize..6,
            // Up to 24 tags over at most 16 ways: hits, holes and
            // evictions all occur.
            ops in proptest::collection::vec((0usize..6, 0u32..24, proptest::bool::ANY), 1..400),
        ) {
            let policy = [
                ReplacementPolicy::Promotion,
                ReplacementPolicy::Lru,
                ReplacementPolicy::FastLru,
            ][policy_idx];
            let segments = [vec![1; 16], vec![1, 1, 2, 4, 8], vec![4], vec![2, 2]][segments_idx].clone();
            let mut flat = BankSetModel::with_segments(segments.clone(), sets, policy);
            let mut nested = NestedModel::new(segments.clone(), sets, policy);
            let mut accessed = Vec::new();
            for (set, tag, write) in ops {
                let set = set % sets;
                accessed.push(set);
                assert_eq!(flat.access(set, tag, write), nested.access(set, tag, write));
                for s in 0..sets {
                    assert_eq!(flat.stack_of(s), &nested.stack[s][..], "set {s}");
                }
            }
            let mut touched = flat.touched_sets().to_vec();
            touched.sort_unstable();
            accessed.sort_unstable();
            accessed.dedup();
            assert_eq!(touched, accessed, "touched sets == distinct sets accessed");

            flat.clear();
            assert!(flat.touched_sets().is_empty());
            assert_eq!(flat, BankSetModel::with_segments(segments, sets, policy));
        }
    }
}
