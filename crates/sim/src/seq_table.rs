//! One group's values keyed by root sequence number.
//!
//! A group root numbers its writes 1, 2, 3, … ([`TraceDetail::Seq`]), so
//! an observer that keeps something per sequenced write — the telemetry
//! collector's open sequencing spans, the verifier's payloads and write
//! clocks — can index an array by `seq − base` instead of hashing
//! `(group, seq)`. A [`SeqTable`] is that array, safe for streams no root
//! produces: a number within reach of what the table holds (gaps, repeats,
//! numbers below the first one seen) lands in the array, and one farther
//! away spills to an ordered map, so a stray `u64::MAX` costs one map entry
//! instead of an array that long. Once every member has applied a group's
//! writes through some number, [`SeqTable::retire_through`] drops them
//! from the array's front, whose space the numbers to come reuse.
//!
//! [`TraceDetail::Seq`]: crate::TraceDetail::Seq

use std::collections::{BTreeMap, VecDeque};

/// Slots the array may hold per entry it holds: a table may keep only
/// some of a group's numbers (the verifier binds a clock to data writes,
/// not to the lock word's), so a run's entries can be spread out.
const SPREAD: u128 = 8;

/// Vacant slots the array may hold beyond that.
const SLACK: u128 = 64;

/// Values keyed by sequence number: an array over `[base, base + len)`
/// for the numbers a run actually uses, a map for the rest.
///
/// The array stays at most eight times as long as the entries it holds,
/// plus 64 slots: a number that would stretch it further goes to the map.
/// Iteration is in ascending sequence order either way.
#[derive(Debug, Clone)]
pub struct SeqTable<T> {
    /// The sequence number of `dense[0]`.
    base: u64,
    dense: VecDeque<Option<T>>,
    /// Occupied slots of `dense`.
    filled: usize,
    /// Entries outside `[base, base + dense.len())`.
    far: BTreeMap<u64, T>,
}

impl<T> Default for SeqTable<T> {
    fn default() -> Self {
        SeqTable {
            base: 0,
            dense: VecDeque::new(),
            filled: 0,
            far: BTreeMap::new(),
        }
    }
}

impl<T> SeqTable<T> {
    /// The array slot of `seq`, if the array covers it.
    fn slot(&self, seq: u64) -> Option<usize> {
        let at = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (at < self.dense.len()).then_some(at)
    }

    /// The value stored under `seq`.
    pub fn get(&self, seq: u64) -> Option<&T> {
        match self.slot(seq) {
            Some(at) => self.dense[at].as_ref(),
            None => self.far.get(&seq),
        }
    }

    /// The value stored under `seq`, mutably.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        match self.slot(seq) {
            Some(at) => self.dense[at].as_mut(),
            None => self.far.get_mut(&seq),
        }
    }

    /// Stores `value` under `seq`, replacing what was there.
    pub fn insert(&mut self, seq: u64, value: T) {
        if let Some(at) = self.slot(seq) {
            let slot = &mut self.dense[at];
            self.filled += usize::from(slot.is_none());
            *slot = Some(value);
            return;
        }
        if self.dense.is_empty() {
            // A retired-out array may leave spilled entries, `seq`'s among
            // them.
            self.far.remove(&seq);
            self.base = seq;
            self.dense.push_back(Some(value));
            self.filled = 1;
            return;
        }
        let last = self.base + (self.dense.len() as u64 - 1);
        let span = u128::from(seq.max(last) - seq.min(self.base)) + 1;
        if span > SPREAD * (self.filled as u128 + 1) + SLACK {
            self.far.insert(seq, value);
            return;
        }
        if seq < self.base {
            for _ in seq..self.base {
                self.dense.push_front(None);
            }
            self.base = seq;
        } else {
            self.dense.resize_with(span as usize, || None);
        }
        // Entries spilled before the array reached them move in, `seq`'s
        // old value among them.
        let last = self.base + (self.dense.len() as u64 - 1);
        for (seq, value) in self.far.extract_if(self.base..=last, |_, _| true) {
            self.dense[(seq - self.base) as usize] = Some(value);
            self.filled += 1;
        }
        let slot = &mut self.dense[(seq - self.base) as usize];
        self.filled += usize::from(slot.is_none());
        *slot = Some(value);
    }

    /// The heap bytes the table holds: its array's capacity, and its
    /// spilled entries at their own size (the map's node overhead aside).
    pub fn heap_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<Option<T>>()
            + self.far.len() * std::mem::size_of::<(u64, T)>()
    }

    /// Drops every entry numbered through `seq`, and then the vacant
    /// slots at the array's front, so the lowest entry left is the first
    /// slot. The array's space is kept for the numbers to come.
    pub fn retire_through(&mut self, seq: u64) {
        while let Some(front) = self.dense.front() {
            if self.base > seq && front.is_some() {
                break;
            }
            self.filled -= usize::from(front.is_some());
            self.dense.pop_front();
            self.base = self.base.wrapping_add(1);
        }
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() > seq {
                break;
            }
            entry.remove();
        }
    }

    /// Every `(seq, value)`, ascending by `seq`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        // The map holds only numbers outside the array, so its entries
        // below `base` come first and the rest after the array.
        let below = self.far.range(..self.base);
        let above = self.far.range(self.base..);
        let dense = self.dense.iter().enumerate();
        let dense = dense.filter_map(|(at, slot)| Some((self.base + at as u64, slot.as_ref()?)));
        let entry = |(&seq, value)| (seq, value);
        below.map(entry).chain(dense).chain(above.map(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    fn keys<T>(table: &SeqTable<T>) -> Vec<u64> {
        table.iter().map(|(seq, _)| seq).collect()
    }

    #[test]
    fn a_root_numbering_stays_in_the_array() {
        let mut t = SeqTable::default();
        for seq in 1..=1_000u64 {
            t.insert(seq, seq * 10);
        }
        assert_eq!(
            (t.iter().count(), t.far.len(), t.dense.len()),
            (1_000, 0, 1_000)
        );
        assert_eq!(t.get(500), Some(&5_000));
        assert_eq!((t.get(0), t.get(1_001)), (None, None));
        *t.get_mut(7).unwrap() += 1;
        assert_eq!(t.get(7), Some(&71));
        // A repeat replaces in place.
        t.insert(9, 0);
        assert_eq!((t.iter().count(), t.get(9)), (1_000, Some(&0)));
    }

    #[test]
    fn every_third_number_of_a_root_stays_in_the_array() {
        let mut t = SeqTable::default();
        for seq in (3..=30_000u64).step_by(3) {
            t.insert(seq, ());
        }
        assert_eq!(
            (t.iter().count(), t.far.len(), t.dense.len()),
            (10_000, 0, 29_998)
        );
    }

    #[test]
    fn gaps_and_late_low_numbers_within_reach_stay_in_the_array() {
        let mut t = SeqTable::default();
        for seq in [6u64, 9, 4, 20, 1] {
            t.insert(seq, ());
        }
        assert_eq!(t.far.len(), 0);
        assert_eq!(keys(&t), [1, 4, 6, 9, 20]);
        assert_eq!((t.get(5), t.get(0), t.get(21)), (None, None, None));
    }

    #[test]
    fn far_numbers_spill_and_iterate_in_order() {
        let mut t = SeqTable::default();
        t.insert(1_000_000_000u64, 'a');
        t.insert(1, 'b');
        t.insert(u64::MAX, 'c');
        t.insert(0, 'd');
        t.insert(1_000_000_001, 'e');
        assert_eq!(t.dense.len(), 2, "the first number and its neighbour");
        assert_eq!(t.far.len(), 3);
        assert_eq!(keys(&t), [0, 1, 1_000_000_000, 1_000_000_001, u64::MAX]);
        assert_eq!(t.get(u64::MAX), Some(&'c'));
        *t.get_mut(1).unwrap() = 'B';
        assert_eq!(t.get(1), Some(&'B'));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn the_array_absorbs_spilled_numbers_it_grows_over() {
        let mut t = SeqTable::default();
        t.insert(1u64, 1u64);
        t.insert(300, 300);
        t.insert(302, 0);
        assert_eq!(t.far.len(), 2);
        for seq in 2..300 {
            t.insert(seq, seq);
        }
        assert_eq!((t.far.len(), t.iter().count()), (2, 301));
        // Reaching 302 takes in 300 and replaces 302's old value.
        t.insert(302, 302);
        assert_eq!((t.far.len(), t.iter().count()), (0, 301));
        assert_eq!(
            (t.get(300), t.get(301), t.get(302)),
            (Some(&300), None, Some(&302))
        );
        let mut want: Vec<u64> = (1..=300).collect();
        want.push(302);
        assert_eq!(keys(&t), want);
    }

    #[test]
    fn the_top_of_the_range_is_a_number_like_any_other() {
        let mut t = SeqTable::default();
        t.insert(u64::MAX, 1);
        t.insert(u64::MAX - 2, 2);
        assert_eq!(t.far.len(), 0);
        assert_eq!(keys(&t), [u64::MAX - 2, u64::MAX]);
        t.insert(0, 3);
        assert_eq!(keys(&t), [0, u64::MAX - 2, u64::MAX]);
    }

    #[test]
    fn retiring_pops_the_front_and_drops_far_entries_through_the_number() {
        let mut t = SeqTable::default();
        for seq in (1..=100u64).filter(|s| s % 3 != 0) {
            t.insert(seq, seq);
        }
        t.insert(u64::MAX, 0);
        t.insert(1_000_000, 0);
        assert_eq!(t.far.len(), 2);
        t.retire_through(50);
        // 51 is a gap, so the array starts at 52.
        assert_eq!((t.base, t.dense.len(), t.filled), (52, 49, 33));
        assert_eq!(keys(&t)[..3], [52, 53, 55]);
        assert_eq!((t.get(50), t.get(52)), (None, Some(&52)));
        t.retire_through(2_000_000);
        assert_eq!((t.dense.len(), t.filled), (0, 0));
        assert_eq!(keys(&t), [u64::MAX]);
        // Emptied, the array restarts where the next number is, and a
        // spilled entry it lands on is replaced, not doubled.
        t.insert(u64::MAX, 7);
        assert_eq!((t.far.len(), t.get(u64::MAX)), (0, Some(&7)));
        t.retire_through(u64::MAX);
        assert_eq!(t.iter().count(), 0);
        t.insert(3, 3);
        assert_eq!(keys(&t), [3]);
    }

    /// Any stream of inserts and retirements agrees with an ordered map,
    /// and without retirements the array never outgrows eight slots per
    /// entry plus the slack.
    #[test]
    fn agrees_with_an_ordered_map_on_any_stream() {
        let mut rng = DetRng::new(11);
        for round in 0..200 {
            let mut t = SeqTable::default();
            let mut reference = BTreeMap::new();
            let mut next = rng.next_below(1 << 40);
            for i in 0..rng.next_below(300) {
                let seq = match rng.next_below(10) {
                    0 => rng.next_u64(),
                    1 => next.saturating_sub(rng.next_below(100)),
                    2 => next + rng.next_below(100),
                    _ => {
                        next += 1;
                        next
                    }
                };
                t.insert(seq, (round, i));
                reference.insert(seq, (round, i));
                // Odd rounds retire too. Retiring keeps the array's tail,
                // so only the others keep the spread bound.
                if round % 2 == 1 && rng.chance(0.05) {
                    let through = match rng.next_below(3) {
                        0 => rng.next_u64(),
                        _ => next.saturating_sub(rng.next_below(50)),
                    };
                    t.retire_through(through);
                    reference.retain(|&s, _| s > through);
                }
                let probe = seq.wrapping_add(rng.next_below(5)).wrapping_sub(2);
                assert_eq!(t.get(probe), reference.get(&probe));
                if round % 2 == 0 {
                    assert!(t.dense.len() as u128 <= SPREAD * t.filled as u128 + SLACK);
                }
            }
            assert_eq!(t.iter().count(), reference.len());
            let got: Vec<_> = t.iter().map(|(s, v)| (s, *v)).collect();
            let want: Vec<_> = reference.iter().map(|(s, v)| (*s, *v)).collect();
            assert_eq!(got, want);
        }
    }
}
