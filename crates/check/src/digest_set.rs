//! The set of state digests the explorer folds revisits against.

/// Digests buffered before they are merged into the sorted run. An insert
/// shifts up to this many buffered words and a merge moves the whole run,
/// so a digest costs about `BUFFER / 2 + len / BUFFER` word moves: 512
/// balances the two near the ~190 000 digests of a 3-CPU search.
const BUFFER: usize = 512;

/// An exact set of 64-bit digests with `HashSet<u64>`'s `contains` and
/// `insert`, so a search folding against it folds exactly the same states.
///
/// Storage is a sorted run plus a short sorted insert buffer; when the
/// buffer fills it is merged into the run in place, from the back. A digest
/// costs its 8 bytes plus at most a quarter more of spare run capacity,
/// where a `HashSet<u64>` pays 9 bytes a slot at up to 7/8 load and, while
/// it doubles, holds the old table and the new one at once.
#[derive(Debug, Default)]
pub(crate) struct DigestSet {
    run: Vec<u64>,
    buffer: Vec<u64>,
}

impl DigestSet {
    /// Number of digests held.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.buffer.len()
    }

    /// Whether `digest` is in the set.
    pub(crate) fn contains(&self, digest: u64) -> bool {
        self.run.binary_search(&digest).is_ok() || self.buffer.binary_search(&digest).is_ok()
    }

    /// Adds `digest`; `false` if it was already present.
    pub(crate) fn insert(&mut self, digest: u64) -> bool {
        if self.run.binary_search(&digest).is_ok() {
            return false;
        }
        let Err(at) = self.buffer.binary_search(&digest) else {
            return false;
        };
        if self.buffer.capacity() == 0 {
            self.buffer.reserve_exact(BUFFER);
        }
        self.buffer.insert(at, digest);
        if self.buffer.len() == BUFFER {
            self.merge();
        }
        true
    }

    /// Merges the buffer into the run: the run grows by the buffer's
    /// length (its capacity by at least a quarter, so growth stays
    /// amortized), then both are walked from their largest ends, each
    /// step writing the larger head into the last free place. The two
    /// never share a value, and the run's unplaced prefix stays where it
    /// is.
    fn merge(&mut self) {
        let (n, m) = (self.run.len(), self.buffer.len());
        if self.run.capacity() < n + m {
            self.run.reserve_exact(m.max(n / 4));
        }
        self.run.resize(n + m, 0);
        let (mut i, mut j) = (n, m);
        while j > 0 {
            let k = i + j - 1;
            if i > 0 && self.run[i - 1] > self.buffer[j - 1] {
                self.run[k] = self.run[i - 1];
                i -= 1;
            } else {
                self.run[k] = self.buffer[j - 1];
                j -= 1;
            }
        }
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::DetRng;
    use std::collections::HashSet;

    /// Applies one `insert` (or `contains`) of `d` to both sets and
    /// requires the same answer and the same size.
    fn agree(set: &mut DigestSet, reference: &mut HashSet<u64>, insert: bool, d: u64) {
        if insert {
            assert_eq!(set.insert(d), reference.insert(d), "insert {d}");
        } else {
            assert_eq!(set.contains(d), reference.contains(&d), "contains {d}");
        }
        assert_eq!(set.len(), reference.len());
    }

    #[test]
    fn agrees_with_a_hash_set_on_random_streams() {
        for seed in 0..8 {
            let mut rng = DetRng::new(seed);
            // A small value domain makes duplicates and hits common; the
            // extremes ride along.
            let domain = [64, 4_096, 1 << 20, u64::MAX][seed as usize % 4];
            let (mut set, mut reference) = (DigestSet::default(), HashSet::new());
            for _ in 0..20_000 {
                let d = match rng.next_below(16) {
                    0 => 0,
                    1 => u64::MAX,
                    _ if domain == u64::MAX => rng.next_u64(),
                    _ => rng.next_below(domain),
                };
                agree(&mut set, &mut reference, rng.chance(0.5), d);
            }
            assert!(set.run.windows(2).all(|w| w[0] < w[1]), "run not sorted");
        }
    }

    #[test]
    fn values_that_land_on_a_merge_are_found_either_side_of_it() {
        // Fill the buffer to one short of a merge, then make the value
        // that merges the smallest, the largest, or one between run
        // values, and look every value up again after each merge.
        let (mut set, mut reference) = (DigestSet::default(), HashSet::new());
        let mut seen = Vec::new();
        for (round, landing) in [0, u64::MAX, 71, 2_416].into_iter().enumerate() {
            for i in 0..BUFFER as u64 - 1 {
                let d = 10 + 8 * i + round as u64;
                agree(&mut set, &mut reference, true, d);
                seen.push(d);
            }
            assert_eq!(set.buffer.len(), BUFFER - 1, "round {round}");
            agree(&mut set, &mut reference, false, landing);
            agree(&mut set, &mut reference, true, landing);
            assert!(set.buffer.is_empty(), "round {round}: no merge");
            agree(&mut set, &mut reference, true, landing);
            seen.push(landing);
            for &d in &seen {
                agree(&mut set, &mut reference, false, d);
                agree(&mut set, &mut reference, false, d.wrapping_add(4));
            }
        }
        assert!(set.run.windows(2).all(|w| w[0] < w[1]), "run not sorted");
    }
}
