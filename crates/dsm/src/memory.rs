//! Per-node local memory holding the node's copy of every shared variable.
//!
//! One [`LocalMemory`] per CPU, so its record is what a million-node
//! machine pays a million times: 80 bytes. The first four variables live
//! inline as two parallel arrays, `[VarId; 4]` and `[Word; 4]` (48 bytes,
//! where four padded `(VarId, Word)` pairs took 64); a node that touches
//! more moves every pair to a heap `Vec` reached through one thin
//! `Option<Box<_>>` (8 bytes, not a 24-byte `Vec` header), and the shared
//! init image is one `Option<Arc<[_]>>` (16 bytes). Nothing else is
//! stored.

use std::sync::Arc;

use crate::{VarId, Word};

/// Words stored inline before spilling to the heap. A node in the big
/// scaling scenarios touches a handful of variables (its row's lock,
/// counter, and data words), so the inline arrays keep the whole memory
/// on the cache line(s) already loaded for the `Vec<LocalMemory>` entry —
/// no second pointer chase per protocol write, and no per-node heap
/// buffer at machine assembly.
const INLINE_WORDS: usize = 4;

/// One node's local copies of shared variables.
///
/// Variables read before any write return the configurable default (zero
/// unless set), mirroring zero-initialized shared segments.
///
/// Storage is a sorted run of variables probed by binary search: no
/// hashing, no per-entry allocation, and cache-line-friendly scans — the
/// layout that keeps a 100k-node machine's per-node memories cheap. The
/// first `INLINE_WORDS` variables live inline in the struct itself, keys
/// and values in parallel arrays; larger variable sets spill to a boxed
/// heap `Vec` of pairs. Lookups are `O(log n)`; a first write to a new
/// variable is `O(n)` (sorted insert), but the variable set of a run is
/// small and fixed after warm-up.
///
/// A memory may additionally carry a shared **base image**
/// ([`LocalMemory::set_base`]): a sorted, immutable `(var, value)` run
/// consulted when a variable has no local entry. This is how machine-wide
/// variable initialization stays O(1) per node — a million nodes share
/// one `Arc` of init values instead of each materializing every lock
/// sentinel — while reads, write-returned previous values, and iteration
/// behave exactly as if the image had been written into every node.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    /// Inline variables, ascending; only the first `inline_len` are live,
    /// and only while `spill` is `None`.
    vars: [VarId; INLINE_WORDS],
    /// The inline variables' values, index for index.
    values: [Word; INLINE_WORDS],
    inline_len: u8,
    /// Heap storage once the inline run overflows: *all* pairs (sorted,
    /// unique), and the inline run is dead. Boxed so the rare spill costs
    /// every node 8 bytes, not a 24-byte `Vec` header.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<(VarId, Word)>>>,
    /// Shared init image (sorted, unique); local entries shadow it.
    base: Option<Arc<[(VarId, Word)]>>,
}

impl Default for LocalMemory {
    fn default() -> Self {
        LocalMemory {
            vars: [VarId::new(0); INLINE_WORDS],
            values: [0; INLINE_WORDS],
            inline_len: 0,
            spill: None,
            base: None,
        }
    }
}

impl LocalMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of local entries (written variables).
    fn local_len(&self) -> usize {
        self.spill
            .as_ref()
            .map_or(self.inline_len as usize, |spill| spill.len())
    }

    /// Local entry `i` of the sorted run.
    fn local(&self, i: usize) -> (VarId, Word) {
        match &self.spill {
            Some(spill) => spill[i],
            None => (self.vars[i], self.values[i]),
        }
    }

    /// Installs the shared base image: the value of any variable without a
    /// local entry. The image must be sorted by variable and duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics if the memory has already been written: entries written
    /// before the base existed reported `0` as their previous value, which
    /// a late-arriving image would contradict.
    pub fn set_base(&mut self, base: Arc<[(VarId, Word)]>) {
        assert!(
            self.local_len() == 0,
            "base image installed after {} variables were written",
            self.local_len()
        );
        debug_assert!(base.windows(2).all(|w| w[0].0 < w[1].0), "base not sorted");
        self.base = Some(base);
    }

    /// The base-image value of `var` (zero if absent or no image).
    fn base_value(&self, var: VarId) -> Word {
        match &self.base {
            Some(base) => match base.binary_search_by_key(&var, |&(v, _)| v) {
                Ok(i) => base[i].1,
                Err(_) => 0,
            },
            None => 0,
        }
    }

    /// Reads the local copy of `var` (zero if never written).
    pub fn read(&self, var: VarId) -> Word {
        let found = match &self.spill {
            Some(spill) => spill
                .binary_search_by_key(&var, |&(v, _)| v)
                .map(|i| spill[i].1),
            None => self.vars[..self.inline_len as usize]
                .binary_search(&var)
                .map(|i| self.values[i]),
        };
        found.unwrap_or_else(|_| self.base_value(var))
    }

    /// Writes the local copy of `var`, returning the previous value.
    pub fn write(&mut self, var: VarId, value: Word) -> Word {
        if let Some(spill) = &mut self.spill {
            return match spill.binary_search_by_key(&var, |&(v, _)| v) {
                Ok(i) => std::mem::replace(&mut spill[i].1, value),
                Err(i) => {
                    spill.insert(i, (var, value));
                    self.base_value(var)
                }
            };
        }
        let len = self.inline_len as usize;
        match self.vars[..len].binary_search(&var) {
            Ok(i) => std::mem::replace(&mut self.values[i], value),
            Err(i) if len < INLINE_WORDS => {
                self.vars.copy_within(i..len, i + 1);
                self.values.copy_within(i..len, i + 1);
                self.vars[i] = var;
                self.values[i] = value;
                self.inline_len += 1;
                self.base_value(var)
            }
            Err(i) => {
                // Inline run is full: spill everything to the heap and
                // insert there. One-time transition per node.
                let mut spill = Vec::with_capacity(len + 1);
                spill.extend(self.vars.into_iter().zip(self.values));
                spill.insert(i, (var, value));
                self.spill = Some(Box::new(spill));
                self.base_value(var)
            }
        }
    }

    /// Number of variables with a value (written locally or present in the
    /// base image).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no variable has a value.
    pub fn is_empty(&self) -> bool {
        self.local_len() == 0 && self.base.as_deref().is_none_or(|b| b.is_empty())
    }

    /// Iterates over `(var, value)` pairs in ascending variable order —
    /// local entries merged with the base image, local values shadowing.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Word)> + '_ {
        MergedWords {
            mem: self,
            next: 0,
            base: self.base.as_deref().unwrap_or(&[]),
        }
    }
}

/// Sorted merge of the local run over the base image (local shadows).
struct MergedWords<'a> {
    mem: &'a LocalMemory,
    /// Index of the next local entry.
    next: usize,
    base: &'a [(VarId, Word)],
}

impl Iterator for MergedWords<'_> {
    type Item = (VarId, Word);

    fn next(&mut self) -> Option<(VarId, Word)> {
        let local = (self.next < self.mem.local_len()).then(|| self.mem.local(self.next));
        match (local, self.base.first()) {
            (Some(l), Some(&b)) if b.0 < l.0 => {
                self.base = &self.base[1..];
                Some(b)
            }
            (Some(l), b) => {
                self.next += 1;
                if b.is_some_and(|b| b.0 == l.0) {
                    self.base = &self.base[1..];
                }
                Some(l)
            }
            (None, Some(&b)) => {
                self.base = &self.base[1..];
                Some(b)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u32) -> VarId {
        VarId::new(id)
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = LocalMemory::new();
        assert_eq!(m.read(v(9)), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn write_returns_previous() {
        let mut m = LocalMemory::new();
        assert_eq!(m.write(v(1), 10), 0);
        assert_eq!(m.write(v(1), 20), 10);
        assert_eq!(m.read(v(1)), 20);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn variables_are_independent() {
        let mut m = LocalMemory::new();
        m.write(v(1), 5);
        m.write(v(2), 6);
        assert_eq!(m.read(v(1)), 5);
        assert_eq!(m.read(v(2)), 6);
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn spilling_past_the_inline_run_preserves_contents() {
        let mut m = LocalMemory::new();
        // Fill the inline run in reverse order, then push past it.
        for i in (0..(INLINE_WORDS as u32 + 3)).rev() {
            assert_eq!(m.write(v(i * 2), i64::from(i) + 100), 0);
        }
        assert_eq!(m.len(), INLINE_WORDS + 3);
        for i in 0..(INLINE_WORDS as u32 + 3) {
            assert_eq!(m.read(v(i * 2)), i64::from(i) + 100);
            assert_eq!(m.read(v(i * 2 + 1)), 0, "gap vars stay zero");
        }
        // Overwrites keep working after the spill.
        assert_eq!(m.write(v(0), 7), 100);
        assert_eq!(m.read(v(0)), 7);
        let vars: Vec<u32> = m.iter().map(|(var, _)| var.get()).collect();
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        assert_eq!(vars, sorted, "iteration stays sorted across the spill");
    }

    #[test]
    fn iter_is_sorted_by_var() {
        let mut m = LocalMemory::new();
        m.write(v(7), 1);
        m.write(v(2), 2);
        m.write(v(5), 3);
        let vars: Vec<u32> = m.iter().map(|(var, _)| var.get()).collect();
        assert_eq!(vars, vec![2, 5, 7]);
    }

    /// The base image must be observably identical to having written every
    /// image entry into the memory: reads, previous values returned by
    /// writes, and iteration all agree between the two constructions.
    #[test]
    fn base_image_matches_materialized_writes() {
        let image: Vec<(VarId, Word)> = (0..10u32).map(|i| (v(i * 3), i64::from(i) + 50)).collect();

        let mut shared = LocalMemory::new();
        shared.set_base(Arc::from(image.as_slice()));
        let mut materialized = LocalMemory::new();
        for &(var, value) in &image {
            materialized.write(var, value);
        }

        for i in 0..32 {
            assert_eq!(shared.read(v(i)), materialized.read(v(i)), "read var {i}");
        }
        assert_eq!(shared.len(), materialized.len());
        // Overwrites report the image value as the previous value, and
        // fresh vars (absent from the image) still report zero.
        assert_eq!(shared.write(v(6), 9), materialized.write(v(6), 9));
        assert_eq!(shared.write(v(7), 8), materialized.write(v(7), 8));
        // Push past the inline run so base lookups also cover the spill
        // transition and spilled-insert paths.
        for i in 40..46 {
            assert_eq!(shared.write(v(i), 1), materialized.write(v(i), 1));
        }
        assert_eq!(
            shared.iter().collect::<Vec<_>>(),
            materialized.iter().collect::<Vec<_>>(),
            "merged iteration must shadow the image with local writes"
        );
        assert_eq!(shared.read(v(6)), 9);
        assert_eq!(shared.read(v(9)), 53, "unshadowed image entries persist");
    }

    #[test]
    #[should_panic(expected = "base image installed after")]
    fn base_after_writes_panics() {
        let mut m = LocalMemory::new();
        m.write(v(1), 2);
        m.set_base(Arc::from(vec![(v(0), 1)].as_slice()));
    }
}
