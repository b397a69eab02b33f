//! Per-node local memory holding the node's copy of every shared variable.
//!
//! One [`LocalMemory`] per CPU, so its record is what a million-node
//! machine pays a million times: 56 bytes. The first four variables live
//! inline as two parallel arrays, `[VarId; 4]` and `[Word; 4]` (48 bytes,
//! where four padded `(VarId, Word)` pairs took 64); a node that touches
//! more moves every pair to a heap `Vec` behind one thin `Box` (8 bytes,
//! not a 24-byte `Vec` header) that takes the arrays' place. Nothing else
//! is stored: the init image every node starts from is held once by the
//! machine, and a node's memory is seen through a [`NodeMem`] that lays
//! its written words over that image.

use crate::{VarId, Word};

/// Words stored inline before spilling to the heap. A node in the big
/// scaling scenarios touches a handful of variables (its row's lock,
/// counter, and data words), so the inline arrays keep the whole memory
/// on the cache line(s) already loaded for the `Vec<LocalMemory>` entry —
/// no second pointer chase per protocol write, and no per-node heap
/// buffer at machine assembly.
const INLINE_WORDS: usize = 4;

/// One node's local copies of shared variables: the ones it has written.
///
/// Variables read before any write return zero, mirroring zero-initialized
/// shared segments; on a machine, [`NodeMem`] reads them from the init
/// image instead.
///
/// Storage is a sorted run of variables probed by binary search: no
/// hashing and no per-entry allocation. Lookups are `O(log n)`; a first
/// write to a new variable is `O(n)` (sorted insert), but the variable set
/// of a run is small and fixed after warm-up.
#[derive(Debug, Clone, Default)]
pub struct LocalMemory {
    /// The written variables.
    store: Store,
}

/// A memory's written variables: a short inline run, or every pair on the
/// heap once the run overflows. 56 bytes: `Len`'s spare values hold the
/// tag, and the inline run cannot be read while spilled.
#[derive(Debug, Clone)]
enum Store {
    /// Variables ascending, their values index for index; the first `len`
    /// are live.
    Inline {
        vars: [VarId; INLINE_WORDS],
        values: [Word; INLINE_WORDS],
        len: Len,
    },
    /// All pairs, sorted and unique. Boxed so the rare spill costs every
    /// node 8 bytes, not a 24-byte `Vec` header.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<(VarId, Word)>>),
}

impl Default for Store {
    fn default() -> Self {
        Store::Inline {
            vars: [VarId::new(0); INLINE_WORDS],
            values: [0; INLINE_WORDS],
            len: Len::L0,
        }
    }
}

/// The live length of an inline run: `0..=INLINE_WORDS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Len {
    L0,
    L1,
    L2,
    L3,
    L4,
}

impl Len {
    const ALL: [Len; INLINE_WORDS + 1] = [Len::L0, Len::L1, Len::L2, Len::L3, Len::L4];
}

impl LocalMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of local entries (written variables).
    pub(crate) fn local_len(&self) -> usize {
        match &self.store {
            Store::Inline { len, .. } => *len as usize,
            Store::Spilled(spill) => spill.len(),
        }
    }

    /// Local entry `i` of the sorted run.
    fn local(&self, i: usize) -> (VarId, Word) {
        match &self.store {
            Store::Inline { vars, values, .. } => (vars[i], values[i]),
            Store::Spilled(spill) => spill[i],
        }
    }

    /// Writes the init image `base` in, in order: the memory then reads,
    /// writes and iterates as one that [`NodeMem`] lays over `base`.
    ///
    /// # Panics
    ///
    /// Panics if the memory has already been written: entries written
    /// before the base existed reported `0` as their previous value, which
    /// a late-arriving image would contradict.
    pub fn set_base(&mut self, base: impl AsRef<[(VarId, Word)]>) {
        assert_eq!(
            self.local_len(),
            0,
            "base image installed after variables were written"
        );
        for &(var, value) in base.as_ref() {
            self.write(var, value);
        }
    }

    /// Reads the local copy of `var` (zero if never written).
    pub fn read(&self, var: VarId) -> Word {
        NodeMem::new(self, &[]).read(var)
    }

    /// Writes the local copy of `var`, returning the previous value (zero
    /// if never written).
    pub fn write(&mut self, var: VarId, value: Word) -> Word {
        NodeMem::new(self, &[]).write(var, value)
    }
}

/// The image value of `var` (zero if absent).
fn image_value(image: &[(VarId, Word)], var: VarId) -> Word {
    image
        .binary_search_by_key(&var, |&(v, _)| v)
        .map_or(0, |i| image[i].1)
}

/// A node's memory as the machine presents it: the words the node wrote
/// over the machine's init image (sorted, unique), written words
/// shadowing. Reads, the previous values writes return, `len` and `iter`
/// are exactly those of a memory the image had been written into before
/// the node's own writes. `W` is `&LocalMemory`, or `&mut LocalMemory`
/// where the memory model writes.
#[derive(Debug, Clone, Copy)]
pub struct NodeMem<'a, W = &'a LocalMemory> {
    words: W,
    image: &'a [(VarId, Word)],
}

impl<'a, W: std::ops::Deref<Target = LocalMemory>> NodeMem<'a, W> {
    pub(crate) fn new(words: W, image: &'a [(VarId, Word)]) -> Self {
        NodeMem { words, image }
    }

    /// Reads the node's copy of `var`.
    pub fn read(&self, var: VarId) -> Word {
        let found = match &self.words.store {
            Store::Inline { vars, values, len } => {
                vars[..*len as usize].binary_search(&var).map(|i| values[i])
            }
            Store::Spilled(spill) => spill
                .binary_search_by_key(&var, |&(v, _)| v)
                .map(|i| spill[i].1),
        };
        found.unwrap_or_else(|_| image_value(self.image, var))
    }

    /// Number of variables with a value (written by the node or in the
    /// image).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no variable has a value.
    pub fn is_empty(&self) -> bool {
        self.words.local_len() == 0 && self.image.is_empty()
    }

    /// Iterates over `(var, value)` pairs in ascending variable order —
    /// written words merged with the image, written values shadowing.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Word)> + '_ {
        let (words, mut next, mut image) = (&*self.words, 0, self.image);
        std::iter::from_fn(move || {
            let local = (next < words.local_len()).then(|| words.local(next));
            let base = image.first().copied();
            // An image pair at or before the next written word is used up:
            // yielded, or shadowed by that word.
            if base.is_some_and(|b| local.is_none_or(|l| b.0 <= l.0)) {
                image = &image[1..];
            }
            match (local, base) {
                (Some(l), Some(b)) if b.0 < l.0 => Some(b),
                (Some(l), _) => {
                    next += 1;
                    Some(l)
                }
                (None, b) => b,
            }
        })
    }
}

impl NodeMem<'_, &mut LocalMemory> {
    /// Writes the node's copy of `var`, returning the previous value.
    pub fn write(&mut self, var: VarId, value: Word) -> Word {
        match &mut self.words.store {
            Store::Spilled(spill) => match spill.binary_search_by_key(&var, |&(v, _)| v) {
                Ok(i) => return std::mem::replace(&mut spill[i].1, value),
                Err(i) => spill.insert(i, (var, value)),
            },
            Store::Inline { vars, values, len } => {
                let n = *len as usize;
                match vars[..n].binary_search(&var) {
                    Ok(i) => return std::mem::replace(&mut values[i], value),
                    Err(i) if n < INLINE_WORDS => {
                        vars.copy_within(i..n, i + 1);
                        values.copy_within(i..n, i + 1);
                        (vars[i], values[i], *len) = (var, value, Len::ALL[n + 1]);
                    }
                    Err(i) => {
                        // Inline run is full: spill everything to the heap
                        // and insert there. One-time transition per node.
                        let mut spill = Vec::with_capacity(n + 1);
                        spill.extend(vars.iter().copied().zip(values.iter().copied()));
                        spill.insert(i, (var, value));
                        self.words.store = Store::Spilled(Box::new(spill));
                    }
                }
            }
        }
        image_value(self.image, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn v(id: u32) -> VarId {
        VarId::new(id)
    }

    /// `m` as a node on a machine with no init image sees it.
    fn bare(m: &LocalMemory) -> NodeMem<'_> {
        NodeMem::new(m, &[])
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = LocalMemory::new();
        assert_eq!(m.read(v(9)), 0);
        assert!(bare(&m).is_empty());
    }

    #[test]
    fn write_returns_previous() {
        let mut m = LocalMemory::new();
        assert_eq!(m.write(v(1), 10), 0);
        assert_eq!(m.write(v(1), 20), 10);
        assert_eq!(m.read(v(1)), 20);
        assert_eq!(bare(&m).len(), 1);
    }

    #[test]
    fn variables_are_independent() {
        let mut m = LocalMemory::new();
        m.write(v(1), 5);
        m.write(v(2), 6);
        assert_eq!(m.read(v(1)), 5);
        assert_eq!(m.read(v(2)), 6);
        assert_eq!(bare(&m).iter().count(), 2);
    }

    #[test]
    fn spilling_past_the_inline_run_preserves_contents() {
        let mut m = LocalMemory::new();
        // Fill the inline run in reverse order, then push past it.
        for i in (0..(INLINE_WORDS as u32 + 3)).rev() {
            assert_eq!(m.write(v(i * 2), i64::from(i) + 100), 0);
        }
        assert_eq!(bare(&m).len(), INLINE_WORDS + 3);
        for i in 0..(INLINE_WORDS as u32 + 3) {
            assert_eq!(m.read(v(i * 2)), i64::from(i) + 100);
            assert_eq!(m.read(v(i * 2 + 1)), 0, "gap vars stay zero");
        }
        // Overwrites keep working after the spill.
        assert_eq!(m.write(v(0), 7), 100);
        assert_eq!(m.read(v(0)), 7);
        let vars: Vec<u32> = bare(&m).iter().map(|(var, _)| var.get()).collect();
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
        let vars: Vec<u32> = bare(&m).iter().map(|(var, _)| var.get()).collect();
        assert_eq!(vars, vec![2, 5, 7]);
    }

    /// A view over an init image, and `set_base`, must both be observably
    /// identical to having written every image entry into the memory:
    /// reads, previous values returned by writes, and iteration all agree
    /// between the three constructions.
    #[test]
    fn base_image_matches_materialized_writes() {
        let image: Vec<(VarId, Word)> = (0..10u32).map(|i| (v(i * 3), i64::from(i) + 50)).collect();

        let mut viewed = LocalMemory::new();
        let mut shared = NodeMem::new(&mut viewed, &image);
        let mut based = LocalMemory::new();
        based.set_base(Arc::<[(VarId, Word)]>::from(image.as_slice()));
        let mut materialized = LocalMemory::new();
        for &(var, value) in &image {
            materialized.write(var, value);
        }

        for i in 0..32 {
            assert_eq!(shared.read(v(i)), materialized.read(v(i)), "read var {i}");
            assert_eq!(based.read(v(i)), materialized.read(v(i)), "read var {i}");
        }
        // Overwrites report the image value as the previous value, and
        // fresh vars (absent from the image) still report zero.
        // Pushing past the inline run makes image lookups also cover the
        // spill transition and spilled-insert paths.
        for (var, value) in [(6, 9), (7, 8), (40, 1), (41, 1), (42, 1), (43, 1), (44, 1)] {
            let want = materialized.write(v(var), value);
            assert_eq!(shared.write(v(var), value), want, "write var {var}");
            assert_eq!(based.write(v(var), value), want, "write var {var}");
        }
        assert_eq!(shared.read(v(6)), 9);
        assert_eq!(shared.read(v(9)), 53, "unshadowed image entries persist");
        let over_image = NodeMem::new(&viewed, &image);
        let want: Vec<_> = bare(&materialized).iter().collect();
        assert_eq!(over_image.len(), want.len());
        assert_eq!(
            over_image.iter().collect::<Vec<_>>(),
            want,
            "merged iteration must shadow the image with local writes"
        );
        assert_eq!(bare(&based).iter().collect::<Vec<_>>(), want);
    }

    #[test]
    #[should_panic(expected = "base image installed after")]
    fn base_after_writes_panics() {
        let mut m = LocalMemory::new();
        m.write(v(1), 2);
        m.set_base([(v(0), 1)]);
    }
}
