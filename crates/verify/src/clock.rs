//! Vector clocks for happens-before reasoning over trace events.

/// A grow-on-demand vector clock indexed by node (actor) number.
///
/// Missing components are zero, so clocks over different node counts
/// compare correctly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        VectorClock(Vec::new())
    }

    /// Advances `node`'s component by one (a local step).
    pub fn tick(&mut self, node: usize) {
        if self.0.len() <= node {
            self.0.resize(node + 1, 0);
        }
        self.0[node] += 1;
    }

    /// Component-wise maximum: after `a.join(&b)`, everything ordered
    /// before `b` is ordered before `a`.
    pub fn join(&mut self, other: &VectorClock) {
        self.join_words(&other.0);
    }

    /// [`VectorClock::join`] with a clock stored as its components.
    pub(crate) fn join_words(&mut self, other: &[u64]) {
        if self.0.len() < other.len() {
            self.0.resize(other.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(other) {
            *a = (*a).max(b);
        }
    }

    /// The components, node 0 first.
    pub(crate) fn words(&self) -> &[u64] {
        &self.0
    }

    /// Whether `self` happens-before-or-equals `other` (component-wise ≤).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &a)| a <= other.0.get(i).copied().unwrap_or(0))
    }

    /// Whether the two clocks are concurrent (neither ordered).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

/// Where a stored clock's components are in a [`ClockBlocks`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockRef {
    block: u32,
    offset: u32,
    len: u32,
}

/// Append-only storage for clocks kept until the end of a run: blocks that
/// are filled in order and never reallocated, so storing a clock copies
/// its components once and never moves the ones stored before it. The
/// first block holds 256 bytes and each next one twice the last, up to
/// 64 KiB (a clock longer than that gets a block of its own): a
/// four-node checker execution pays for one small block, a long run for
/// at most one partly filled 64 KiB block beyond its clocks.
#[derive(Debug, Default)]
pub(crate) struct ClockBlocks {
    blocks: Vec<Vec<u64>>,
}

impl ClockBlocks {
    const FIRST_WORDS: usize = 32;
    const MAX_WORDS: usize = 8 * 1024;

    /// Copies `clock`'s components in.
    pub(crate) fn push(&mut self, clock: &VectorClock) -> ClockRef {
        let words = clock.words();
        let fits = self
            .blocks
            .last()
            .is_some_and(|b| b.capacity() - b.len() >= words.len());
        if !fits {
            let last = self.blocks.last().map_or(0, Vec::capacity);
            let size = (2 * last).clamp(Self::FIRST_WORDS, Self::MAX_WORDS);
            self.blocks.push(Vec::with_capacity(size.max(words.len())));
        }
        let block = self.blocks.len() - 1;
        let b = &mut self.blocks[block];
        let offset = b.len();
        b.extend_from_slice(words);
        let narrow = |x: usize| u32::try_from(x).expect("clock storage fits u32 indices");
        ClockRef {
            block: narrow(block),
            offset: narrow(offset),
            len: narrow(words.len()),
        }
    }

    /// The components of a stored clock.
    pub(crate) fn get(&self, r: ClockRef) -> &[u64] {
        let start = r.offset as usize;
        &self.blocks[r.block as usize][start..start + r.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_compare() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        b.tick(1);
        assert!(a.concurrent(&b));
        b.join(&a);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VectorClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new();
        b.tick(2);
        a.join(&b);
        let mut expect = VectorClock::new();
        expect.tick(0);
        expect.tick(0);
        expect.tick(2);
        assert_eq!(a, expect);
    }

    #[test]
    fn stored_clocks_stay_put_as_blocks_fill_and_double() {
        let mut blocks = ClockBlocks::default();
        let clock = |len: usize, seed: u64| {
            let mut c = VectorClock::new();
            for node in 0..len {
                for _ in 0..(seed + node as u64) % 3 {
                    c.tick(node);
                }
            }
            c.tick(len.saturating_sub(1));
            c
        };
        let mut stored = Vec::new();
        for i in 0..3_000u64 {
            let c = clock(1 + (i % 17) as usize, i);
            stored.push((blocks.push(&c), c));
        }
        // A clock longer than the largest block gets one of its own.
        let long = clock(20_000, 1);
        stored.push((blocks.push(&long), long));
        stored.push((blocks.push(&VectorClock::new()), VectorClock::new()));
        for (r, c) in &stored {
            assert_eq!(blocks.get(*r), c.words());
        }
        let sizes: Vec<usize> = blocks.blocks.iter().map(Vec::capacity).collect();
        assert_eq!(sizes[..5], [32, 64, 128, 256, 512]);
        assert!(sizes
            .iter()
            .all(|&s| s <= ClockBlocks::MAX_WORDS || s == 20_000));
        let pointers: Vec<*const u64> = blocks.blocks.iter().map(|b| b.as_ptr()).collect();
        blocks.push(&clock(5, 0));
        let after: Vec<*const u64> = blocks.blocks.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(pointers[..], after[..pointers.len()], "no block moved");
    }

    #[test]
    fn zero_clock_precedes_everything() {
        let zero = VectorClock::new();
        let mut a = VectorClock::new();
        a.tick(3);
        assert!(zero.leq(&a));
        assert!(zero.leq(&zero));
    }
}
