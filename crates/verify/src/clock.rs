//! Vector clocks for happens-before reasoning over trace events.

use std::collections::VecDeque;

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
        self.join_words(other.0.iter().copied());
    }

    /// [`VectorClock::join`] with a clock stored as its components.
    pub(crate) fn join_words(&mut self, other: impl ExactSizeIterator<Item = u64>) {
        if self.0.len() < other.len() {
            self.0.resize(other.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(other) {
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

/// Where a stored clock's components are in its [`ClockRing`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClockRef {
    /// The position of the clock's first word among every word the ring
    /// has stored, wrapping.
    start: u32,
    len: u32,
}

/// The clocks bound to one group's sequenced writes, kept while a member
/// may still apply their writes: one ring of words, filled at the back in
/// bind order and retired from the front, so the space a retired clock
/// held is reused by the next one.
#[derive(Debug, Default)]
pub(crate) struct ClockRing {
    words: VecDeque<u64>,
    /// The position of `words[0]` among every word stored, wrapping: a
    /// [`ClockRef`] stays valid while fewer than 2^32 words are held.
    front: u32,
}

impl ClockRing {
    /// Copies `clock`'s components in at the back.
    pub(crate) fn push(&mut self, clock: &VectorClock) -> ClockRef {
        let narrow = |x: usize| u32::try_from(x).expect("clock storage fits u32 indices");
        let r = ClockRef {
            start: self.front.wrapping_add(narrow(self.words.len())),
            len: narrow(clock.words().len()),
        };
        self.words.extend(clock.words());
        r
    }

    /// The components of a stored clock.
    pub(crate) fn get(&self, r: ClockRef) -> impl ExactSizeIterator<Item = u64> + '_ {
        let at = r.start.wrapping_sub(self.front) as usize;
        self.words.range(at..at + r.len as usize).copied()
    }

    /// Drops every word stored before `first`, the oldest clock still
    /// held (`None`: every word).
    pub(crate) fn retire_before(&mut self, first: Option<ClockRef>) {
        let drop = first.map_or(self.words.len(), |r| {
            r.start.wrapping_sub(self.front) as usize
        });
        self.words.drain(..drop);
        self.front = self.front.wrapping_add(drop as u32);
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
    fn a_clock_ring_reuses_the_space_its_retired_clocks_held() {
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
        // Start the word count near the wrap, as a long run would.
        let mut ring = ClockRing {
            front: u32::MAX - 100,
            ..ClockRing::default()
        };
        let mut held = VecDeque::new();
        let mut capacity = 0;
        for i in 0..3_000u64 {
            let c = clock(1 + (i % 17) as usize, i);
            held.push_back((ring.push(&c), c));
            // At most eight clocks in flight, retired oldest first.
            if held.len() > 8 {
                held.pop_front();
                ring.retire_before(held.front().map(|&(r, _)| r));
            }
            for (r, c) in &held {
                assert!(ring.get(*r).eq(c.words().iter().copied()));
            }
            if i == 100 {
                capacity = ring.words.capacity();
            }
        }
        assert!(ring.words.len() <= 8 * 17);
        assert_eq!(ring.words.capacity(), capacity, "retired space was reused");
        ring.retire_before(None);
        assert!(ring.words.is_empty());
        let empty = ring.push(&VectorClock::new());
        assert_eq!(ring.get(empty).len(), 0);
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
