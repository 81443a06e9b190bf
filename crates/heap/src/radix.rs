//! Monotone radix heap over `u64` keys.

/// Bucket 0 holds keys equal to the last popped key; bucket `i ≥ 1` holds
/// keys whose highest bit differing from it is bit `i - 1`.
const BUCKETS: usize = 65;

/// A monotone min-priority queue of `(key, item)` pairs with `u64` keys:
/// every pushed key must be at least the last popped key. Dijkstra with
/// non-negative weights satisfies this, and there the radix heap beats a
/// comparison heap, since each entry moves down through at most 64
/// buckets in all and a push is a single `Vec::push`.
///
/// There is no decrease-key. A caller that lowers an item's key pushes a
/// second entry and skips the stale one when it pops (lazy deletion).
/// Entries with equal keys pop in unspecified order.
///
/// The 65 bucket vectors keep their capacity across [`clear`], so a pooled
/// heap that has seen a query once serves its repeats without allocating.
///
/// [`clear`]: RadixHeap::clear
///
/// ```
/// use kpj_heap::RadixHeap;
/// let mut h = RadixHeap::new();
/// h.push(30, 'c');
/// h.push(10, 'a');
/// h.push(20, 'b');
/// assert_eq!(h.pop(), Some((10, 'a')));
/// h.push(10, 'z'); // equal to the last popped key: still monotone
/// assert_eq!(h.pop(), Some((10, 'z')));
/// assert_eq!(h.pop(), Some((20, 'b')));
/// assert_eq!(h.pop(), Some((30, 'c')));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct RadixHeap<T> {
    /// The last popped key (0 before the first pop); no queued key is
    /// smaller.
    last: u64,
    /// Bit `i` is set iff `buckets[i]` is non-empty, for `i ≥ 1` (bit 0
    /// is don't-care: bucket 0 is checked directly).
    occupied: u128,
    buckets: [Vec<(u64, T)>; BUCKETS],
}

impl<T: Copy> Default for RadixHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

impl<T: Copy> RadixHeap<T> {
    /// An empty heap. Allocates nothing until the first push.
    pub fn new() -> Self {
        RadixHeap {
            last: 0,
            occupied: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Number of queued entries, stale ones included.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.buckets[0].is_empty() && self.occupied & !1 == 0
    }

    /// Total entry capacity over all buckets.
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }

    /// Queue `item` under `key`.
    ///
    /// # Panics
    ///
    /// If `key` is below the last popped key: the heap is monotone.
    #[inline]
    pub fn push(&mut self, key: u64, item: T) {
        assert!(
            key >= self.last,
            "radix heap is monotone: key {key} < last popped {}",
            self.last
        );
        let b = bucket(key, self.last);
        self.buckets[b].push((key, item));
        self.occupied |= 1 << b;
    }

    /// Remove and return an entry with the minimum key.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.buckets[0].is_empty() {
            let rest = self.occupied & !1;
            if rest == 0 {
                return None;
            }
            // The lowest non-empty bucket holds the minimum. Re-anchoring
            // `last` on it sends each of its entries to a strictly lower
            // bucket, the minimum ones to bucket 0.
            let i = rest.trailing_zeros() as usize;
            let mut moved = std::mem::take(&mut self.buckets[i]);
            self.last = moved.iter().map(|&(k, _)| k).min().expect("occupied");
            for &(key, item) in &moved {
                let b = bucket(key, self.last);
                self.buckets[b].push((key, item));
                self.occupied |= 1 << b;
            }
            self.occupied &= !(1 << i);
            moved.clear();
            self.buckets[i] = moved;
        }
        self.buckets[0].pop()
    }

    /// Empty the heap, keeping every bucket's capacity, and reset the
    /// monotone floor to 0.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(h: &mut RadixHeap<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| h.pop()).collect()
    }

    #[test]
    fn pops_in_key_order() {
        let mut h = RadixHeap::new();
        for (k, i) in [(30, 3), (10, 1), (70, 7), (20, 2), (10, 4)] {
            h.push(k, i);
        }
        assert_eq!(h.len(), 5);
        let keys: Vec<u64> = drain(&mut h).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 10, 20, 30, 70]);
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn zero_weight_pushes_at_the_minimum_pop_next() {
        let mut h = RadixHeap::new();
        h.push(5, 0);
        h.push(9, 1);
        assert_eq!(h.pop(), Some((5, 0)));
        // A zero-weight relaxation re-queues at the current minimum.
        h.push(5, 2);
        h.push(5, 3);
        h.push(6, 4);
        let mut got = drain(&mut h);
        got[..2].sort_unstable();
        assert_eq!(got, vec![(5, 2), (5, 3), (6, 4), (9, 1)]);
    }

    #[test]
    fn keys_near_u64_max() {
        let mut h = RadixHeap::new();
        let top = u64::MAX;
        for (d, i) in [(0u64, 0u32), (1, 1), (5, 2), (1 << 40, 3)] {
            h.push(top - d, i);
        }
        h.push(0, 9);
        assert_eq!(h.pop(), Some((0, 9)));
        assert_eq!(h.pop(), Some((top - (1 << 40), 3)));
        h.push(top - 3, 4);
        let keys: Vec<u64> = drain(&mut h).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![top - 5, top - 3, top - 1, top]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn push_below_last_popped_panics() {
        let mut h = RadixHeap::new();
        h.push(10, 0u32);
        h.pop();
        h.push(9, 1);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_the_floor() {
        let mut h = RadixHeap::new();
        for i in 0..1000u32 {
            h.push(u64::from(i * 7919 % 1000), i);
        }
        for _ in 0..500 {
            h.pop();
        }
        let cap = h.capacity();
        assert!(cap >= 500);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.capacity(), cap);
        // The floor is back at 0: small keys are legal again.
        h.push(1, 1);
        h.push(0, 0);
        assert_eq!(drain(&mut h), vec![(0, 0), (1, 1)]);
        assert_eq!(h.capacity(), cap);
    }

    /// Deterministic pseudo-random monotone op stream (xorshift) against
    /// `BinaryHeap`: popped keys agree one for one.
    #[test]
    fn agrees_with_binary_heap_on_monotone_streams() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut h = RadixHeap::new();
        let mut reference = BinaryHeap::new();
        let mut last = 0u64;
        for step in 0..20_000u32 {
            if next() % 3 != 0 {
                // Mostly small increments over the floor, some wide jumps.
                let span = if next() % 8 == 0 { 1 << 40 } else { 64 };
                let key = last + next() % span;
                h.push(key, step);
                reference.push(Reverse(key));
            } else {
                let got = h.pop().map(|(k, _)| k);
                assert_eq!(got, reference.pop().map(|Reverse(k)| k));
                last = got.unwrap_or(last);
            }
            assert_eq!(h.len(), reference.len());
        }
    }
}
