//! K-ary min-heap over a dense key universe with decrease-key.

/// Position sentinel: the item is not currently on the heap.
const ABSENT: u32 = u32::MAX;

/// A k-ary min-heap over items `0..capacity` with `O(log n)` push, pop
/// and decrease-key, and `O(1)` membership/key lookup.
///
/// The arity `A` is a compile-time constant. Binary (`A = 2`) is the
/// classic layout; wider heaps trade a slightly costlier `sift_down`
/// (compare up to `A` children per level) for a shallower tree, which
/// pays off in decrease-key-heavy workloads like Dijkstra where
/// `sift_up` (one comparison per level) dominates: a 4-ary heap halves
/// the sift-up depth.
///
/// Tie-breaking is arity-independent in the cases this workspace relies
/// on: among equal keys the earlier heap slot wins, and for `A = 2` the
/// layout is bit-identical to the previous binary implementation.
///
/// Each item can be on the heap at most once;
/// [`push_or_decrease`](IndexedKaryHeap::push_or_decrease)
/// (the Dijkstra label-correction step) either inserts the item or lowers
/// its key, refusing increases. Popped items remember their final key until
/// [`clear`](IndexedKaryHeap::clear) — callers use this as the "settled
/// distance" table when convenient.
///
/// ```
/// use kpj_heap::IndexedMinHeap;
/// let mut h: IndexedMinHeap<u64> = IndexedMinHeap::new(4);
/// h.push_or_decrease(2, 30);
/// h.push_or_decrease(0, 10);
/// h.push_or_decrease(2, 20); // decrease
/// h.push_or_decrease(2, 99); // ignored (increase)
/// assert_eq!(h.pop(), Some((0, 10)));
/// assert_eq!(h.pop(), Some((2, 20)));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedKaryHeap<K: Ord + Copy, const A: usize> {
    /// Heap array of item ids, ordered by `keys`.
    heap: Vec<u32>,
    /// `pos[item]` = index in `heap`, or `ABSENT`.
    pos: Vec<u32>,
    /// `keys[item]` = current (or final, if popped) key. Only meaningful for
    /// items touched since the last `clear`.
    keys: Vec<K>,
    /// Items touched since the last `clear`, for cheap clearing.
    touched: Vec<u32>,
}

/// The binary special case — the workspace-wide default heap.
pub type IndexedMinHeap<K> = IndexedKaryHeap<K, 2>;

impl<K: Ord + Copy + Default, const A: usize> IndexedKaryHeap<K, A> {
    /// An empty heap over items `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        const { assert!(A >= 2, "heap arity must be at least 2") };
        assert!(
            capacity < ABSENT as usize,
            "capacity exceeds u32 position space"
        );
        IndexedKaryHeap {
            heap: Vec::new(),
            pos: vec![ABSENT; capacity],
            keys: vec![K::default(); capacity],
            touched: Vec::new(),
        }
    }

    /// Number of items currently on the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no items are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Key universe size.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.pos.len()
    }

    /// True if `item` is currently queued.
    #[inline]
    pub fn contains(&self, item: usize) -> bool {
        self.pos[item] != ABSENT
    }

    /// The current key of a queued item, or the final key of a popped item
    /// (meaningless for items untouched since the last clear).
    #[inline]
    pub fn key(&self, item: usize) -> K {
        self.keys[item]
    }

    /// The minimum entry without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(usize, K)> {
        self.heap
            .first()
            .map(|&i| (i as usize, self.keys[i as usize]))
    }

    /// Insert `item` with `key`, or decrease its key if already queued with
    /// a larger one. Returns `true` if the heap changed.
    ///
    /// An *increase* of a queued item's key is ignored — exactly the
    /// behaviour Dijkstra label correction wants.
    pub fn push_or_decrease(&mut self, item: usize, key: K) -> bool {
        if self.pos[item] == ABSENT {
            self.keys[item] = key;
            self.pos[item] = self.heap.len() as u32;
            self.heap.push(item as u32);
            self.touched.push(item as u32);
            self.sift_up(self.heap.len() - 1);
            true
        } else if key < self.keys[item] {
            self.keys[item] = key;
            self.sift_up(self.pos[item] as usize);
            true
        } else {
            false
        }
    }

    /// Remove and return the minimum `(item, key)`.
    pub fn pop(&mut self) -> Option<(usize, K)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        self.pos[top as usize] = ABSENT;
        Some((top as usize, self.keys[top as usize]))
    }

    /// Empty the heap and forget all touched keys, in time proportional to
    /// the number of items touched since the previous clear (not capacity).
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.pos[i as usize] = ABSENT;
        }
        self.heap.clear();
        self.touched.clear();
    }

    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        self.keys[a as usize] < self.keys[b as usize]
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / A;
            if self.less(self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = A * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let end = (first + A).min(self.heap.len());
            let mut smallest = i;
            for c in first..end {
                if self.less(self.heap[c], self.heap[smallest]) {
                    smallest = c;
                }
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut h: IndexedMinHeap<u32> = IndexedMinHeap::new(8);
        for (i, k) in [(3, 30), (1, 10), (7, 70), (2, 20)] {
            h.push_or_decrease(i, k);
        }
        let mut out = Vec::new();
        while let Some((i, k)) = h.pop() {
            out.push((i, k));
        }
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30), (7, 70)]);
    }

    #[test]
    fn decrease_key_reorders_increase_ignored() {
        let mut h: IndexedMinHeap<u32> = IndexedMinHeap::new(4);
        h.push_or_decrease(0, 50);
        h.push_or_decrease(1, 40);
        assert!(h.push_or_decrease(0, 5));
        assert!(!h.push_or_decrease(1, 100));
        assert_eq!(h.key(1), 40);
        assert_eq!(h.pop(), Some((0, 5)));
        assert_eq!(h.pop(), Some((1, 40)));
    }

    #[test]
    fn contains_and_peek() {
        let mut h: IndexedMinHeap<u64> = IndexedMinHeap::new(4);
        assert!(h.is_empty());
        assert_eq!(h.peek(), None);
        h.push_or_decrease(2, 9);
        assert!(h.contains(2));
        assert!(!h.contains(0));
        assert_eq!(h.peek(), Some((2, 9)));
        h.pop();
        assert!(!h.contains(2));
        // Final key is remembered after pop.
        assert_eq!(h.key(2), 9);
    }

    #[test]
    fn clear_resets_membership_cheaply() {
        let mut h: IndexedMinHeap<u32> = IndexedMinHeap::new(100);
        h.push_or_decrease(5, 1);
        h.push_or_decrease(6, 2);
        h.pop();
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(5));
        assert!(!h.contains(6));
        h.push_or_decrease(6, 3);
        assert_eq!(h.pop(), Some((6, 3)));
    }

    #[test]
    fn duplicate_key_values_all_pop() {
        let mut h: IndexedMinHeap<u32> = IndexedMinHeap::new(10);
        for i in 0..10 {
            h.push_or_decrease(i, 7);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    /// Deterministic pseudo-random op stream (xorshift), no rand dep.
    fn model_check<const A: usize>() {
        use std::collections::BTreeMap;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cap = 64usize;
        let mut h: IndexedKaryHeap<u64, A> = IndexedKaryHeap::new(cap);
        // Model mirrors only *queued* items.
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        for _ in 0..10_000 {
            if next() % 3 != 0 {
                let item = (next() as usize) % cap;
                let key = next() % 1000;
                let changed = h.push_or_decrease(item, key);
                match model.get_mut(&item) {
                    None => {
                        assert!(changed, "fresh push must change the heap");
                        model.insert(item, key);
                    }
                    Some(k) if key < *k => {
                        assert!(changed, "strict decrease must change the heap");
                        *k = key;
                    }
                    Some(_) => assert!(!changed, "increase must be ignored"),
                }
            } else {
                match h.pop() {
                    None => assert!(model.is_empty()),
                    Some((item, key)) => {
                        let min = *model.values().min().expect("model non-empty");
                        assert_eq!(key, min, "popped key must be the minimum");
                        assert_eq!(model.remove(&item), Some(key));
                    }
                }
            }
            assert_eq!(h.len(), model.len());
        }
    }

    #[test]
    fn model_check_against_btreemap_binary() {
        model_check::<2>();
    }

    #[test]
    fn model_check_against_btreemap_quaternary() {
        model_check::<4>();
    }

    #[test]
    fn model_check_against_btreemap_octonary() {
        model_check::<8>();
    }

    #[test]
    fn arities_agree_on_popped_key_sequences() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cap = 128usize;
        let mut h2: IndexedKaryHeap<u64, 2> = IndexedKaryHeap::new(cap);
        let mut h4: IndexedKaryHeap<u64, 4> = IndexedKaryHeap::new(cap);
        for _ in 0..2_000 {
            let item = (next() as usize) % cap;
            let key = next() % 500;
            assert_eq!(
                h2.push_or_decrease(item, key),
                h4.push_or_decrease(item, key)
            );
        }
        // Keys (not necessarily items — equal keys may tie-break
        // differently across arities) drain in the same order.
        while let Some((_, k2)) = h2.pop() {
            let (_, k4) = h4.pop().expect("same length");
            assert_eq!(k2, k4);
        }
        assert!(h4.is_empty());
    }
}
