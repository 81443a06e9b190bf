//! Property-based model checks for the priority queues.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kpj_heap::{IndexedMinHeap, MinHeap, RadixHeap};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// IndexedMinHeap behaves exactly like a map + min-extraction model
    /// under arbitrary interleavings of push/decrease, pop and clear.
    #[test]
    fn indexed_heap_model(ops in vec((0..4u8, 0..24usize, 0..500u64), 1..400)) {
        let mut h: IndexedMinHeap<u64> = IndexedMinHeap::new(24);
        let mut model: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (op, item, key) in ops {
            match op {
                0 | 1 => {
                    let changed = h.push_or_decrease(item, key);
                    match model.get(&item) {
                        None => {
                            prop_assert!(changed);
                            model.insert(item, key);
                        }
                        Some(&old) if key < old => {
                            prop_assert!(changed);
                            model.insert(item, key);
                        }
                        Some(_) => prop_assert!(!changed),
                    }
                }
                2 => match h.pop() {
                    None => prop_assert!(model.is_empty()),
                    Some((item, key)) => {
                        let min = *model.values().min().unwrap();
                        prop_assert_eq!(key, min);
                        prop_assert_eq!(model.remove(&item), Some(key));
                        prop_assert!(!h.contains(item));
                        // Final keys stay readable after the pop.
                        prop_assert_eq!(h.key(item), key);
                    }
                },
                _ => {
                    h.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(h.len(), model.len());
            prop_assert_eq!(h.is_empty(), model.is_empty());
            if let Some((_, k)) = h.peek() {
                prop_assert_eq!(k, *model.values().min().unwrap());
            }
            for (&i, &k) in &model {
                prop_assert!(h.contains(i));
                prop_assert_eq!(h.key(i), k);
            }
        }
    }

    /// Draining a MinHeap yields keys in sorted order and preserves the
    /// key→value pairing.
    #[test]
    fn min_heap_drains_sorted(entries in vec((0..10_000u64, 0..10_000u64), 0..200)) {
        let mut q = MinHeap::new();
        for &(k, v) in &entries {
            q.push(k, v);
        }
        prop_assert_eq!(q.len(), entries.len());
        let mut drained = Vec::new();
        while let Some((k, v)) = q.pop() {
            drained.push((k, v));
        }
        // Keys non-decreasing.
        prop_assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        // Same multiset of entries.
        let mut want = entries;
        want.sort_unstable();
        let mut got = drained;
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// peek_key always reports the next pop's key.
    #[test]
    fn min_heap_peek_consistent(entries in vec(0..1_000u32, 1..100)) {
        let mut q = MinHeap::new();
        for (i, &k) in entries.iter().enumerate() {
            q.push(k, i);
        }
        while let Some(top) = q.peek_key() {
            let (k, _) = q.pop().unwrap();
            prop_assert_eq!(k, top);
        }
        prop_assert!(q.is_empty());
    }

    /// RadixHeap against `std::collections::BinaryHeap` on random
    /// monotone op streams. Push shapes: small steps over the floor (the
    /// last popped key), wide jumps, keys near `u64::MAX` (saturated
    /// path lengths), and zero-weight pushes exactly at the floor while
    /// draining. Every pop returns the reference's minimum key, popped
    /// keys never decrease between clears, the popped entries are the
    /// pushed multiset, and `clear` keeps the bucket capacity.
    #[test]
    fn radix_heap_matches_binary_heap(ops in vec((0..6u8, 0..64u64, 0..4u8), 1..400)) {
        let mut h: RadixHeap<u32> = RadixHeap::new();
        let mut reference = BinaryHeap::new();
        let mut floor = 0u64;
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        for (i, (op, delta, shape)) in ops.into_iter().enumerate() {
            match op {
                0..=2 => {
                    let key = match shape {
                        0 => floor.saturating_add(delta),
                        1 => floor.saturating_add(delta << 32),
                        2 => floor.max(u64::MAX - delta),
                        _ => floor,
                    };
                    h.push(key, i as u32);
                    reference.push(Reverse(key));
                    pushed.push((key, i as u32));
                }
                3 | 4 => match h.pop() {
                    None => prop_assert!(reference.is_empty()),
                    Some((key, item)) => {
                        prop_assert_eq!(Some(Reverse(key)), reference.pop());
                        prop_assert!(key >= floor);
                        floor = key;
                        popped.push((key, item));
                    }
                },
                _ => {
                    let cap = h.capacity();
                    h.clear();
                    reference.clear();
                    prop_assert_eq!(h.capacity(), cap);
                    floor = 0;
                    pushed.clear();
                    popped.clear();
                }
            }
            prop_assert_eq!(h.len(), reference.len());
            prop_assert_eq!(h.is_empty(), reference.is_empty());
        }
        while let Some((key, item)) = h.pop() {
            prop_assert!(key >= floor);
            floor = key;
            popped.push((key, item));
        }
        pushed.sort_unstable();
        popped.sort_unstable();
        prop_assert_eq!(popped, pushed);
    }
}
