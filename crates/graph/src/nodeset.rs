//! Word-packed bitset over the node universe `[n]`.
//!
//! Flooding manipulates node sets on every time step: the informed set `I_t`,
//! the newly informed frontier, and out-neighborhoods `N(I_t)`. A packed
//! bitset gives O(1) membership tests, O(n/64) unions, and cache-friendly
//! iteration — far better constants than a `HashSet<u32>` for the dense sets
//! this workload produces.

use crate::Node;

/// A set of nodes drawn from a fixed universe `0 .. universe`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
}

impl NodeSet {
    /// Creates an empty set over the universe `0 .. universe`.
    pub fn new(universe: usize) -> Self {
        NodeSet {
            words: vec![0u64; universe.div_ceil(64)],
            universe,
            len: 0,
        }
    }

    /// Creates a set containing every node of the universe.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        // Clear the bits beyond `universe` in the last word.
        let rem = universe % 64;
        if rem != 0 {
            if let Some(last) = s.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        s.len = universe;
        s
    }

    /// Builds a set from an iterator of nodes.
    pub fn from_iter<I: IntoIterator<Item = Node>>(universe: usize, nodes: I) -> Self {
        let mut s = Self::new(universe);
        for u in nodes {
            s.insert(u);
        }
        s
    }

    /// Builds a singleton set.
    pub fn singleton(universe: usize, node: Node) -> Self {
        let mut s = Self::new(universe);
        s.insert(node);
        s
    }

    /// Size of the universe the set draws from.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of nodes currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if the set contains every node of its universe.
    pub fn is_full(&self) -> bool {
        self.len == self.universe
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: Node) -> bool {
        let i = node as usize;
        debug_assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Inserts a node; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, node: Node) -> bool {
        let i = node as usize;
        assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes a node; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, node: Node) -> bool {
        let i = node as usize;
        assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            *w &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes `node` if `cond` holds, branching on neither: the node's
    /// bit is masked out by arithmetic and the length adjusted by the same
    /// bit, so a loop removing data-dependent members runs no unpredictable
    /// branch. Returns `true` if the node was present and removed.
    ///
    /// A node outside the universe is never present (tail bits stay
    /// clear), so the set cannot change; one past the last word panics on
    /// the index, and debug builds check the universe as `contains` does.
    #[inline]
    pub fn remove_if(&mut self, node: Node, cond: bool) -> bool {
        let i = node as usize;
        debug_assert!(
            i < self.universe,
            "node {i} outside universe {}",
            self.universe
        );
        let w = &mut self.words[i / 64];
        let hit = (*w >> (i % 64)) & cond as u64;
        *w &= !(hit << (i % 64));
        self.len -= hit as usize;
        hit == 1
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
        self.len = 0;
    }

    /// In-place union: `self ← self ∪ other`. Panics if universes differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut count = 0usize;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
            count += a.count_ones() as usize;
        }
        self.len = count;
    }

    /// In-place intersection: `self ← self ∩ other`. Panics if universes differ.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut count = 0usize;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
            count += a.count_ones() as usize;
        }
        self.len = count;
    }

    /// In-place difference: `self ← self \ other`. Panics if universes differ.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut count = 0usize;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !*b;
            count += a.count_ones() as usize;
        }
        self.len = count;
    }

    /// Returns the complement of the set within its universe.
    pub fn complement(&self) -> NodeSet {
        let mut out = NodeSet::full(self.universe);
        out.difference_with(self);
        out
    }

    /// Number of nodes in `self ∩ other` without materialising it.
    pub fn intersection_len(&self, other: &NodeSet) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if every node of `self` is in `other`.
    pub fn is_subset_of(&self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the nodes of the set in increasing order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the set into a sorted vector of nodes.
    pub fn to_vec(&self) -> Vec<Node> {
        self.iter().collect()
    }
}

/// Iterator over the members of a [`NodeSet`] in increasing order.
pub struct NodeSetIter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl<'a> Iterator for NodeSetIter<'a> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.word_idx * 64 + bit) as Node);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = Node;
    type IntoIter = NodeSetIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn empty_and_full() {
        let e = NodeSet::new(100);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        let f = NodeSet::full(100);
        assert_eq!(f.len(), 100);
        assert!(f.is_full());
        assert!(f.contains(0));
        assert!(f.contains(99));
    }

    #[test]
    fn full_clears_tail_bits() {
        let f = NodeSet::full(67);
        assert_eq!(f.len(), 67);
        assert_eq!(f.iter().count(), 67);
        assert_eq!(f.iter().max(), Some(66));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(64));
    }

    #[test]
    fn remove_if_removes_exactly_the_present_members_it_is_told_to() {
        // 130 nodes: two full words and a partial third.
        let mut s = NodeSet::from_iter(130, [0u32, 63, 64, 100, 129]);
        assert!(!s.remove_if(63, false));
        assert!(s.contains(63));
        assert!(!s.remove_if(1, true), "an absent node is not removed");
        assert!(!s.remove_if(1, false));
        assert_eq!(s.len(), 5);
        for v in [0u32, 64, 129] {
            assert!(s.remove_if(v, true));
            assert!(!s.contains(v));
            assert!(!s.remove_if(v, true), "removed twice");
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_vec(), vec![63, 100]);
        assert_eq!(s.len(), s.iter().count());
        // The same sequence through `remove` gives the same set.
        let mut t = NodeSet::from_iter(130, [0u32, 63, 64, 100, 129]);
        for v in [0u32, 64, 129] {
            t.remove(v);
        }
        assert_eq!(s, t);
    }

    #[test]
    fn set_algebra_matches_hashset() {
        let a_items = [1u32, 5, 9, 63, 64, 65, 99];
        let b_items = [5u32, 64, 80, 99];
        let mut a = NodeSet::from_iter(100, a_items.iter().copied());
        let b = NodeSet::from_iter(100, b_items.iter().copied());
        let ha: HashSet<u32> = a_items.iter().copied().collect();
        let hb: HashSet<u32> = b_items.iter().copied().collect();

        assert_eq!(a.intersection_len(&b), ha.intersection(&hb).count());

        let mut u = a.clone();
        u.union_with(&b);
        let hu: HashSet<u32> = ha.union(&hb).copied().collect();
        assert_eq!(u.len(), hu.len());
        assert_eq!(u.to_vec().into_iter().collect::<HashSet<_>>(), hu);

        let mut d = a.clone();
        d.difference_with(&b);
        let hd: HashSet<u32> = ha.difference(&hb).copied().collect();
        assert_eq!(d.to_vec().into_iter().collect::<HashSet<_>>(), hd);

        a.intersect_with(&b);
        let hi: HashSet<u32> = ha.intersection(&hb).copied().collect();
        assert_eq!(a.to_vec().into_iter().collect::<HashSet<_>>(), hi);
    }

    #[test]
    fn complement_partitions_universe() {
        let s = NodeSet::from_iter(70, [0u32, 3, 69]);
        let c = s.complement();
        assert_eq!(s.len() + c.len(), 70);
        assert_eq!(s.intersection_len(&c), 0);
        assert!(!c.contains(0));
        assert!(c.contains(1));
        assert!(!c.contains(69));
    }

    #[test]
    fn subset_checks() {
        let a = NodeSet::from_iter(50, [1u32, 2, 3]);
        let b = NodeSet::from_iter(50, [1u32, 2, 3, 4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = NodeSet::from_iter(200, [150u32, 3, 64, 127, 128]);
        let v = s.to_vec();
        assert_eq!(v, vec![3, 64, 127, 128, 150]);
    }

    #[test]
    fn singleton() {
        let s = NodeSet::singleton(10, 7);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
    }

    #[test]
    #[should_panic]
    fn insert_out_of_universe_panics() {
        let mut s = NodeSet::new(10);
        s.insert(10);
    }
}
