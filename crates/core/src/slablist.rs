//! Index-linked lists threaded through a chunked slab: the one
//! replacement-order primitive behind the LRU node cache and the LFU
//! hotspot buffer.
//!
//! A [`Slab`] owns nodes addressed by `u32`; any number of [`List`]s (each
//! just a head and a tail held by its owner) link disjoint subsets of them,
//! so moving a node between lists, to a tail, or out is a handful of index
//! writes. The slab grows one fixed-size chunk at a time — a `Vec` that
//! doubled would hold old and new copy at once, a transient that showed as
//! +26 % peak RSS on the serving benchmark — and released nodes are reused
//! before it grows.

use std::ops::{Index, IndexMut};

/// "No node": an empty list's ends, the first node's `prev`.
pub(crate) const NIL: u32 = u32::MAX;

/// Nodes per chunk.
const CHUNK: usize = 1 << 10;

struct Node<T> {
    prev: u32,
    /// Next in its list; next free node while released.
    next: u32,
    val: T,
}

/// Head and tail of one list of a [`Slab`]'s nodes.
#[derive(Clone, Copy)]
pub(crate) struct List {
    pub head: u32,
    pub tail: u32,
}

impl List {
    pub const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// A pool of list nodes, each linkable into one [`List`] at a time.
pub(crate) struct Slab<T> {
    chunks: Vec<Vec<Node<T>>>,
    free: u32,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            chunks: Vec::new(),
            free: NIL,
        }
    }

    fn node(&self, i: u32) -> &Node<T> {
        &self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<T> {
        &mut self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    /// A node holding `val`, in no list: a released one if there is any.
    pub fn alloc(&mut self, val: T) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let n = self.node_mut(i);
            let next_free = std::mem::replace(&mut n.next, NIL);
            n.val = val;
            self.free = next_free;
            return i;
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let base = (self.chunks.len() - 1) * CHUNK;
        let chunk = self.chunks.last_mut().expect("pushed above");
        chunk.push(Node {
            prev: NIL,
            next: NIL,
            val,
        });
        u32::try_from(base + chunk.len() - 1).expect("slab outgrew u32 indices")
    }

    /// Returns the unlinked node `i` to the pool. Its value stays in place
    /// until the node is reused.
    pub fn release(&mut self, i: u32) {
        self.node_mut(i).next = self.free;
        self.free = i;
    }

    /// The node after `i` in its list.
    pub fn next(&self, i: u32) -> u32 {
        self.node(i).next
    }

    /// Links the unlinked node `i` into `list` right after `at` (`NIL`: at
    /// the head).
    pub fn insert_after(&mut self, list: &mut List, at: u32, i: u32) {
        let next = if at == NIL {
            std::mem::replace(&mut list.head, i)
        } else {
            std::mem::replace(&mut self.node_mut(at).next, i)
        };
        let n = self.node_mut(i);
        (n.prev, n.next) = (at, next);
        if next == NIL {
            list.tail = i;
        } else {
            self.node_mut(next).prev = i;
        }
    }

    /// Links the unlinked node `i` at the tail of `list`.
    pub fn push_back(&mut self, list: &mut List, i: u32) {
        self.insert_after(list, list.tail, i);
    }

    /// Takes node `i` out of `list`.
    pub fn unlink(&mut self, list: &mut List, i: u32) {
        let (prev, next) = (self.node(i).prev, self.node(i).next);
        if prev == NIL {
            list.head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    fn index(&self, i: u32) -> &T {
        &self.node(i).val
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.node_mut(i).val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(s: &Slab<u64>, l: &List) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut i, mut prev) = (l.head, NIL);
        while i != NIL {
            assert_eq!(s.node(i).prev, prev);
            out.push(s[i]);
            (prev, i) = (i, s.next(i));
        }
        assert_eq!(l.tail, prev);
        out
    }

    #[test]
    fn two_lists_share_one_slab() {
        let mut s = Slab::new();
        let (mut a, mut b) = (List::EMPTY, List::EMPTY);
        let ids: Vec<u32> = (0..6).map(|v| s.alloc(v)).collect();
        for &i in &ids[..4] {
            s.push_back(&mut a, i);
        }
        s.insert_after(&mut b, NIL, ids[4]);
        s.insert_after(&mut b, NIL, ids[5]);
        assert_eq!(walk(&s, &a), [0, 1, 2, 3]);
        assert_eq!(walk(&s, &b), [5, 4]);
        // Middle, head and tail leave; one re-enters the other list.
        s.unlink(&mut a, ids[1]);
        s.unlink(&mut a, ids[0]);
        s.unlink(&mut a, ids[3]);
        s.insert_after(&mut b, ids[5], ids[3]);
        assert_eq!(walk(&s, &a), [2]);
        assert_eq!(walk(&s, &b), [5, 3, 4]);
        s.unlink(&mut a, ids[2]);
        assert!(a.is_empty() && a.tail == NIL);
    }

    #[test]
    fn released_nodes_are_reused_before_the_slab_grows() {
        let mut s = Slab::new();
        let ids: Vec<u32> = (0..CHUNK as u64 + 5).map(|v| s.alloc(v)).collect();
        assert_eq!(s.chunks.len(), 2);
        assert_eq!(s[ids[CHUNK + 4]], CHUNK as u64 + 4);
        s.release(ids[3]);
        s.release(ids[CHUNK + 1]);
        assert_eq!(s.alloc(100), ids[CHUNK + 1]);
        assert_eq!(s.alloc(101), ids[3]);
        assert_eq!(s.alloc(102) as usize, CHUNK + 5);
        assert_eq!((s[ids[3]], s[ids[CHUNK + 1]]), (101, 100));
    }
}
