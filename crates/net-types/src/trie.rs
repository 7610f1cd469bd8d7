//! A binary Patricia trie keyed by IPv4 prefixes.
//!
//! This is the central index structure of the reproduction: the paper's
//! correlation questions ("does this DROP prefix have a covering ROA?",
//! "is there a route object for an exact match or more-specific?",
//! "which allocation covers this address on date X?") are all exact /
//! longest-match / subtree queries over prefix-keyed maps, and they run
//! millions of times across daily archive snapshots. The trie performs
//! them in O(prefix length) independent of population.
//!
//! Nodes live in a flat arena (`Vec<Node>`) indexed by `u32` rather
//! than one heap allocation per node: a 16-byte node in a contiguous
//! pool instead of a ~56-byte boxed node scattered across the heap.
//! Values sit in a parallel column indexed by the same ids, so a
//! `PrefixTrie<V>` is two allocations however many prefixes it holds —
//! the struct-of-arrays diet of DESIGN.md §11. Removed nodes go on a
//! free list and are reused by later inserts.

use std::fmt;

use crate::Ipv4Prefix;

/// The arena's null id: no child / empty root.
const NONE: u32 = u32::MAX;

/// One arena node: the prefix at this position (split into its raw
/// address and length so the node packs into 16 bytes) plus the arena
/// ids of up to two children whose prefixes strictly extend it. Whether
/// the node carries a value (or is purely structural) lives in the
/// parallel value column.
#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u32,
    children: [u32; 2],
    len: u8,
}

/// Size of one arena node in bytes — pinned by `tests/size_of.rs` so
/// the per-prefix cost cannot silently grow.
pub const TRIE_NODE_SIZE: usize = std::mem::size_of::<Node>();

impl Node {
    fn new(prefix: Ipv4Prefix) -> Node {
        Node {
            addr: prefix.network_u32(),
            children: [NONE, NONE],
            len: prefix.len(),
        }
    }

    fn prefix(&self) -> Ipv4Prefix {
        Ipv4Prefix::from_u32(self.addr, self.len)
    }

    /// Which child slot of `self` the prefix `p` (which must be strictly
    /// longer than `self.prefix()` and share its bits) falls into.
    fn slot(&self, p: &Ipv4Prefix) -> usize {
        usize::from(p.bit(self.len))
    }
}

/// A map from [`Ipv4Prefix`] to `V` supporting exact, longest-match,
/// covering-chain and subtree queries.
///
/// # Examples
///
/// ```
/// use droplens_net::{Ipv4Prefix, PrefixTrie};
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("10.0.0.0/8".parse().unwrap(), "rir-allocation");
/// trie.insert("10.5.0.0/16".parse().unwrap(), "customer");
///
/// let q: Ipv4Prefix = "10.5.9.0/24".parse().unwrap();
/// let (best, v) = trie.longest_match(&q).unwrap();
/// assert_eq!(best.to_string(), "10.5.0.0/16");
/// assert_eq!(*v, "customer");
/// ```
pub struct PrefixTrie<V> {
    /// The node arena; ids are indices into this pool.
    nodes: Vec<Node>,
    /// Per-node values, a parallel column (`None` = structural node).
    values: Vec<Option<V>>,
    /// Arena id of the root, or [`NONE`].
    root: u32,
    /// Number of valued entries.
    len: usize,
    /// Released arena ids available for reuse.
    free: Vec<u32>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Create an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: Vec::new(),
            values: Vec::new(),
            root: NONE,
            len: 0,
            free: Vec::new(),
        }
    }

    /// Number of prefixes stored (structural nodes are not counted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every entry (the arena capacity is kept for reuse).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.values.clear();
        self.free.clear();
        self.root = NONE;
        self.len = 0;
    }

    /// Allocate an arena node, reusing a released id when one exists.
    fn alloc(&mut self, prefix: Ipv4Prefix, value: Option<V>) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Node::new(prefix);
            self.values[id as usize] = value;
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::new(prefix));
        self.values.push(value);
        id
    }

    /// Return `id` to the free list.
    fn release(&mut self, id: u32) {
        self.values[id as usize] = None;
        self.nodes[id as usize].children = [NONE, NONE];
        self.free.push(id);
    }

    /// Insert `value` at `prefix`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        let (root, replaced) = self.insert_at(self.root, prefix, value);
        self.root = root;
        if replaced.is_none() {
            self.len += 1;
        }
        replaced
    }

    /// Insert under the subtree rooted at `slot`, returning the id that
    /// now occupies the slot plus any replaced value. Recursion depth is
    /// bounded by the prefix length (≤ 33 frames).
    fn insert_at(&mut self, slot: u32, prefix: Ipv4Prefix, value: V) -> (u32, Option<V>) {
        if slot == NONE {
            let id = self.alloc(prefix, Some(value));
            return (id, None);
        }
        let node = self.nodes[slot as usize];
        let node_prefix = node.prefix();
        let common = node_prefix.common_prefix_len(&prefix);

        if common == node_prefix.len() && common == prefix.len() {
            // Same prefix: replace value in place.
            let replaced = self.values[slot as usize].replace(value);
            return (slot, replaced);
        }

        if common == node_prefix.len() {
            // prefix strictly extends node's prefix: descend.
            let idx = node.slot(&prefix);
            let (child, replaced) = self.insert_at(node.children[idx], prefix, value);
            self.nodes[slot as usize].children[idx] = child;
            return (slot, replaced);
        }

        if common == prefix.len() {
            // node's prefix strictly extends prefix: new node becomes parent.
            let id = self.alloc(prefix, Some(value));
            let idx = usize::from(node_prefix.bit(prefix.len()));
            self.nodes[id as usize].children[idx] = slot;
            return (id, None);
        }

        // Diverge below both: create a structural branch at the common
        // prefix with the two nodes as children.
        let branch_prefix = prefix.truncate(common);
        let branch = self.alloc(branch_prefix, None);
        let leaf = self.alloc(prefix, Some(value));
        let old_idx = usize::from(node_prefix.bit(common));
        let new_idx = usize::from(prefix.bit(common));
        debug_assert_ne!(old_idx, new_idx);
        self.nodes[branch as usize].children[old_idx] = slot;
        self.nodes[branch as usize].children[new_idx] = leaf;
        (branch, None)
    }

    /// Exact-match lookup, inserting `default()` when `prefix` is absent.
    /// One trie walk replaces the `get` → `insert` → `get_mut` triple that
    /// per-record ingest loops would otherwise pay.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let (root, id, inserted) = self.get_or_insert_at(self.root, prefix);
        self.root = root;
        if inserted {
            self.len += 1;
        }
        self.values[id as usize].get_or_insert_with(default)
    }

    /// Walk for [`Self::get_or_insert_with`]: returns the id occupying
    /// the slot, the id of the node holding `prefix` (its value is
    /// filled by the caller), and whether a value slot was newly opened.
    fn get_or_insert_at(&mut self, slot: u32, prefix: Ipv4Prefix) -> (u32, u32, bool) {
        if slot == NONE {
            let id = self.alloc(prefix, None);
            return (id, id, true);
        }
        let node = self.nodes[slot as usize];
        let node_prefix = node.prefix();
        let common = node_prefix.common_prefix_len(&prefix);

        if common == node_prefix.len() && common == prefix.len() {
            // Exact hit — possibly reviving a structural node.
            let inserted = self.values[slot as usize].is_none();
            return (slot, slot, inserted);
        }

        if common == node_prefix.len() {
            let idx = node.slot(&prefix);
            let (child, id, inserted) = self.get_or_insert_at(node.children[idx], prefix);
            self.nodes[slot as usize].children[idx] = child;
            return (slot, id, inserted);
        }

        if common == prefix.len() {
            // node's prefix strictly extends prefix: new node becomes parent.
            let id = self.alloc(prefix, None);
            let idx = usize::from(node_prefix.bit(prefix.len()));
            self.nodes[id as usize].children[idx] = slot;
            return (id, id, true);
        }

        // Diverge below both: structural branch at the common prefix.
        let branch_prefix = prefix.truncate(common);
        let branch = self.alloc(branch_prefix, None);
        let leaf = self.alloc(prefix, None);
        let old_idx = usize::from(node_prefix.bit(common));
        let new_idx = usize::from(prefix.bit(common));
        debug_assert_ne!(old_idx, new_idx);
        self.nodes[branch as usize].children[old_idx] = slot;
        self.nodes[branch as usize].children[new_idx] = leaf;
        (branch, leaf, true)
    }

    /// The arena id holding `prefix` exactly, if present (valued or not).
    fn find(&self, prefix: &Ipv4Prefix) -> Option<u32> {
        let mut cur = self.root;
        while cur != NONE {
            // node ids come from push_node(), in-bounds by construction
            let node = &self.nodes[cur as usize];
            let node_prefix = node.prefix();
            let common = node_prefix.common_prefix_len(prefix);
            if common < node_prefix.len() {
                return None; // diverged above this node
            }
            if node_prefix.len() == prefix.len() {
                return Some(cur);
            }
            // node's prefix is a proper prefix of `prefix`
            cur = node.children[node.slot(prefix)]; // slot() is 0|1 into [u32; 2]
        }
        None
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&V> {
        self.find(prefix)
            .and_then(|id| self.values[id as usize].as_ref())
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut V> {
        self.find(prefix)
            .and_then(|id| self.values[id as usize].as_mut())
    }

    /// True if `prefix` is stored exactly.
    pub fn contains(&self, prefix: &Ipv4Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Remove `prefix`, returning its value. Structural nodes left behind
    /// are pruned onto the free list so that memory usage tracks live
    /// entries.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<V> {
        let (root, removed) = self.remove_at(self.root, prefix);
        self.root = root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_at(&mut self, slot: u32, prefix: &Ipv4Prefix) -> (u32, Option<V>) {
        if slot == NONE {
            return (NONE, None);
        }
        let node = self.nodes[slot as usize];
        let node_prefix = node.prefix();
        let common = node_prefix.common_prefix_len(prefix);
        if common < node_prefix.len() {
            return (slot, None);
        }
        let removed = if node_prefix.len() == prefix.len() {
            self.values[slot as usize].take()
        } else {
            let idx = node.slot(prefix);
            let (child, removed) = self.remove_at(node.children[idx], prefix);
            self.nodes[slot as usize].children[idx] = child;
            removed
        };
        if removed.is_some() {
            return (self.prune(slot), removed);
        }
        (slot, removed)
    }

    /// Collapse a node that no longer carries a value and has fewer than
    /// two children, returning the id that should occupy its slot.
    fn prune(&mut self, slot: u32) -> u32 {
        if self.values[slot as usize].is_some() {
            return slot;
        }
        let [lo, hi] = self.nodes[slot as usize].children;
        match (lo, hi) {
            (NONE, NONE) => {
                self.release(slot);
                NONE
            }
            (child, NONE) | (NONE, child) => {
                self.release(slot);
                child
            }
            _ => slot,
        }
    }

    /// The most specific stored prefix covering `query`, with its value.
    pub fn longest_match(&self, query: &Ipv4Prefix) -> Option<(Ipv4Prefix, &V)> {
        let mut best = None;
        let mut cur = self.root;
        while cur != NONE {
            // node ids come from push_node(), in-bounds by construction
            let node = &self.nodes[cur as usize];
            let node_prefix = node.prefix();
            if !node_prefix.covers(query) {
                break;
            }
            // values is kept the same length as nodes
            if let Some(v) = &self.values[cur as usize] {
                best = Some((node_prefix, v));
            }
            if node_prefix.len() == query.len() {
                break;
            }
            cur = node.children[node.slot(query)]; // slot() is 0|1 into [u32; 2]
        }
        best
    }

    /// Every stored prefix covering `query` (the "covering chain"), from
    /// least specific to most specific.
    pub fn matches<'a>(&'a self, query: &Ipv4Prefix) -> Vec<(Ipv4Prefix, &'a V)> {
        self.matches_iter(query).collect()
    }

    /// Iterator form of [`matches`](Self::matches): walks the covering
    /// chain lazily, least specific first, without allocating, so a
    /// caller can pick any entry of the chain by its value.
    pub fn matches_iter<'a>(&'a self, query: &Ipv4Prefix) -> Matches<'a, V> {
        Matches {
            trie: self,
            query: *query,
            cur: self.root,
        }
    }

    /// Every stored prefix covered by `query` (i.e. equal or more
    /// specific), in address order.
    pub fn covered_by<'a>(&'a self, query: &Ipv4Prefix) -> Vec<(Ipv4Prefix, &'a V)> {
        self.covered_by_iter(query).collect()
    }

    /// Iterator form of [`covered_by`](Self::covered_by): walks the
    /// subtree lazily without allocating the result `Vec`, so hot callers
    /// (per-query visibility checks) can short-circuit on the first hit.
    pub fn covered_by_iter<'a>(&'a self, query: &Ipv4Prefix) -> Iter<'a, V> {
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NONE {
            // node ids come from push_node(), in-bounds by construction
            let node = &self.nodes[cur as usize];
            let node_prefix = node.prefix();
            if query.covers(&node_prefix) {
                stack.push(cur);
                break;
            }
            if !node_prefix.covers(query) || node_prefix.len() == query.len() {
                break; // disjoint, or query sits exactly on a leaf-less node
            }
            cur = node.children[node.slot(query)]; // slot() is 0|1 into [u32; 2]
        }
        Iter { trie: self, stack }
    }

    /// True if any stored prefix overlaps `query` (covers it or is covered
    /// by it).
    pub fn overlaps(&self, query: &Ipv4Prefix) -> bool {
        self.longest_match(query).is_some() || self.covered_by_iter(query).next().is_some()
    }

    /// Iterate all `(prefix, value)` pairs in address order.
    pub fn iter(&self) -> Iter<'_, V> {
        let mut stack = Vec::new();
        if self.root != NONE {
            stack.push(self.root);
        }
        Iter { trie: self, stack }
    }

    /// Iterate all stored prefixes in address order.
    pub fn keys(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Iterate all `(prefix, &mut value)` pairs in address order.
    pub fn iter_mut(&mut self) -> IterMut<'_, V> {
        // Two phases keep this 100% safe under the workspace's
        // forbid(unsafe_code): first walk the arena immutably to fix the
        // visit order, then split the value column into one reusable
        // `&mut` per slot, handed out by id as the order is replayed.
        let mut order = Vec::with_capacity(self.len);
        let mut stack = Vec::new();
        if self.root != NONE {
            stack.push(self.root);
        }
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.children[1] != NONE {
                stack.push(node.children[1]);
            }
            if node.children[0] != NONE {
                stack.push(node.children[0]);
            }
            if self.values[id as usize].is_some() {
                order.push((node.prefix(), id));
            }
        }
        let slots: Vec<Option<&mut V>> = self.values.iter_mut().map(|v| v.as_mut()).collect();
        IterMut {
            order: order.into_iter(),
            slots,
        }
    }

    /// Iterate all values mutably, in address order of their prefixes.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }
}

impl<V: fmt::Debug> fmt::Debug for PrefixTrie<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(p, v)| (p.to_string(), v)))
            .finish()
    }
}

impl<V> FromIterator<(Ipv4Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Ipv4Prefix, V)>>(iter: T) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

/// In-order iterator over a [`PrefixTrie`]. Children are visited low
/// branch first, which yields address order; a node's own entry is emitted
/// before its subtree (shorter prefixes first at equal addresses).
pub struct Iter<'a, V> {
    trie: &'a PrefixTrie<V>,
    stack: Vec<u32>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (Ipv4Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(id) = self.stack.pop() {
            let node = &self.trie.nodes[id as usize];
            // Push high child first so the low child is visited first.
            if node.children[1] != NONE {
                self.stack.push(node.children[1]);
            }
            if node.children[0] != NONE {
                self.stack.push(node.children[0]);
            }
            if let Some(v) = &self.trie.values[id as usize] {
                return Some((node.prefix(), v));
            }
        }
        None
    }
}

/// Covering-chain iterator over a [`PrefixTrie`], least specific first;
/// see [`PrefixTrie::matches_iter`].
pub struct Matches<'a, V> {
    trie: &'a PrefixTrie<V>,
    query: Ipv4Prefix,
    /// Next arena id on the query's path, or [`NONE`] once it is done.
    cur: u32,
}

impl<'a, V> Iterator for Matches<'a, V> {
    type Item = (Ipv4Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.cur != NONE {
            // node ids come from alloc(), in-bounds by construction
            let node = &self.trie.nodes[self.cur as usize];
            let node_prefix = node.prefix();
            if !node_prefix.covers(&self.query) {
                self.cur = NONE;
                break;
            }
            // values is kept the same length as nodes
            let value = self.trie.values[self.cur as usize].as_ref();
            self.cur = if node_prefix.len() == self.query.len() {
                NONE
            } else {
                node.children[node.slot(&self.query)] // slot() is 0|1 into [u32; 2]
            };
            if let Some(v) = value {
                return Some((node_prefix, v));
            }
        }
        None
    }
}

/// Mutable in-order iterator over a [`PrefixTrie`]; same visit order as
/// [`Iter`].
pub struct IterMut<'a, V> {
    /// Valued `(prefix, arena id)` pairs in visit order.
    order: std::vec::IntoIter<(Ipv4Prefix, u32)>,
    /// One take-once `&mut` per arena slot, indexed by id.
    slots: Vec<Option<&'a mut V>>,
}

impl<'a, V> Iterator for IterMut<'a, V> {
    type Item = (Ipv4Prefix, &'a mut V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (prefix, id) = self.order.next()?;
            if let Some(v) = self.slots[id as usize].take() {
                return Some((prefix, v));
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove_basic() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn exact_match_does_not_leak_to_neighbors() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.0.0.0/16"), "sixteen");
        assert_eq!(t.get(&p("10.0.0.0/12")), None);
        assert_eq!(t.get(&p("10.0.0.0/16")), Some(&"sixteen"));
        assert_eq!(t.get(&p("11.0.0.0/8")), None);
    }

    #[test]
    fn longest_match_chain() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.5.0.0/16"), 16);
        t.insert(p("10.5.9.0/24"), 24);

        let q = p("10.5.9.128/25");
        assert_eq!(t.longest_match(&q).unwrap().0, p("10.5.9.0/24"));
        let chain: Vec<_> = t.matches(&q).into_iter().map(|(pfx, _)| pfx).collect();
        assert_eq!(
            chain,
            vec![
                p("0.0.0.0/0"),
                p("10.0.0.0/8"),
                p("10.5.0.0/16"),
                p("10.5.9.0/24")
            ]
        );

        // Query above all entries except default
        assert_eq!(t.longest_match(&p("11.0.0.0/8")).unwrap().0, p("0.0.0.0/0"));
    }

    #[test]
    fn matches_iter_skips_structural_nodes() {
        let mut t = PrefixTrie::new();
        // The two /16s force a structural /15 branch under the /8.
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.0.0.0/16"), 16);
        t.insert(p("10.1.0.0/16"), 161);
        let chain: Vec<_> = t.matches_iter(&p("10.1.2.0/24")).collect();
        assert_eq!(chain, vec![(p("10.0.0.0/8"), &8), (p("10.1.0.0/16"), &161)]);
        assert_eq!(
            t.matches_iter(&p("10.1.2.0/24")).last(),
            t.longest_match(&p("10.1.2.0/24"))
        );
        assert_eq!(t.matches_iter(&p("11.0.0.0/8")).count(), 0);
        assert_eq!(t.matches_iter(&p("10.0.0.0/15")).count(), 1);
    }

    #[test]
    fn longest_match_empty_and_miss() {
        let t: PrefixTrie<i32> = PrefixTrie::new();
        assert!(t.longest_match(&p("10.0.0.0/8")).is_none());
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert!(t.longest_match(&p("11.0.0.0/8")).is_none());
        // A more-specific entry does not cover a less-specific query.
        assert!(t.longest_match(&p("10.0.0.0/4")).is_none());
    }

    #[test]
    fn covered_by_subtree() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.5.0.0/16"), ());
        t.insert(p("10.5.9.0/24"), ());
        t.insert(p("10.200.0.0/16"), ());
        t.insert(p("11.0.0.0/8"), ());

        let covered: Vec<_> = t
            .covered_by(&p("10.0.0.0/8"))
            .into_iter()
            .map(|(pfx, _)| pfx)
            .collect();
        assert_eq!(
            covered,
            vec![
                p("10.0.0.0/8"),
                p("10.5.0.0/16"),
                p("10.5.9.0/24"),
                p("10.200.0.0/16")
            ]
        );

        let covered: Vec<_> = t
            .covered_by(&p("10.5.0.0/16"))
            .into_iter()
            .map(|(pfx, _)| pfx)
            .collect();
        assert_eq!(covered, vec![p("10.5.0.0/16"), p("10.5.9.0/24")]);

        assert!(t.covered_by(&p("12.0.0.0/8")).is_empty());
    }

    #[test]
    fn covered_by_query_below_structural_branch() {
        let mut t = PrefixTrie::new();
        // These two force a structural branch node at 10.0.0.0/15 or similar
        t.insert(p("10.0.0.0/16"), ());
        t.insert(p("10.1.0.0/16"), ());
        let covered: Vec<_> = t
            .covered_by(&p("10.0.0.0/8"))
            .into_iter()
            .map(|(pfx, _)| pfx)
            .collect();
        assert_eq!(covered, vec![p("10.0.0.0/16"), p("10.1.0.0/16")]);
        // Querying the structural node's own prefix exactly
        let covered: Vec<_> = t
            .covered_by(&p("10.0.0.0/15"))
            .into_iter()
            .map(|(pfx, _)| pfx)
            .collect();
        assert_eq!(covered, vec![p("10.0.0.0/16"), p("10.1.0.0/16")]);
    }

    #[test]
    fn overlaps() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.5.0.0/16"), ());
        assert!(t.overlaps(&p("10.0.0.0/8"))); // query covers entry
        assert!(t.overlaps(&p("10.5.9.0/24"))); // entry covers query
        assert!(!t.overlaps(&p("11.0.0.0/8")));
    }

    #[test]
    fn remove_prunes_structural_nodes() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/16"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        // removal of one branch collapses the structural parent
        assert_eq!(t.remove(&p("10.0.0.0/16")), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&2));
        assert_eq!(
            t.longest_match(&p("10.1.2.0/24")).unwrap().0,
            p("10.1.0.0/16")
        );
    }

    #[test]
    fn remove_keeps_children_of_valued_node() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.0.0.0/16"), 16);
        t.insert(p("10.1.0.0/16"), 161);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(8));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&p("10.0.0.0/16")), Some(&16));
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&161));
    }

    #[test]
    fn iteration_is_address_ordered() {
        let mut t = PrefixTrie::new();
        let prefixes = [
            "193.0.0.0/8",
            "10.0.0.0/8",
            "10.5.0.0/16",
            "10.0.0.0/16",
            "128.0.0.0/1",
            "0.0.0.0/0",
        ];
        for s in prefixes {
            t.insert(p(s), ());
        }
        let keys: Vec<_> = t.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), prefixes.len());
    }

    #[test]
    fn from_iterator() {
        let t: PrefixTrie<i32> = [(p("10.0.0.0/8"), 1), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_or_insert_with_matches_insert_semantics() {
        let mut t = PrefixTrie::new();
        // Fresh root
        assert_eq!(*t.get_or_insert_with(p("10.0.0.0/16"), || 1), 1);
        // Existing entry is returned untouched
        *t.get_or_insert_with(p("10.0.0.0/16"), || 99) += 10;
        assert_eq!(t.get(&p("10.0.0.0/16")), Some(&11));
        assert_eq!(t.len(), 1);
        // Sibling forcing a structural branch
        assert_eq!(*t.get_or_insert_with(p("10.1.0.0/16"), || 2), 2);
        // New parent above an existing node
        assert_eq!(*t.get_or_insert_with(p("10.0.0.0/8"), || 8), 8);
        // Descend past a valued node
        assert_eq!(*t.get_or_insert_with(p("10.0.5.0/24"), || 24), 24);
        assert_eq!(t.len(), 4);
        // Revive a structural node (the branch created for the two /16s)
        let branch = p("10.0.0.0/15");
        assert_eq!(*t.get_or_insert_with(branch, || 15), 15);
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(&branch), Some(&15));
        let keys: Vec<_> = t.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn covered_by_iter_matches_covered_by() {
        let mut t = PrefixTrie::new();
        for s in [
            "10.0.0.0/8",
            "10.5.0.0/16",
            "10.5.9.0/24",
            "10.200.0.0/16",
            "11.0.0.0/8",
            "10.0.0.0/16",
            "10.1.0.0/16",
        ] {
            t.insert(p(s), ());
        }
        for q in [
            "10.0.0.0/8",
            "10.5.0.0/16",
            "10.0.0.0/15",
            "12.0.0.0/8",
            "0.0.0.0/0",
        ] {
            let vec_form: Vec<_> = t.covered_by(&p(q)).into_iter().map(|(x, _)| x).collect();
            let iter_form: Vec<_> = t.covered_by_iter(&p(q)).map(|(x, _)| x).collect();
            assert_eq!(vec_form, iter_form, "query {q}");
        }
        let empty: PrefixTrie<()> = PrefixTrie::new();
        assert_eq!(empty.covered_by_iter(&p("10.0.0.0/8")).count(), 0);
    }

    #[test]
    fn iter_mut_visits_all_in_order() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/16"), 0);
        t.insert(p("10.1.0.0/16"), 0);
        t.insert(p("9.0.0.0/8"), 0);
        for (i, (_, v)) in t.iter_mut().enumerate() {
            *v = i as i32 + 1;
        }
        let vals: Vec<_> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![1, 2, 3]);
        let keys: Vec<_> = t.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        *t.get_mut(&p("10.0.0.0/8")).unwrap() += 10;
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&11));
        assert!(t.get_mut(&p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn default_route_handling() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        assert_eq!(t.longest_match(&p("1.2.3.4/32")).unwrap().1, &"default");
        assert_eq!(t.get(&p("0.0.0.0/0")), Some(&"default"));
        let all: Vec<_> = t.covered_by(&p("0.0.0.0/0")).into_iter().collect();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn dense_slash32_population() {
        let mut t = PrefixTrie::new();
        for i in 0u32..256 {
            t.insert(Ipv4Prefix::from_u32(0x0a00_0000 | i, 32), i);
        }
        assert_eq!(t.len(), 256);
        for i in 0u32..256 {
            let q = Ipv4Prefix::from_u32(0x0a00_0000 | i, 32);
            assert_eq!(t.get(&q), Some(&i));
        }
        assert_eq!(t.covered_by(&p("10.0.0.0/24")).len(), 256);
    }

    #[test]
    fn arena_node_is_sixteen_bytes() {
        assert_eq!(TRIE_NODE_SIZE, 16, "node is no longer 16 bytes");
    }

    #[test]
    fn freed_ids_are_reused() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/16"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        let pool_after_two = t.nodes.len();
        // Removing one entry collapses the structural branch: two ids
        // (the entry and the branch) go back on the free list.
        t.remove(&p("10.0.0.0/16"));
        assert_eq!(t.free.len(), 2);
        // Reinserting the same shape reuses them instead of growing.
        t.insert(p("10.0.0.0/16"), 1);
        assert_eq!(t.nodes.len(), pool_after_two);
        assert!(t.free.is_empty());
        assert_eq!(t.get(&p("10.0.0.0/16")), Some(&1));
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&2));
    }

    #[test]
    fn clear_resets_arena() {
        let mut t = PrefixTrie::new();
        for i in 0u32..32 {
            t.insert(Ipv4Prefix::from_u32(i << 24, 8), i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        t.insert(p("10.0.0.0/8"), 7);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&7));
    }
}
