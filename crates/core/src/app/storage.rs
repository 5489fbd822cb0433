//! Hot-state containers for the protocol layer.
//!
//! Every per-query/per-node table the handlers touch on the hot path
//! lives in one of the stores below: state bucketed by dense `u32` node
//! index (a `Vec` addressed directly) or per-query slab slots, so the
//! common operations — "this node went down, drop its soft state", "this
//! query expired, drop everything it owns", point lookups keyed by a
//! node the caller already holds as a dense index — touch only the
//! entries involved instead of walking a map of the whole world.
//!
//! Iteration order is part of the protocol's determinism contract: each
//! store's iterators visit entries in *exactly* the order one
//! workspace-wide `BTreeMap` keyed by the full composite tuple would —
//! node-major buckets replay `(node, ...)` lexicographic order, and
//! per-query vertex maps replay `(query, id)` order. The tests below
//! hold every store to such a `BTreeMap` model under random operation
//! sequences.

use std::collections::BTreeMap;

use seaweed_types::Id;

use super::{DissemTask, PendingSubmit, QueryHandle, TaskKey, VertexState};

/// Dissemination tasks, keyed `(node, query, range start, range width)`:
/// one map per endsystem, keyed by the remainder of the task key, so
/// node-death cleanup drops one bucket instead of filtering the world.
#[derive(Debug)]
pub(crate) struct TaskStore {
    per_node: Vec<BTreeMap<(QueryHandle, u128, u128), DissemTask>>,
    len: usize,
}

impl TaskStore {
    pub fn new(n: usize) -> Self {
        TaskStore {
            per_node: (0..n).map(|_| BTreeMap::new()).collect(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, key: &TaskKey) -> Option<&DissemTask> {
        self.per_node[key.0 as usize].get(&(key.1, key.2, key.3))
    }

    pub fn get_mut(&mut self, key: &TaskKey) -> Option<&mut DissemTask> {
        self.per_node[key.0 as usize].get_mut(&(key.1, key.2, key.3))
    }

    pub fn insert(&mut self, key: TaskKey, task: DissemTask) {
        if self.per_node[key.0 as usize]
            .insert((key.1, key.2, key.3), task)
            .is_none()
        {
            self.len += 1;
        }
    }

    /// Drops every task issued at `node` (its volatile state died with
    /// it). O(own entries).
    pub fn clear_node(&mut self, node: u32) {
        let bucket = std::mem::take(&mut self.per_node[node as usize]);
        self.len -= bucket.len();
    }

    /// Drops every task belonging to an expired query.
    pub fn clear_query(&mut self, query: QueryHandle) {
        for bucket in &mut self.per_node {
            let before = bucket.len();
            bucket.retain(|&(qh, _, _), _| qh != query);
            self.len -= before - bucket.len();
        }
    }

    /// All task keys in ascending `(node, query, start, width)` order.
    pub fn keys(&self) -> impl Iterator<Item = TaskKey> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(|(n, bucket)| bucket.keys().map(move |&(q, s, w)| (n as u32, q, s, w)))
    }

    /// Keys of `node`'s tasks for `query` whose task satisfies `pred`,
    /// in ascending key order (the heal/report paths pick the first
    /// candidate, so this order is protocol-visible).
    pub fn candidate_keys(
        &self,
        node: u32,
        query: QueryHandle,
        mut pred: impl FnMut(&DissemTask) -> bool,
    ) -> Vec<TaskKey> {
        self.per_node[node as usize]
            .range((query, 0, 0)..=(query, u128::MAX, u128::MAX))
            .filter(|(_, t)| pred(t))
            .map(|(&(q, s, w), _)| (node, q, s, w))
            .collect()
    }
}

/// Aggregation-tree vertices, keyed `(query, vertex id)`: per-query id
/// maps resolving into one shared slab of state slots. Freed slots are
/// wiped (`std::mem::take`) before entering the free list, so a recycled
/// slot can never leak a dead query's children or holders into a new
/// handle. Live entries = `slots` minus `free`, and iteration
/// (query-major, id ascending) replays `(query, id)` lexicographic order.
#[derive(Debug, Default)]
pub(crate) struct VertexStore {
    by_id: Vec<BTreeMap<u128, u32>>,
    slots: Vec<VertexState>,
    free: Vec<u32>,
}

impl VertexStore {
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn contains_key(&self, key: &(QueryHandle, Id)) -> bool {
        self.get(key).is_some()
    }

    pub fn get(&self, key: &(QueryHandle, Id)) -> Option<&VertexState> {
        let slot = *self.by_id.get(key.0 as usize)?.get(&key.1 .0)?;
        Some(&self.slots[slot as usize])
    }

    pub fn get_mut(&mut self, key: &(QueryHandle, Id)) -> Option<&mut VertexState> {
        let slot = *self.by_id.get(key.0 as usize)?.get(&key.1 .0)?;
        Some(&mut self.slots[slot as usize])
    }

    pub fn insert(&mut self, key: (QueryHandle, Id), state: VertexState) {
        let q = key.0 as usize;
        if self.by_id.len() <= q {
            self.by_id.resize_with(q + 1, BTreeMap::new);
        }
        if let Some(&slot) = self.by_id[q].get(&key.1 .0) {
            self.slots[slot as usize] = state;
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                slot
            }
            None => {
                self.slots.push(state);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id[q].insert(key.1 .0, slot);
    }

    pub fn remove(&mut self, key: &(QueryHandle, Id)) -> Option<VertexState> {
        let slot = self.by_id.get_mut(key.0 as usize)?.remove(&key.1 .0)?;
        self.free.push(slot);
        Some(std::mem::take(&mut self.slots[slot as usize]))
    }

    /// Drops every vertex of an expired query.
    pub fn clear_query(&mut self, query: QueryHandle) {
        let Some(bucket) = self.by_id.get_mut(query as usize) else {
            return;
        };
        for (_, slot) in std::mem::take(bucket) {
            self.slots[slot as usize] = VertexState::default();
            self.free.push(slot);
        }
    }

    /// Entries in ascending `(query, vertex id)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((QueryHandle, Id), &VertexState)> + '_ {
        self.by_id.iter().enumerate().flat_map(move |(q, bucket)| {
            bucket
                .iter()
                .map(move |(&id, &slot)| ((q as QueryHandle, Id(id)), &self.slots[slot as usize]))
        })
    }

    pub fn keys(&self) -> impl Iterator<Item = (QueryHandle, Id)> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// In-flight upward submissions, keyed `(node, query, child key)`: one
/// map per submitting endsystem, so node-death cleanup drops one bucket.
#[derive(Debug)]
pub(crate) struct SubmitStore {
    per_node: Vec<BTreeMap<(QueryHandle, u128), PendingSubmit>>,
    len: usize,
}

impl SubmitStore {
    pub fn new(n: usize) -> Self {
        SubmitStore {
            per_node: (0..n).map(|_| BTreeMap::new()).collect(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, key: &(u32, QueryHandle, u128)) -> Option<&PendingSubmit> {
        self.per_node[key.0 as usize].get(&(key.1, key.2))
    }

    pub fn get_mut(&mut self, key: &(u32, QueryHandle, u128)) -> Option<&mut PendingSubmit> {
        self.per_node[key.0 as usize].get_mut(&(key.1, key.2))
    }

    pub fn insert(&mut self, key: (u32, QueryHandle, u128), sub: PendingSubmit) {
        if self.per_node[key.0 as usize]
            .insert((key.1, key.2), sub)
            .is_none()
        {
            self.len += 1;
        }
    }

    pub fn remove(&mut self, key: &(u32, QueryHandle, u128)) -> Option<PendingSubmit> {
        let removed = self.per_node[key.0 as usize].remove(&(key.1, key.2));
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    pub fn clear_node(&mut self, node: u32) {
        let bucket = std::mem::take(&mut self.per_node[node as usize]);
        self.len -= bucket.len();
    }

    pub fn clear_query(&mut self, query: QueryHandle) {
        for bucket in &mut self.per_node {
            let before = bucket.len();
            bucket.retain(|&(qh, _), _| qh != query);
            self.len -= before - bucket.len();
        }
    }

    /// All keys in ascending `(node, query, child)` order.
    pub fn keys(&self) -> impl Iterator<Item = (u32, QueryHandle, u128)> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(|(n, bucket)| bucket.keys().map(move |&(q, c)| (n as u32, q, c)))
    }
}

/// Small `Copy` values keyed `(node, query)` — continuous-query epochs
/// and persisted leaf vertex ids: one lazily allocated dense block per
/// query (a bitset of occupied node slots plus a value array), recycled
/// through a pool when the query expires with its occupancy bits cleared
/// so a reused block starts empty.
#[derive(Debug)]
pub(crate) struct NodeQueryStore<T> {
    n: usize,
    /// `blocks[query]`, allocated on first insert for that handle.
    blocks: Vec<Option<Block<T>>>,
    /// Recycled blocks with occupancy cleared.
    pool: Vec<Block<T>>,
}

#[derive(Debug)]
struct Block<T> {
    /// Occupancy bitset over dense node indices.
    set: Vec<u64>,
    vals: Vec<T>,
}

impl<T: Copy + Default> NodeQueryStore<T> {
    pub fn new(n: usize) -> Self {
        NodeQueryStore {
            n,
            blocks: Vec::new(),
            pool: Vec::new(),
        }
    }

    pub fn get(&self, node: u32, query: QueryHandle) -> Option<T> {
        let block = self.blocks.get(query as usize)?.as_ref()?;
        let (w, b) = (node as usize / 64, node as usize % 64);
        (block.set[w] & (1u64 << b) != 0).then(|| block.vals[node as usize])
    }

    pub fn insert(&mut self, node: u32, query: QueryHandle, val: T) {
        let NodeQueryStore { n, blocks, pool } = self;
        let q = query as usize;
        if blocks.len() <= q {
            blocks.resize_with(q + 1, || None);
        }
        let block = blocks[q].get_or_insert_with(|| {
            pool.pop().unwrap_or_else(|| Block {
                set: vec![0; n.div_ceil(64)],
                vals: vec![T::default(); *n],
            })
        });
        let (w, b) = (node as usize / 64, node as usize % 64);
        block.set[w] |= 1u64 << b;
        block.vals[node as usize] = val;
    }

    /// Drops `node`'s entry for every query (crash-amnesia wipe).
    pub fn clear_node(&mut self, node: u32) {
        let (w, b) = (node as usize / 64, node as usize % 64);
        for block in self.blocks.iter_mut().flatten() {
            block.set[w] &= !(1u64 << b);
        }
    }

    /// Returns an expired query's block to the pool with its occupancy
    /// cleared.
    pub fn clear_query(&mut self, query: QueryHandle) {
        let Some(mut block) = self.blocks.get_mut(query as usize).and_then(Option::take) else {
            return;
        };
        block.set.fill(0);
        self.pool.push(block);
    }

    /// All occupied keys in ascending `(node, query)` order. Oracle-only;
    /// the protocol never iterates these.
    pub fn keys(&self) -> impl Iterator<Item = (u32, QueryHandle)> {
        let mut keys: Vec<(u32, QueryHandle)> = Vec::new();
        for (q, block) in self.blocks.iter().enumerate() {
            let Some(block) = block else { continue };
            for (w, &word) in block.set.iter().enumerate() {
                let mut cur = word;
                while cur != 0 {
                    let node = (w * 64 + cur.trailing_zeros() as usize) as u32;
                    keys.push((node, q as QueryHandle));
                    cur &= cur - 1;
                }
            }
        }
        keys.sort_unstable();
        keys.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::RangeResult;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seaweed_sim::NodeIdx;
    use seaweed_store::{AggFunc, Aggregate};
    use seaweed_types::IdRange;

    /// Nodes, queries and sub-keys are drawn from small ranges so random
    /// operations collide on the same buckets, slots and blocks.
    const NODES: u32 = 6;
    const QUERIES: u32 = 4;
    const OPS: usize = 3_000;

    fn task(tag: u64) -> DissemTask {
        DissemTask {
            parent: None,
            extra_parents: Vec::new(),
            range: IdRange::FULL,
            slots: Vec::new(),
            local: RangeResult::View(Aggregate::empty(AggFunc::Count), tag),
            reported: false,
            cached: None,
            timeout_timer: None,
            hedge_timer: None,
        }
    }

    fn task_tag(t: &DissemTask) -> u64 {
        match t.local {
            RangeResult::View(_, tag) => tag,
            RangeResult::Predictor(_) => unreachable!("test tasks carry views"),
        }
    }

    fn sub(version: u64) -> PendingSubmit {
        PendingSubmit {
            target_vertex: Id(0),
            version,
            agg: Aggregate::empty(AggFunc::Count),
            attempts: 0,
        }
    }

    fn vertex(out_version: u64) -> VertexState {
        VertexState {
            out_version,
            ..VertexState::default()
        }
    }

    #[test]
    fn task_store_matches_btreemap_model() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = TaskStore::new(NODES as usize);
            let mut model: BTreeMap<TaskKey, u64> = BTreeMap::new();
            for tag in 0..OPS as u64 {
                let key: TaskKey = (
                    rng.gen_range(0..NODES),
                    rng.gen_range(0..QUERIES),
                    rng.gen_range(0..3u128),
                    rng.gen_range(0..2u128),
                );
                match rng.gen_range(0u8..8) {
                    0..=2 => {
                        store.insert(key, task(tag));
                        model.insert(key, tag);
                    }
                    3 => {
                        if let Some(t) = store.get_mut(&key) {
                            t.local = RangeResult::View(Aggregate::empty(AggFunc::Count), tag);
                        }
                        if let Some(v) = model.get_mut(&key) {
                            *v = tag;
                        }
                    }
                    4 => {
                        store.clear_node(key.0);
                        model.retain(|k, _| k.0 != key.0);
                    }
                    5 => {
                        store.clear_query(key.1);
                        model.retain(|k, _| k.1 != key.1);
                    }
                    _ => {
                        let odd = |tag: u64| tag % 2 == 1;
                        let want: Vec<TaskKey> = model
                            .iter()
                            .filter(|(k, &v)| k.0 == key.0 && k.1 == key.1 && odd(v))
                            .map(|(&k, _)| k)
                            .collect();
                        let got = store.candidate_keys(key.0, key.1, |t| odd(task_tag(t)));
                        assert_eq!(got, want, "seed {seed}");
                    }
                }
                assert_eq!(store.get(&key).map(task_tag), model.get(&key).copied());
                assert_eq!(store.len(), model.len(), "seed {seed}");
            }
            assert!(store.keys().eq(model.keys().copied()), "seed {seed}");
        }
    }

    #[test]
    fn vertex_store_matches_btreemap_model() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = VertexStore::default();
            let mut model: BTreeMap<(QueryHandle, Id), u64> = BTreeMap::new();
            for version in 1..=OPS as u64 {
                let key = (rng.gen_range(0..QUERIES), Id(rng.gen_range(0..8u128)));
                match rng.gen_range(0u8..8) {
                    0..=2 => {
                        store.insert(key, vertex(version));
                        model.insert(key, version);
                    }
                    3 => {
                        if let Some(v) = store.get_mut(&key) {
                            v.out_version = version;
                        }
                        if let Some(v) = model.get_mut(&key) {
                            *v = version;
                        }
                    }
                    4 | 5 => {
                        let got = store.remove(&key).map(|v| v.out_version);
                        assert_eq!(got, model.remove(&key), "seed {seed}");
                    }
                    6 => {
                        store.clear_query(key.0);
                        model.retain(|k, _| k.0 != key.0);
                    }
                    _ => {
                        let got: Vec<_> = store.iter().map(|(k, v)| (k, v.out_version)).collect();
                        let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
                        assert_eq!(got, want, "seed {seed}");
                    }
                }
                assert_eq!(store.contains_key(&key), model.contains_key(&key));
                assert_eq!(store.len(), model.len(), "seed {seed}");
            }
            assert!(store.keys().eq(model.keys().copied()), "seed {seed}");
        }
    }

    #[test]
    fn submit_store_matches_btreemap_model() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = SubmitStore::new(NODES as usize);
            let mut model: BTreeMap<(u32, QueryHandle, u128), u64> = BTreeMap::new();
            for version in 0..OPS as u64 {
                let key = (
                    rng.gen_range(0..NODES),
                    rng.gen_range(0..QUERIES),
                    rng.gen_range(0..4u128),
                );
                match rng.gen_range(0u8..8) {
                    0..=2 => {
                        store.insert(key, sub(version));
                        model.insert(key, version);
                    }
                    3 => {
                        if let Some(s) = store.get_mut(&key) {
                            s.version = version;
                        }
                        if let Some(v) = model.get_mut(&key) {
                            *v = version;
                        }
                    }
                    4 | 5 => {
                        let got = store.remove(&key).map(|s| s.version);
                        assert_eq!(got, model.remove(&key), "seed {seed}");
                    }
                    6 => {
                        store.clear_node(key.0);
                        model.retain(|k, _| k.0 != key.0);
                    }
                    _ => {
                        store.clear_query(key.1);
                        model.retain(|k, _| k.1 != key.1);
                    }
                }
                assert_eq!(store.get(&key).map(|s| s.version), model.get(&key).copied());
                assert_eq!(store.len(), model.len(), "seed {seed}");
            }
            assert!(store.keys().eq(model.keys().copied()), "seed {seed}");
        }
    }

    #[test]
    fn node_query_store_matches_btreemap_model() {
        // 130 nodes: the occupancy bitset spans three words.
        const WIDE: u32 = 130;
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store: NodeQueryStore<u64> = NodeQueryStore::new(WIDE as usize);
            let mut model: BTreeMap<(u32, QueryHandle), u64> = BTreeMap::new();
            for val in 0..OPS as u64 {
                let (node, query) = (rng.gen_range(0..WIDE), rng.gen_range(0..QUERIES));
                match rng.gen_range(0u8..8) {
                    0..=4 => {
                        store.insert(node, query, val);
                        model.insert((node, query), val);
                    }
                    5 => {
                        store.clear_node(node);
                        model.retain(|k, _| k.0 != node);
                    }
                    6 => {
                        store.clear_query(query);
                        model.retain(|k, _| k.1 != query);
                    }
                    _ => assert!(store.keys().eq(model.keys().copied()), "seed {seed}"),
                }
                assert_eq!(store.get(node, query), model.get(&(node, query)).copied());
            }
            assert!(store.keys().eq(model.keys().copied()), "seed {seed}");
        }
    }

    #[test]
    fn vertex_slab_recycles_without_leaking() {
        let mut vs = VertexStore::default();
        let mut st = VertexState::default();
        st.children
            .insert(Id(7), (3, Aggregate::empty(AggFunc::Count)));
        st.holders.push(NodeIdx(2));
        st.out_version = 5;
        vs.insert((0, Id(100)), st);
        assert_eq!(vs.len(), 1);

        vs.clear_query(0);
        assert_eq!(vs.len(), 0);
        assert!(vs.get(&(0, Id(100))).is_none());

        // The recycled slot must come back blank for the new handle.
        vs.insert((1, Id(200)), VertexState::default());
        let fresh = vs.get(&(1, Id(200))).unwrap();
        assert!(fresh.children.is_empty());
        assert!(fresh.holders.is_empty());
        assert_eq!(fresh.out_version, 0);
        assert!(fresh.cached.is_none());
        assert_eq!(vs.keys().collect::<Vec<_>>(), vec![(1, Id(200))]);

        // remove() wipes too.
        assert_eq!(vs.remove(&(1, Id(200))).unwrap().children.len(), 0);
        assert_eq!(vs.len(), 0);
    }

    #[test]
    fn node_table_blocks_recycle_clean() {
        let mut nq: NodeQueryStore<u64> = NodeQueryStore::new(130);
        nq.insert(0, 0, 11);
        nq.insert(129, 0, 22);
        assert_eq!(nq.get(129, 0), Some(22));
        assert_eq!(nq.keys().collect::<Vec<_>>(), vec![(0, 0), (129, 0)]);

        nq.clear_query(0);
        assert_eq!(nq.get(0, 0), None);

        // Query 1 gets the pooled block; nothing from query 0 shows.
        nq.insert(5, 1, 33);
        assert_eq!(nq.get(0, 1), None);
        assert_eq!(nq.get(129, 1), None);
        assert_eq!(nq.get(5, 1), Some(33));

        nq.clear_node(5);
        assert_eq!(nq.get(5, 1), None);
        assert_eq!(nq.keys().count(), 0);
    }
}
