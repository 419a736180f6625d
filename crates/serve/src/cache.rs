//! The sharded content-hash cache of prioritized results.
//!
//! The cache is keyed by exactly the inputs the PRIO pipeline reads: the
//! post-intern CSR — job labels in index order plus the child adjacency
//! structure ([`workflow_key`]). Everything else a request may carry
//! (per-job metadata, carried priorities, statement order that does not
//! change node numbering, the source format) does not influence the
//! computed schedule, so two requests that induce the same CSR share one
//! entry — and since the cached value is the *schedule order* (node
//! indices), not rendered text, a cache hit is re-exported against the
//! request's own workflow: metadata and format still land in the
//! response, byte-identical to a cold-path run.
//!
//! Sharding: the key's low bits pick one of [`SHARDS`] independently
//! locked shards, so concurrent workers rarely contend. Each shard is an
//! LRU over a byte budget (`budget / SHARDS` per shard): inserts evict
//! least-recently-used entries until the shard fits. The LRU index is a
//! `BTreeMap<tick, key>` over a monotone global tick, so evicting the
//! oldest entry is `O(log n)` rather than a scan.
//!
//! Two memo layers ride on top of the canonical order cache, both pure
//! accelerations (every lookup that misses them falls back to the full
//! import/export path with identical output):
//!
//! * each entry lazily accumulates its **rendered exports**, keyed by
//!   output format *and* a [`render_key`] over everything an exporter
//!   reads besides the schedule — source format and per-job metadata
//!   ([`ResultCache::note_rendered`]), charged against the same byte
//!   budget. A warm hit replays the cold request's exact bytes instead
//!   of re-exporting, but only for a workflow whose export is provably
//!   byte-identical: two same-CSR workflows with different submit files
//!   share the schedule, never each other's rendered text. The memo
//!   stores whatever bytes its caller gives it: the daemon gives it each
//!   export already escaped as a JSON string literal, quotes included,
//!   so a hit is copied into the response as is;
//! * a count-capped **text memo** ([`ResultCache::memo_insert`]) maps a
//!   [`text_key`] — the effective format name plus the request's text —
//!   to the CSR key (and render key) it produced, so a repeated request
//!   skips the import entirely. The daemon hashes the workflow's string
//!   literal exactly as sent, escapes intact: equal literals are equal
//!   texts, and a text sent with different escapes only misses the memo
//!   and finds the result cache through the import.

use prio_graph::{Dag, NodeId};
use prio_ir::{FormatId, Workflow};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards (a power of two; the key's low
/// bits select one).
pub const SHARDS: usize = 16;

/// Fixed per-entry overhead charged against the byte budget, over the
/// schedule order itself: the key, the tick, the two map entries.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Multiplier and xor-shift distance of a key's first 64-bit stream.
const MUL_A: u64 = 0x517c_c1b7_2722_0a95;
const SHIFT_A: u32 = 32;
/// The second stream's: a different multiplier and shift, so the two
/// streams are different functions of the input, not one function
/// behind two prefixes.
const MUL_B: u64 = 0x9e37_79b9_7f4a_7c15;
const SHIFT_B: u32 = 29;

/// The cache's 128-bit key hasher: two 64-bit streams fed in one pass.
/// Each folds 8-byte chunks like [`prio_graph::labelhash::NameHasher`],
/// but xor-shifts its state after every multiply. A multiply alone only
/// carries a difference toward the high bits, so two names differing in
/// a chunk's top byte (`fresh_9942` vs `fresh_9149`) kept their
/// difference in the top bits, where the next chunk could cancel it — in
/// both streams at once, since they shared the mix. The shift folds the
/// high bits back down before the next chunk. The two multiply chains
/// are independent, so one pass costs about one stream's latency.
/// `NameHasher` itself stays as it is: interning speed depends on it,
/// and its hash tables compare keys on every probe, while this cache
/// trusts its keys.
struct KeyHasher {
    a: u64,
    b: u64,
    /// Total bytes written, folded into both final values.
    len: u64,
}

impl KeyHasher {
    /// A hasher whose streams start from the key kind's `domain`, so
    /// equal bytes hashed as different key kinds give unrelated keys.
    fn new(domain: u64) -> KeyHasher {
        let mut h = KeyHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6a09_e667_f3bc_c908,
            len: 0,
        };
        h.write(&domain.to_le_bytes());
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        let mut round = |v: u64| {
            let x = (a.rotate_left(5) ^ v).wrapping_mul(MUL_A);
            a = x ^ (x >> SHIFT_A);
            let y = (b.rotate_left(5) ^ v).wrapping_mul(MUL_B);
            b = y ^ (y >> SHIFT_B);
        };
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            round(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for &byte in chunks.remainder() {
            tail = (tail << 8) | u64::from(byte);
        }
        round(tail);
        (self.a, self.b) = (a, b);
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    fn finish(&self) -> (u64, u64) {
        let avalanche = |h: u64| {
            let mut h = h ^ self.len;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^ (h >> 33)
        };
        (avalanche(self.a), avalanche(self.b))
    }
}

/// A 128-bit content hash of a workflow's CSR (labels + arcs): the two
/// 64-bit streams of a [`KeyHasher`]. At 2^64 the single-stream birthday
/// bound would start to matter for a long-lived daemon; at 2^128
/// collisions are out of the picture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64, pub u64);

/// The content-hash key for `dag`: covers the labels (in index order) and
/// the CSR child structure — exactly what [`prio_core::prioritize`]
/// reads — and nothing else.
pub fn workflow_key(dag: &Dag) -> CacheKey {
    let mut h = KeyHasher::new(0x5052494f_u64);
    h.write(&(dag.num_nodes() as u64).to_le_bytes());
    h.write(&(dag.num_arcs() as u64).to_le_bytes());
    for u in dag.node_ids() {
        // One write per label: the hasher folds each write's own chunk
        // boundaries and running length, so label concatenations cannot
        // alias ("ab","c" hashes differently from "a","bc").
        h.write(dag.label(u).as_bytes());
    }
    for u in dag.node_ids() {
        for &v in dag.children(u) {
            h.write(&v.0.to_le_bytes());
        }
        // Terminate each adjacency list so row boundaries cannot alias
        // (children [1][2] vs [1,2][] differ even at equal arc counts).
        h.write(&u32::MAX.to_le_bytes());
    }
    let (a, b) = h.finish();
    CacheKey(a, b)
}

/// A 128-bit hash of a request's *raw text* plus its effective format
/// name — the text-memo key. Domain-separated from [`CacheKey`]'s
/// streams so the two key spaces cannot collide by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextKey(pub u64, pub u64);

/// The text-memo key for a request: the effective input format name
/// (`"auto"` when detection applies) and the exact workflow text.
pub fn text_key(format: &str, text: &str) -> TextKey {
    let mut h = KeyHasher::new(0x54455854_u64);
    // Separate writes: the hasher folds per-write lengths, so a format
    // name cannot alias into the text.
    h.write(format.as_bytes());
    h.write(text.as_bytes());
    let (a, b) = h.finish();
    TextKey(a, b)
}

/// A 64-bit hash of everything an exporter reads *besides* the CSR and
/// the computed priorities: the source format and every job's metadata
/// (submit files, carried attributes), in the deterministic node/key
/// order [`Workflow::meta_of`] yields. Rendered exports are memoized
/// under this in addition to the output format — the [`CacheKey`] alone
/// only proves the *schedule* is shared, not the rendered bytes.
pub fn render_key(workflow: &Workflow) -> u64 {
    let mut h = KeyHasher::new(0x4d455441_u64);
    h.write(workflow.source().name().as_bytes());
    for u in workflow.dag().node_ids() {
        for (k, v) in workflow.meta_of(u) {
            // Separate writes per field: the hasher folds per-write
            // lengths, so (node, key, value) boundaries cannot alias.
            h.write(&u.0.to_le_bytes());
            h.write(k.as_bytes());
            h.write(v.as_bytes());
        }
    }
    h.finish().0
}

/// One cached schedule: the PRIO order over the workflow's node indices.
pub type CachedOrder = Arc<[NodeId]>;

struct Entry {
    order: CachedOrder,
    /// Rendered canonical exports, one per ([`render_key`], output
    /// format) pair served so far (filled lazily by
    /// [`ResultCache::note_rendered`]).
    rendered: Vec<((u64, FormatId), Arc<str>)>,
    tick: u64,
    bytes: usize,
}

/// What the text memo resolves a repeated request to.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    key: CacheKey,
    format: FormatId,
    jobs: usize,
    render: u64,
    tick: u64,
}

/// Per-shard cap on text-memo entries. They are small and fixed-size
/// (two hashes to a key plus a format and a count), so the memo is
/// bounded by count, not bytes: 16 shards × 4096 ≈ 64k remembered
/// request texts.
const TEXT_MEMO_PER_SHARD: usize = 4096;

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// tick -> key, the LRU index (ticks are globally unique).
    lru: BTreeMap<u64, CacheKey>,
    bytes: usize,
    memo: HashMap<TextKey, MemoEntry>,
    memo_lru: BTreeMap<u64, TextKey>,
}

/// A point-in-time view of the cache counters, for the `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: u64,
    /// Bytes charged across all shards.
    pub bytes: u64,
}

/// The sharded LRU result cache.
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    shard_budget: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ResultCache")
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl ResultCache {
    /// A cache bounded to roughly `byte_budget` bytes across all shards
    /// (each shard holds at least one entry, so a single oversized entry
    /// is admitted rather than thrashing).
    pub fn new(byte_budget: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: byte_budget / SHARDS,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    fn memo_shard(&self, key: TextKey) -> &Mutex<Shard> {
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks `key` up, refreshing its LRU position on a hit. `n` is the
    /// workflow's node count; an entry whose order length disagrees (a
    /// 128-bit collision, astronomically unlikely) is treated as a miss
    /// rather than served wrong.
    pub fn get(&self, key: CacheKey, n: usize) -> Option<CachedOrder> {
        let mut shard = self.shard(key).lock().unwrap();
        let tick = self.next_tick();
        if let Some(entry) = shard.map.get_mut(&key) {
            if entry.order.len() == n {
                let old = std::mem::replace(&mut entry.tick, tick);
                let order = entry.order.clone();
                shard.lru.remove(&old);
                shard.lru.insert(tick, key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                prio_obs::counter!("serve.cache.hits").inc();
                return Some(order);
            }
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        prio_obs::counter!("serve.cache.misses").inc();
        None
    }

    /// Inserts (or replaces) the schedule for `key`, evicting
    /// least-recently-used entries until the shard is back within its
    /// byte budget.
    pub fn insert(&self, key: CacheKey, order: CachedOrder) {
        let bytes = order.len() * std::mem::size_of::<NodeId>() + ENTRY_OVERHEAD_BYTES;
        let tick = self.next_tick();
        let mut shard = self.shard(key).lock().unwrap();
        if let Some(old) = shard.map.remove(&key) {
            shard.lru.remove(&old.tick);
            shard.bytes -= old.bytes;
        }
        shard.map.insert(
            key,
            Entry {
                order,
                rendered: Vec::new(),
                tick,
                bytes,
            },
        );
        shard.lru.insert(tick, key);
        shard.bytes += bytes;
        self.evict_over_budget(&mut shard, key);
    }

    /// Evicts LRU entries until the shard fits its budget again, always
    /// keeping the most recent entry (`keep`) so one oversized result is
    /// admitted rather than thrashed.
    fn evict_over_budget(&self, shard: &mut Shard, keep: CacheKey) {
        let mut evicted = 0u64;
        while shard.bytes > self.shard_budget && shard.map.len() > 1 {
            let (&oldest, &victim) = shard.lru.iter().next().expect("lru tracks map");
            if victim == keep && shard.map.len() == 1 {
                break;
            }
            shard.lru.remove(&oldest);
            let gone = shard.map.remove(&victim).expect("map tracks lru");
            shard.bytes -= gone.bytes;
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            prio_obs::counter!("serve.cache.evictions").add(evicted);
        }
    }

    /// Like [`ResultCache::get`], but also returns the memoized rendered
    /// export for (`render`, `format`) when one exists. Counts one hit
    /// or miss, exactly like `get`.
    pub fn get_with_rendered(
        &self,
        key: CacheKey,
        n: usize,
        render: u64,
        format: FormatId,
    ) -> Option<(CachedOrder, Option<Arc<str>>)> {
        let mut shard = self.shard(key).lock().unwrap();
        let tick = self.next_tick();
        if let Some(entry) = shard.map.get_mut(&key) {
            if entry.order.len() == n {
                let old = std::mem::replace(&mut entry.tick, tick);
                let order = entry.order.clone();
                let rendered = entry
                    .rendered
                    .iter()
                    .find(|(rf, _)| *rf == (render, format))
                    .map(|(_, text)| Arc::clone(text));
                shard.lru.remove(&old);
                shard.lru.insert(tick, key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                prio_obs::counter!("serve.cache.hits").inc();
                return Some((order, rendered));
            }
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        prio_obs::counter!("serve.cache.misses").inc();
        None
    }

    /// The warm fast-path probe: returns the rendered export for
    /// (`key`, `render`, `format`) if — and only if — the entry is live
    /// with a matching order length *and* that exact rendering exists,
    /// counting a hit and refreshing the LRU. Anything less returns
    /// `None` **without counting a miss**: the caller falls back to the
    /// full path, whose own lookup does the counting — one hit or miss
    /// per request either way.
    pub fn rendered_hit(
        &self,
        key: CacheKey,
        n: usize,
        render: u64,
        format: FormatId,
    ) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock().unwrap();
        let entry = shard.map.get(&key)?;
        if entry.order.len() != n {
            return None;
        }
        let text = entry
            .rendered
            .iter()
            .find(|(rf, _)| *rf == (render, format))
            .map(|(_, text)| Arc::clone(text))?;
        let tick = self.next_tick();
        let entry = shard.map.get_mut(&key).expect("checked above");
        let old = std::mem::replace(&mut entry.tick, tick);
        shard.lru.remove(&old);
        shard.lru.insert(tick, key);
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        prio_obs::counter!("serve.cache.hits").inc();
        Some(text)
    }

    /// Memoizes the rendered export of `key`'s result for (`render`,
    /// `format`), charging its bytes to the shard budget. A no-op if the
    /// entry is gone (evicted between the caller's lookup and now) or
    /// that rendering already exists (a racing worker got there first —
    /// both renders are byte-identical, so either copy serves).
    pub fn note_rendered(&self, key: CacheKey, render: u64, format: FormatId, text: Arc<str>) {
        let mut shard = self.shard(key).lock().unwrap();
        let Some(entry) = shard.map.get_mut(&key) else {
            return;
        };
        if entry.rendered.iter().any(|(rf, _)| *rf == (render, format)) {
            return;
        }
        let added = text.len() + std::mem::size_of::<((u64, FormatId), Arc<str>)>();
        entry.rendered.push(((render, format), text));
        entry.bytes += added;
        shard.bytes += added;
        self.evict_over_budget(&mut shard, key);
    }

    /// Looks up the text memo: the `(CacheKey, input format, job count,
    /// render key)` a previous request with this exact text resolved to.
    /// Purely an acceleration — a `None` (or a memo pointing at an
    /// evicted entry) just means the full import path runs again.
    pub fn memo_get(&self, key: TextKey) -> Option<(CacheKey, FormatId, usize, u64)> {
        let mut shard = self.memo_shard(key).lock().unwrap();
        let tick = self.next_tick();
        let entry = shard.memo.get_mut(&key)?;
        let old = std::mem::replace(&mut entry.tick, tick);
        let found = (entry.key, entry.format, entry.jobs, entry.render);
        shard.memo_lru.remove(&old);
        shard.memo_lru.insert(tick, key);
        Some(found)
    }

    /// Records what a request text resolved to, evicting the
    /// least-recently-used memo entry past [`TEXT_MEMO_PER_SHARD`].
    pub fn memo_insert(
        &self,
        key: TextKey,
        result: CacheKey,
        format: FormatId,
        jobs: usize,
        render: u64,
    ) {
        let tick = self.next_tick();
        let mut shard = self.memo_shard(key).lock().unwrap();
        if let Some(old) = shard.memo.insert(
            key,
            MemoEntry {
                key: result,
                format,
                jobs,
                render,
                tick,
            },
        ) {
            shard.memo_lru.remove(&old.tick);
        }
        shard.memo_lru.insert(tick, key);
        while shard.memo.len() > TEXT_MEMO_PER_SHARD {
            let (&oldest, &victim) = shard.memo_lru.iter().next().expect("lru tracks memo");
            shard.memo_lru.remove(&oldest);
            shard.memo.remove(&victim);
        }
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap();
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_graph::DagBuilder;

    fn dag(labels: &[&str], arcs: &[(u32, u32)]) -> Dag {
        let mut b = DagBuilder::new();
        for l in labels {
            b.add_node(*l);
        }
        for &(u, v) in arcs {
            b.add_arc(NodeId(u), NodeId(v)).unwrap();
        }
        b.build().unwrap()
    }

    fn order(ids: &[u32]) -> CachedOrder {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// Cache keys outlive a build: the key of a workflow must not move
    /// when the way `Dag` stores its labels changes. Pinned on the
    /// paper's Fig. 3 and AIRSN dags.
    #[test]
    fn workflow_key_is_pinned() {
        assert_eq!(
            workflow_key(&prio_workloads::classic::fig3_dag()),
            CacheKey(0x874b_b132_fa88_9072, 0x3aca_e384_7552_d210)
        );
        assert_eq!(
            workflow_key(&prio_workloads::airsn::airsn_paper()),
            CacheKey(0xf166_2e47_8e8f_b7ea, 0x727e_9bf3_f6aa_be22)
        );
    }

    #[test]
    fn key_covers_labels_and_arcs_only() {
        let base = dag(&["a", "b", "c"], &[(0, 1), (0, 2)]);
        assert_eq!(workflow_key(&base), workflow_key(&base.clone()));
        // A label change misses.
        let renamed = dag(&["a", "b", "z"], &[(0, 1), (0, 2)]);
        assert_ne!(workflow_key(&base), workflow_key(&renamed));
        // An arc change misses.
        let rewired = dag(&["a", "b", "c"], &[(0, 1), (1, 2)]);
        assert_ne!(workflow_key(&base), workflow_key(&rewired));
        // Node order matters (it is PRIO's tie-break input).
        let reindexed = dag(&["b", "a", "c"], &[(1, 0), (1, 2)]);
        assert_ne!(workflow_key(&base), workflow_key(&reindexed));
    }

    #[test]
    fn label_concatenation_does_not_alias() {
        let a = dag(&["ab", "c"], &[]);
        let b = dag(&["a", "bc"], &[]);
        assert_ne!(workflow_key(&a), workflow_key(&b));
    }

    #[test]
    fn adjacency_row_boundaries_do_not_alias() {
        // Same flat child sequence, different row split.
        let a = dag(&["a", "b", "c", "d"], &[(0, 2), (0, 3)]);
        let b = dag(&["a", "b", "c", "d"], &[(0, 2), (1, 3)]);
        assert_ne!(workflow_key(&a), workflow_key(&b));
    }

    /// Single-label variants of one workflow — `fresh_0000` … `fresh_9999`
    /// prepended as a new job — differ only in the top bytes of one 8-byte
    /// chunk and in the tail word. Each 64-bit stream of both key kinds
    /// must keep all 10k apart on its own (the streams used to collide in
    /// the same pairs, so two of them gave no more than one).
    #[test]
    fn fresh_label_family_never_collides_in_either_stream() {
        const VARIANTS: usize = 10_000;
        let base_labels = ["mProject_0", "mProject_1", "mDiff_0", "mBackground_0"];
        let base_arcs = [(1u32, 3u32), (2, 3), (3, 4), (0, 1)];
        let base_text = "mProject_0\tmDiff_0\nmProject_1\tmDiff_0\nmDiff_0\tmBackground_0\n";
        let mut streams: [std::collections::HashSet<u64>; 4] = Default::default();
        for i in 0..VARIANTS {
            let fresh = format!("fresh_{i:04}");
            let mut labels = vec![fresh.as_str()];
            labels.extend(base_labels);
            let key = workflow_key(&dag(&labels, &base_arcs));
            let text = text_key("edges", &format!("{fresh}\n{base_text}"));
            for (set, h) in streams.iter_mut().zip([key.0, key.1, text.0, text.1]) {
                set.insert(h);
            }
        }
        for (stream, set) in ["key.0", "key.1", "text.0", "text.1"].iter().zip(&streams) {
            assert_eq!(set.len(), VARIANTS, "{stream}: colliding variants");
        }
    }

    #[test]
    fn get_insert_and_lru_eviction() {
        // Budget for roughly two small entries per shard.
        let cache = ResultCache::new(SHARDS * (2 * ENTRY_OVERHEAD_BYTES + 64));
        let k1 = CacheKey(0, 1);
        let k2 = CacheKey(SHARDS as u64, 2); // same shard as k1
        let k3 = CacheKey(2 * SHARDS as u64, 3); // same shard again
        assert!(cache.get(k1, 3).is_none());
        cache.insert(k1, order(&[0, 1, 2]));
        assert_eq!(cache.get(k1, 3).as_deref(), Some(&order(&[0, 1, 2])[..]));
        cache.insert(k2, order(&[2, 1, 0]));
        // Touch k1 so k2 is the LRU victim when k3 overflows the shard.
        assert!(cache.get(k1, 3).is_some());
        cache.insert(k3, order(&[0, 2, 1]));
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(cache.get(k1, 3).is_some(), "recently used entry evicted");
        assert!(cache.get(k3, 3).is_some(), "fresh entry evicted");
        assert!(cache.get(k2, 3).is_none(), "LRU entry survived");
    }

    #[test]
    fn length_mismatch_is_a_miss_not_a_wrong_answer() {
        let cache = ResultCache::new(1 << 20);
        let k = CacheKey(7, 7);
        cache.insert(k, order(&[0, 1]));
        assert!(cache.get(k, 3).is_none());
        assert_eq!(cache.get(k, 2).map(|o| o.len()), Some(2));
    }

    #[test]
    fn rendered_memo_fills_lazily_and_counts_once() {
        let cache = ResultCache::new(1 << 20);
        let k = CacheKey(3, 3);
        let rk = 7u64;
        cache.insert(k, order(&[0, 1]));
        // Probe before anything is rendered: no hit, and crucially no
        // miss counted — the full path's own lookup does the counting.
        assert!(cache.rendered_hit(k, 2, rk, FormatId::Edges).is_none());
        assert_eq!(cache.stats().misses, 0);
        let (_, rendered) = cache.get_with_rendered(k, 2, rk, FormatId::Edges).unwrap();
        assert!(rendered.is_none());
        let before = cache.stats().bytes;
        cache.note_rendered(k, rk, FormatId::Edges, "a\tb\n".into());
        assert!(cache.stats().bytes > before, "rendered bytes are charged");
        assert_eq!(
            cache.rendered_hit(k, 2, rk, FormatId::Edges).as_deref(),
            Some("a\tb\n")
        );
        // A different output format still needs its own render.
        assert!(cache.rendered_hit(k, 2, rk, FormatId::Json).is_none());
        // So does a different render key (same CSR, different metadata):
        // the schedule is shared, the rendered bytes are not.
        assert!(cache.rendered_hit(k, 2, rk + 1, FormatId::Edges).is_none());
        let (_, other) = cache
            .get_with_rendered(k, 2, rk + 1, FormatId::Edges)
            .unwrap();
        assert!(other.is_none());
        cache.note_rendered(k, rk + 1, FormatId::Edges, "a\tB\n".into());
        assert_eq!(
            cache.rendered_hit(k, 2, rk + 1, FormatId::Edges).as_deref(),
            Some("a\tB\n")
        );
        assert_eq!(
            cache.rendered_hit(k, 2, rk, FormatId::Edges).as_deref(),
            Some("a\tb\n"),
            "render keys keep their own bytes"
        );
        // A length mismatch (key collision guard) never serves rendered
        // text either.
        assert!(cache.rendered_hit(k, 5, rk, FormatId::Edges).is_none());
        // Racing duplicate render: the first copy wins, bytes stay put.
        let bytes = cache.stats().bytes;
        cache.note_rendered(k, rk, FormatId::Edges, "different\n".into());
        assert_eq!(cache.stats().bytes, bytes);
        assert_eq!(
            cache.rendered_hit(k, 2, rk, FormatId::Edges).as_deref(),
            Some("a\tb\n")
        );
    }

    #[test]
    fn text_memo_round_trips_and_is_count_capped() {
        let cache = ResultCache::new(1 << 20);
        let tk = text_key("edges", "a\tb\n");
        assert!(cache.memo_get(tk).is_none());
        cache.memo_insert(tk, CacheKey(1, 2), FormatId::Edges, 2, 9);
        assert_eq!(
            cache.memo_get(tk),
            Some((CacheKey(1, 2), FormatId::Edges, 2, 9))
        );
        // Same text under a different format flag is a different memo key.
        assert_ne!(text_key("auto", "a\tb\n"), tk);
        assert_ne!(text_key("edges", "a\tc\n"), tk);
        // Flood one shard far past the cap; the cap holds and the newest
        // entries survive.
        let mut keys = Vec::new();
        for i in 0..(TEXT_MEMO_PER_SHARD as u64 + 50) {
            // Force every key into shard 0 so the cap is exercised.
            let k = TextKey(i << 32, i);
            keys.push(k);
            cache.memo_insert(k, CacheKey(i, i), FormatId::Json, 1, 0);
        }
        assert!(cache.memo_get(*keys.last().unwrap()).is_some());
        assert!(cache.memo_get(keys[0]).is_none(), "oldest entry evicted");
    }

    #[test]
    fn render_key_tracks_source_format_and_metadata() {
        let reg = prio_dagman::registry();
        let dagman = reg.by_name("dagman").unwrap();
        let x = dagman
            .import("JOB a x.sub\nJOB b x.sub\nPARENT a CHILD b\n")
            .unwrap();
        let x2 = dagman
            .import("JOB a x.sub\nJOB b x.sub\nPARENT a CHILD b\n")
            .unwrap();
        let y = dagman
            .import("JOB a y.sub\nJOB b y.sub\nPARENT a CHILD b\n")
            .unwrap();
        let edges = reg.by_name("edges").unwrap().import("a\tb\n").unwrap();
        // All three induce the same CSR: one shared schedule entry.
        assert_eq!(workflow_key(x.dag()), workflow_key(y.dag()));
        assert_eq!(workflow_key(x.dag()), workflow_key(edges.dag()));
        // Re-importing the same text is render-equivalent...
        assert_eq!(render_key(&x), render_key(&x2));
        // ...but different metadata or a different source format is not.
        assert_ne!(render_key(&x), render_key(&y));
        assert_ne!(render_key(&x), render_key(&edges));
    }

    #[test]
    fn stats_track_hits_misses_and_occupancy() {
        let cache = ResultCache::new(1 << 20);
        let k = CacheKey(1, 1);
        assert!(cache.get(k, 1).is_none());
        cache.insert(k, order(&[0]));
        assert!(cache.get(k, 1).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }
}
