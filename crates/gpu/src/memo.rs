//! A sharded LRU map for memoizing computed kernel costs.
//!
//! The profiler evaluates the same kernel descriptors thousands of times —
//! a 50-step denoising loop re-costs an identical UNet kernel set every
//! step, and sweeps re-profile near-identical graphs point by point.
//! [`ShardedLru`] gives those callers a concurrent, bounded cache: keys
//! hash to one of a fixed number of shards, each shard is an independently
//! locked `HashMap` with its own access tick and hit and miss counts, and
//! eviction inside a shard is least-recently-used by that tick. A lookup
//! touches only its shard's lock and the fields behind it, so worker
//! threads hitting the map share no counter.
//!
//! A key is hashed once per call, a machine word at a time by a
//! multiply-rotate hasher: the keys are shapes the simulator builds
//! itself, so SipHash's resistance to chosen colliding keys buys nothing
//! here. The low bits of that value pick the shard and the rest key the
//! shard's map (through a pass-through hasher), with the rare keys that
//! share a hash kept in a short list compared by `Eq`. Values are handed
//! out as `Arc<V>` so hits never clone the payload, and the map never
//! blocks readers of *other* shards while one shard evicts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards. A small power of two: enough to
/// keep worker threads from serializing on one lock, small enough that a
/// bounded capacity still divides into useful per-shard budgets.
const SHARDS: usize = 8;

#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

/// Hasher for keys that already are a hash: passes the `u64` through.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Hashes a key a word at a time: each integer the key writes is folded
/// in with one rotate, xor and multiply, and byte slices are read eight
/// bytes per step. `finish` rotates the well-mixed high bits of the last
/// product down to the low bits, where [`ShardedLru`] reads a key's shard
/// and a `HashMap` its bucket.
///
/// Public so other maps keyed by shapes the simulator builds can hash as
/// the memo does, through `BuildHasherDefault<WordHasher>`.
#[derive(Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    /// An odd constant with well-spread bits (2^64 / golden ratio).
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("chunks are 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A key's hash: the one value that picks its shard and keys that
/// shard's map.
fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = WordHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The shard a hash belongs to: its low bits.
fn shard_of(hash: u64) -> usize {
    (hash % SHARDS as u64) as usize
}

/// The entries whose keys share one shard-local hash: almost always one.
type Bucket<K, V> = Vec<(K, Slot<V>)>;

/// One locked shard: shard-local hash → bucket, the entry count, and
/// the shard's access tick and lookup outcomes.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<u64, Bucket<K, V>, BuildHasherDefault<PassThrough>>,
    len: usize,
    /// Advanced by every lookup and insert in this shard. Eviction
    /// compares only this shard's entries, so a per-shard tick orders
    /// them as a map-wide one would.
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq, V> Shard<K, V> {
    fn new() -> Self {
        Shard { map: HashMap::default(), len: 0, tick: 0, hits: 0, misses: 0 }
    }

    fn slot_mut(&mut self, hash: u64, key: &K) -> Option<&mut Slot<V>> {
        let bucket = self.map.get_mut(&hash)?;
        bucket.iter_mut().find(|(k, _)| k == key).map(|(_, slot)| slot)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Drops the least-recently-used entry.
    fn evict_lru(&mut self) {
        let lru = self
            .map
            .iter()
            .flat_map(|(&hash, bucket)| {
                bucket.iter().enumerate().map(move |(i, (_, slot))| (slot.last_used, hash, i))
            })
            .min();
        if let Some((_, hash, i)) = lru {
            let bucket = self.map.get_mut(&hash).expect("bucket just scanned");
            bucket.swap_remove(i);
            if bucket.is_empty() {
                self.map.remove(&hash);
            }
            self.len -= 1;
        }
    }
}

/// A concurrent, bounded, sharded LRU map.
///
/// # Example
///
/// ```
/// let lru = mmg_gpu::ShardedLru::new(128);
/// assert!(lru.get(&"qk_gemm").is_none());
/// lru.insert("qk_gemm", 42u64);
/// assert_eq!(lru.get(&"qk_gemm").as_deref(), Some(&42));
/// assert_eq!(lru.hits(), 1);
/// assert_eq!(lru.misses(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity_per_shard: usize,
}

impl<K: Hash + Eq, V> ShardedLru<K, V> {
    /// A map holding at most `capacity` entries (rounded up to a multiple
    /// of the shard count, minimum one entry per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
        }
    }

    /// Hashes `key` once: the low bits pick its shard, the rest key the
    /// shard's map. Every hash in a shard shares those low bits, so
    /// dropping them loses nothing and keeps them from crowding the map's
    /// buckets.
    fn locate(&self, key: &K) -> (&Mutex<Shard<K, V>>, u64) {
        let hash = hash_of(key);
        (&self.shards[shard_of(hash)], hash / SHARDS as u64)
    }

    /// Looks up `key`, refreshing its recency on a hit. Also counts the
    /// outcome into [`ShardedLru::hits`] / [`ShardedLru::misses`].
    #[must_use]
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let (shard, hash) = self.locate(key);
        let mut shard = shard.lock().expect("memo shard poisoned");
        let tick = shard.next_tick();
        match shard.slot_mut(hash, key) {
            Some(slot) => {
                slot.last_used = tick;
                let value = Arc::clone(&slot.value);
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the shard's least-recently
    /// used entry if the shard is at capacity. Returns the shared value.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let (shard, hash) = self.locate(&key);
        let mut shard = shard.lock().expect("memo shard poisoned");
        let slot = Slot { value: Arc::clone(&value), last_used: shard.next_tick() };
        if let Some(old) = shard.slot_mut(hash, &key) {
            *old = slot;
            return value;
        }
        if shard.len >= self.capacity_per_shard {
            shard.evict_lru();
        }
        shard.map.entry(hash).or_default().push((key, slot));
        shard.len += 1;
        value
    }

    /// Sums `field` over every shard, each read under its lock.
    fn sum_shards(&self, field: impl Fn(&Shard<K, V>) -> u64) -> u64 {
        self.shards.iter().map(|s| field(&s.lock().expect("memo shard poisoned"))).sum()
    }

    /// Entries currently resident across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sum_shards(|s| s.len as u64) as usize
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the map since construction (or `clear`).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.sum_shards(|s| s.hits)
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.sum_shards(|s| s.misses)
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Drops every entry and zeroes the hit/miss statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock().expect("memo shard poisoned") = Shard::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_round_trip() {
        let lru: ShardedLru<u32, String> = ShardedLru::new(64);
        assert!(lru.get(&7).is_none());
        lru.insert(7, "seven".to_string());
        assert_eq!(lru.get(&7).as_deref().map(String::as_str), Some("seven"));
        assert_eq!(lru.hits(), 1);
        assert_eq!(lru.misses(), 1);
        assert!((lru.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        lru.insert(1, 10);
        lru.insert(1, 20);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1).as_deref(), Some(&20));
    }

    #[test]
    fn capacity_bounds_and_lru_eviction() {
        // One entry per shard: every colliding insert evicts.
        let lru: ShardedLru<u32, u32> = ShardedLru::new(1);
        // Find two keys in the same shard.
        let shard_idx = |k: &u32| shard_of(hash_of(k));
        let a = 0u32;
        let b = (1..1000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        let c = (b + 1..2000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        lru.insert(a, 1);
        lru.insert(b, 2); // evicts a (LRU)
        assert!(lru.get(&a).is_none());
        assert_eq!(lru.get(&b).as_deref(), Some(&2));
        // b was just used; inserting c evicts nothing else but b stays.
        lru.insert(c, 3);
        assert_eq!(lru.get(&c).as_deref(), Some(&3));
    }

    #[test]
    fn recency_is_refreshed_by_get() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(SHARDS * 2);
        let shard_idx = |k: &u32| shard_of(hash_of(k));
        let a = 0u32;
        let b = (1..1000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        let c = (b + 1..2000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        lru.insert(a, 1);
        lru.insert(b, 2);
        let _ = lru.get(&a); // a becomes MRU; b is now LRU
        lru.insert(c, 3); // shard at capacity 2: evicts b
        assert_eq!(lru.get(&a).as_deref(), Some(&1));
        assert!(lru.get(&b).is_none());
    }

    #[test]
    fn clear_resets_everything() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        lru.insert(1, 1);
        let _ = lru.get(&1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.hits(), 0);
        assert_eq!(lru.misses(), 0);
    }

    /// A key whose every value hashes alike: all keys share one shard
    /// and one hash, so only `Eq` tells them apart.
    #[derive(Debug, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(0x5eed);
        }
    }

    #[test]
    fn colliding_keys_behave_like_distinct_ones() {
        // Three entries per shard, and every key lands in the same one.
        let lru: ShardedLru<Colliding, u32> = ShardedLru::new(SHARDS * 3);
        assert!(lru.get(&Colliding(1)).is_none());
        for k in 1..=3 {
            lru.insert(Colliding(k), k * 10);
        }
        assert_eq!(lru.len(), 3);
        let occupied: Vec<usize> = lru
            .shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .filter(|&hashes| hashes > 0)
            .collect();
        assert_eq!(occupied, vec![1], "one shard, one hash, three keys");
        for k in 1..=3 {
            assert_eq!(lru.get(&Colliding(k)).as_deref(), Some(&(k * 10)));
        }
        // Replacing a key keeps the count and serves the new value.
        lru.insert(Colliding(2), 21);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&Colliding(2)).as_deref(), Some(&21));
        // Key 1 was used longest ago, so a fourth key evicts it.
        lru.insert(Colliding(4), 40);
        assert_eq!(lru.len(), 3);
        assert!(lru.get(&Colliding(1)).is_none());
        // Refreshing 3 leaves 2 as the least recently used.
        assert_eq!(lru.get(&Colliding(3)).as_deref(), Some(&30));
        lru.insert(Colliding(5), 50);
        assert!(lru.get(&Colliding(2)).is_none());
        for (k, v) in [(3, 30), (4, 40), (5, 50)] {
            assert_eq!(lru.get(&Colliding(k)).as_deref(), Some(&v));
        }
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.hits(), 3 + 1 + 1 + 3);
        assert_eq!(lru.misses(), 3);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!((lru.hits(), lru.misses()), (0, 0));
        assert!(lru.get(&Colliding(3)).is_none());
    }

    #[test]
    fn lookups_from_two_threads_are_all_counted() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(256);
        for k in 0..32u64 {
            lru.insert(k, k);
        }
        // Both threads walk keys 0..64, so each hits the 32 resident keys
        // and misses the rest, on every shard, at the same time.
        let per_thread = 64 * 200u64;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let lru = &lru;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let _ = lru.get(&((i + t * 7) % 64));
                    }
                });
            }
        });
        assert_eq!(lru.hits() + lru.misses(), 2 * per_thread);
        assert_eq!(lru.hits(), per_thread, "half of each thread's keys are resident");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let lru: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(256));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let lru = Arc::clone(&lru);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 37 + i) % 64;
                        if lru.get(&k).is_none() {
                            lru.insert(k, k * 2);
                        }
                    }
                });
            }
        });
        for k in 0..64u64 {
            if let Some(v) = lru.get(&k) {
                assert_eq!(*v, k * 2);
            }
        }
    }
}
