//! The answer cache: a lock-striped LRU map keyed on *normalized*
//! question text. An answer is a pure function of the question and the
//! QA index, which is immutable once built, so an entry never goes
//! stale: the feedback ETL only writes into the warehouse and a commit
//! leaves this cache alone.
//!
//! The map is split into [`DEFAULT_SHARDS`] independently-locked shards
//! selected by the key's hash, so concurrent workers answering different
//! questions rarely contend on the same mutex. Each shard keeps a relaxed
//! atomic count of its entries, which makes [`AnswerCache::len`] — and
//! therefore the REPL's `:stats` line and the service's `ServiceStats`
//! snapshot — entirely lock-free: observability never queues behind the
//! hot path. LRU order is tracked *per shard*; with more than one shard
//! eviction is approximate (each shard evicts its own least-recent entry
//! when its slice of the capacity overflows), which is the standard
//! striped-cache trade-off.

use dwqa_qa::Answer;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default number of lock stripes. Eight keeps contention negligible for
/// the service's worker pools (2–8 threads) while the per-shard memory
/// overhead stays trivial.
pub const DEFAULT_SHARDS: usize = 8;

/// Canonicalizes a question for cache keying: accent/case folding,
/// whitespace collapsing, and trailing punctuation removal, so
/// `"  What is   the Temperature?"` and `"what is the temperature"`
/// share an entry.
pub fn normalize_question(question: &str) -> String {
    let folded = dwqa_common::text::fold(question);
    folded
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .trim_end_matches(['?', '.', '!', ' '])
        .to_owned()
}

#[derive(Debug, Clone)]
struct Entry {
    answers: Vec<Answer>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    inner: Mutex<Inner>,
    /// Mirror of `inner.map.len()`, maintained under the shard lock but
    /// readable without it.
    entries: AtomicUsize,
}

/// A bounded, lock-striped LRU answer cache, safe to share across worker
/// threads.
#[derive(Debug)]
pub struct AnswerCache {
    capacity: usize,
    /// Per-shard entry budget: `capacity` split evenly (rounded up), so
    /// the whole cache never exceeds `shard_capacity * shards` entries.
    shard_capacity: usize,
    shards: Vec<Shard>,
}

impl AnswerCache {
    /// Creates a cache holding at most `capacity` question entries,
    /// striped over [`DEFAULT_SHARDS`] locks. A zero capacity disables
    /// caching entirely.
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (clamped to at least
    /// one). With one shard, eviction is exact global LRU; with more,
    /// each shard evicts its own least-recent entry independently.
    pub fn with_shards(capacity: usize, shards: usize) -> AnswerCache {
        let shards = shards.max(1);
        AnswerCache {
            capacity,
            shard_capacity: capacity.div_ceil(shards),
            shards: (0..shards).map(|_| Shard::default()).collect(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of lock stripes.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &str) -> &Shard {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Entries currently cached. Lock-free: sums
    /// the per-shard atomic counters, so stats reads never contend with
    /// answering workers.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.entries.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a normalized key, refreshing the entry's recency.
    pub fn lookup(&self, key: &str) -> Option<Vec<Answer>> {
        let mut inner = self
            .shard_of(key)
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.answers.clone())
    }

    /// Stores a question's answers, evicting the shard's least recently
    /// used entry when the shard is full.
    pub fn store(&self, key: String, answers: Vec<Answer>) {
        if self.capacity == 0 {
            return;
        }
        let shard = self.shard_of(&key);
        let mut inner = shard.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        let replaced = inner.map.insert(
            key,
            Entry {
                answers,
                last_used: tick,
            },
        );
        if replaced.is_none() {
            shard.entries.fetch_add(1, Ordering::Relaxed);
        }
        while inner.map.len() > self.shard_capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(key) => {
                    inner.map.remove(&key);
                    shard.entries.fetch_sub(1, Ordering::Relaxed);
                }
                None => break,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_folds_case_space_and_punctuation() {
        assert_eq!(
            normalize_question("  What is   the Temperature?"),
            "what is the temperature"
        );
        assert_eq!(
            normalize_question("what is the temperature"),
            "what is the temperature"
        );
        assert_eq!(normalize_question("¿Dónde está?"), "¿donde esta");
    }

    // The exact-LRU tests pin the eviction order down to single entries,
    // which only holds when all keys share one stripe: run them on a
    // single-shard cache.
    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let cache = AnswerCache::with_shards(2, 1);
        cache.store("a".into(), vec![]);
        cache.store("b".into(), vec![]);
        // Touch "a" so "b" is the least recently used.
        assert!(cache.lookup("a").is_some());
        cache.store("c".into(), vec![]);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("b").is_none());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = AnswerCache::new(0);
        cache.store("q".into(), vec![]);
        assert!(cache.lookup("q").is_none());
    }

    #[test]
    fn eviction_follows_exact_lru_order() {
        let cache = AnswerCache::with_shards(3, 1);
        cache.store("a".into(), vec![]);
        cache.store("b".into(), vec![]);
        cache.store("c".into(), vec![]);
        // Recency, oldest first, is now a < b < c. Touch "a", making
        // "b" the LRU entry; then each overflow must evict exactly the
        // current LRU, never insertion order.
        assert!(cache.lookup("a").is_some()); // b < c < a
        cache.store("d".into(), vec![]); // evicts b
        assert!(cache.lookup("b").is_none()); // c < a < d
        cache.store("e".into(), vec![]); // evicts c
        assert!(cache.lookup("c").is_none());
        for key in ["a", "d", "e"] {
            assert!(cache.lookup(key).is_some(), "{key} must survive");
        }
    }

    #[test]
    fn re_store_refreshes_recency() {
        let cache = AnswerCache::with_shards(2, 1);
        cache.store("a".into(), vec![]);
        cache.store("b".into(), vec![]);
        // Re-storing "a" makes "b" the least recently used.
        cache.store("a".into(), vec![]);
        cache.store("c".into(), vec![]); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("b").is_none());
        assert!(cache.lookup("a").is_some());
    }

    #[test]
    fn len_tracks_entries_across_shards() {
        // Capacity 320 over 8 shards → 40 per stripe, so 40 keys can
        // never overflow a stripe however skewed the hash is.
        let cache = AnswerCache::with_shards(320, 8);
        assert_eq!(cache.shards(), 8);
        assert!(cache.is_empty());
        for i in 0..40 {
            cache.store(format!("question {i}"), vec![]);
        }
        assert_eq!(cache.len(), 40);
        // Re-storing existing keys must not double-count.
        for i in 0..40 {
            cache.store(format!("question {i}"), vec![]);
        }
        assert_eq!(cache.len(), 40);
    }

    #[test]
    fn sharded_capacity_is_respected_per_stripe() {
        // 16 entries over 4 shards → 4 per shard; total never exceeds
        // the configured capacity even under heavy overflow.
        let cache = AnswerCache::with_shards(16, 4);
        for i in 0..200 {
            cache.store(format!("q{i}"), vec![]);
        }
        assert!(cache.len() <= 16, "len {} > capacity 16", cache.len());
        assert!(cache.len() >= 4, "every stripe should retain entries");
    }

    #[test]
    fn concurrent_store_lookup_and_len_stay_consistent() {
        let cache = std::sync::Arc::new(AnswerCache::with_shards(256, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("thread {t} question {i}");
                        cache.store(key.clone(), vec![]);
                        // Under contention another thread may already
                        // have evicted the key from a shared stripe, so
                        // only exercise the read path, don't assert a
                        // hit.
                        let _ = cache.lookup(&key);
                        // len() must be callable concurrently without
                        // deadlock or panic.
                        let _ = cache.len();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The counter mirror never ran past the capacity.
        assert!(cache.len() <= 256);
    }
}
