//! The incremental verification cache.
//!
//! A cache maps `file name → (content key, FileSummary)` under one
//! *configuration fingerprint* — the canonical description of every
//! verifier knob that can change a verdict ([`webssari_core::Verifier::
//! config_description`]): crate version, taint policy, loop unroll
//! depth, filter/check options, and the full prelude. A persisted cache
//! whose fingerprint differs from the running engine's is discarded
//! wholesale, so results self-invalidate when the tool or its
//! configuration changes.
//!
//! Only conclusive outcomes are cached: a `Timeout` summary reflects
//! the budget, not the program, and a retry with more headroom must
//! actually re-solve.
//!
//! ## Eviction
//!
//! A long-lived daemon cannot let the warm cache grow without bound.
//! [`CacheCaps`] bounds the entry count and the (approximate,
//! serialized-JSON) byte footprint of the whole cache; when an insert
//! pushes past either cap the least-recently-*used* entries are
//! evicted — both lookups and inserts refresh recency, so a steadily
//! re-verified hot set survives cold scans. The caps are exact: the
//! cache never holds more than they allow, and the entries it keeps
//! are the most recently used ones, whatever their names. Eviction
//! only ever costs future speed: an evicted file is simply re-verified
//! on its next appearance. Because [`Cache::save`] serializes the
//! *live* in-memory entries, a flush after eviction compacts the
//! on-disk file for free — dropped entries are never rewritten.
//!
//! ## Store parts
//!
//! An entry can also hold the file's store part — its contribution to
//! the batch's cross-request store summary ([`webssari_core::StoreCell`])
//! — so a later batch that needs the summary recomputes only the parts
//! of files whose content key changed. Parts live in memory only: they
//! are never serialized, do not count toward the byte cap, and leave
//! with their entry (eviction or replacement), so the caps bound them
//! too.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use jsonio::{len, parse, Value};
use webssari_core::json::{summary_from_value, summary_json_len, summary_to_value};
use webssari_core::{FileOutcome, FileSummary, StoreSummary};

use crate::hash;

/// On-disk format version; bump on incompatible layout changes.
const FORMAT_VERSION: u64 = 1;

/// File name used inside the cache directory.
pub const CACHE_FILE_NAME: &str = "webssari-cache.json";

/// Size caps for the cache. `None` means unlimited. Caps are excluded
/// from the configuration fingerprint by design: they decide what
/// stays *warm*, never what a verdict *is*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCaps {
    /// Maximum number of cached entries.
    pub max_entries: Option<usize>,
    /// Maximum approximate byte footprint (serialized-entry bytes).
    pub max_bytes: Option<usize>,
}

impl CacheCaps {
    /// No caps: the cache grows without bound (the pre-eviction
    /// behavior, still the default for one-shot batch runs).
    pub fn unlimited() -> Self {
        CacheCaps::default()
    }
}

/// One cached verification result.
#[derive(Debug)]
struct CacheEntry {
    /// Content key of the sources this summary was computed from.
    content_key: u64,
    /// The cached per-file summary.
    summary: FileSummary,
    /// Recency stamp; larger means used more recently. Not persisted —
    /// a reloaded cache starts with fresh, insertion-ordered recency.
    last_used: u64,
    /// Approximate serialized size, fixed at insert time.
    approx_bytes: usize,
    /// The file's store part under `content_key`, once a batch has
    /// computed it. Not persisted.
    part: Option<Arc<StoreSummary>>,
}

/// The incremental cache of one configuration fingerprint: every
/// entry behind one lock, held only for the lookup or insert itself.
/// See the module docs.
#[derive(Debug)]
pub struct Cache {
    fingerprint: String,
    caps: CacheCaps,
    entries: Mutex<Entries>,
}

/// The entries of a [`Cache`] and their eviction order.
#[derive(Debug, Default)]
struct Entries {
    by_file: BTreeMap<String, CacheEntry>,
    /// `recency stamp → file name`, the eviction order. Invariant: one
    /// entry per cached file, stamps unique (the tick only moves up).
    recency: BTreeMap<u64, String>,
    tick: u64,
    total_bytes: usize,
}

impl Entries {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The entry for `file` when its content key matches, refreshing
    /// its recency.
    fn lookup(&mut self, file: &str, content_key: u64) -> Option<&CacheEntry> {
        let tick = self.next_tick();
        let entry = self.by_file.get_mut(file)?;
        if entry.content_key != content_key {
            return None;
        }
        self.recency.remove(&entry.last_used);
        entry.last_used = tick;
        self.recency.insert(tick, file.to_owned());
        Some(entry)
    }

    /// Inserts or replaces `summary`'s entry, then evicts LRU entries
    /// until both caps hold; returns how many were evicted. The newest
    /// entry is evictable too (a single entry larger than `max_bytes`
    /// leaves the cache empty rather than permanently over cap).
    fn insert(&mut self, caps: CacheCaps, content_key: u64, summary: FileSummary) -> u64 {
        let tick = self.next_tick();
        let approx_bytes = entry_json_len(&summary.file, content_key, &summary);
        let file = summary.file.clone();
        let entry = CacheEntry {
            content_key,
            summary,
            last_used: tick,
            approx_bytes,
            part: None,
        };
        if let Some(old) = self.by_file.insert(file.clone(), entry) {
            self.recency.remove(&old.last_used);
            self.total_bytes -= old.approx_bytes;
        }
        self.recency.insert(tick, file);
        self.total_bytes += approx_bytes;

        let mut evicted = 0u64;
        while caps.max_entries.is_some_and(|cap| self.by_file.len() > cap)
            || caps.max_bytes.is_some_and(|cap| self.total_bytes > cap)
        {
            let Some((_, file)) = self.recency.pop_first() else {
                break;
            };
            if let Some(old) = self.by_file.remove(&file) {
                self.total_bytes -= old.approx_bytes;
            }
            evicted += 1;
        }
        evicted
    }
}

impl Cache {
    /// An empty cache for `fingerprint`, evicting past `caps`.
    pub fn new(fingerprint: &str, caps: CacheCaps) -> Self {
        Cache {
            fingerprint: fingerprint.to_owned(),
            caps,
            entries: Mutex::new(Entries::default()),
        }
    }

    /// Loads the persisted cache file from `dir`. A missing,
    /// unreadable or corrupt file, or one written under a different
    /// configuration fingerprint or format version, loads as empty. A
    /// persisted cache larger than `caps` is trimmed on load, in
    /// file-name order (on-disk recency is not persisted).
    pub fn load(dir: &Path, fingerprint: &str, caps: CacheCaps) -> Self {
        let cache = Cache::new(fingerprint, caps);
        let Ok(text) = std::fs::read_to_string(dir.join(CACHE_FILE_NAME)) else {
            return cache;
        };
        let Some(root) = parse(&text) else {
            return cache;
        };
        if root.get("version").and_then(Value::as_u64) != Some(FORMAT_VERSION)
            || root.get("fingerprint").and_then(Value::as_str) != Some(fingerprint)
        {
            return cache;
        }
        let Some(entries) = root.get("entries").and_then(Value::as_arr) else {
            return cache;
        };
        for (content_key, summary) in entries.iter().filter_map(entry_from_value) {
            cache.insert(content_key, summary);
        }
        cache
    }

    /// Returns the cached summary for `file` when its content key
    /// matches, i.e. neither the file nor (for include-bearing files)
    /// the source set changed since the summary was computed, with the
    /// store part if one is held. Both are cloned out, so the lock is
    /// held only for the lookup itself. A hit refreshes the entry's
    /// recency.
    pub fn lookup(
        &self,
        file: &str,
        content_key: u64,
    ) -> Option<(FileSummary, Option<Arc<StoreSummary>>)> {
        self.lock()
            .lookup(file, content_key)
            .map(|e| (e.summary.clone(), e.part.clone()))
    }

    /// Records a conclusive verification result, evicting
    /// least-recently-used entries if a cap is exceeded. Returns how
    /// many entries were evicted. `Timeout` and `ParseError` summaries
    /// are rejected — they describe the run, not the program.
    pub fn insert(&self, content_key: u64, summary: FileSummary) -> u64 {
        if matches!(
            summary.outcome,
            FileOutcome::Timeout | FileOutcome::ParseError
        ) {
            return 0;
        }
        self.lock().insert(self.caps, content_key, summary)
    }

    /// Keeps `part` as the store part of `file`'s entry, if the entry
    /// is still the one for `content_key`. Recency is left alone.
    pub fn attach_part(&self, file: &str, content_key: u64, part: Arc<StoreSummary>) {
        if let Some(entry) = self.lock().by_file.get_mut(file) {
            if entry.content_key == content_key {
                entry.part = Some(part);
            }
        }
    }

    /// Number of entries holding a store part.
    pub fn store_parts(&self) -> usize {
        self.lock()
            .by_file
            .values()
            .filter(|e| e.part.is_some())
            .count()
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.lock().by_file.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate byte footprint of the cached entries.
    pub fn approx_bytes(&self) -> usize {
        self.lock().total_bytes
    }

    /// The cache document: version, fingerprint and the live entries
    /// in file-name order. The output is byte-stable regardless of
    /// access history. Store parts are never serialized.
    pub fn to_json(&self) -> String {
        let entries = self.lock();
        let values = entries
            .by_file
            .iter()
            .map(|(file, entry)| entry_to_value(file, entry.content_key, &entry.summary))
            .collect();
        Value::obj(vec![
            ("version", Value::Num(FORMAT_VERSION)),
            ("fingerprint", Value::str(self.fingerprint.clone())),
            ("entries", Value::Arr(values)),
        ])
        .to_json()
    }

    /// Writes [`Cache::to_json`] into `dir` (created if missing). Only
    /// live entries are serialized, so a save after eviction
    /// *compacts* the on-disk file: evicted entries are dropped, not
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the engine reports them without
    /// failing the run — a broken cache only costs future speed.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE_NAME);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `entry_to_value(..).to_json().len()`, the entry's size in the cache
/// file, counted without building either.
fn entry_json_len(file: &str, content_key: u64, summary: &FileSummary) -> usize {
    len::object(&[
        ("file", len::string(file)),
        ("content_key", len::string(&hash::to_hex(content_key))),
        ("summary", summary_json_len(summary)),
    ])
}

fn entry_to_value(file: &str, content_key: u64, summary: &FileSummary) -> Value {
    Value::obj(vec![
        ("file", Value::str(file.to_owned())),
        ("content_key", Value::str(hash::to_hex(content_key))),
        ("summary", summary_to_value(summary)),
    ])
}

fn entry_from_value(value: &Value) -> Option<(u64, FileSummary)> {
    let file = value.get("file")?.as_str()?;
    let content_key = hash::from_hex(value.get("content_key")?.as_str()?)?;
    let summary = summary_from_value(value.get("summary")?)?;
    // A summary whose file name disagrees with its key is corrupt.
    if summary.file != file {
        return None;
    }
    Some((content_key, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use webssari_core::Vulnerability;

    fn sample_summary(file: &str, outcome: FileOutcome) -> FileSummary {
        FileSummary {
            file: file.to_owned(),
            num_statements: 4,
            ts_errors: 2,
            bmc_groups: 1,
            counterexamples: 2,
            vulnerabilities: vec![Vulnerability {
                class: "sqli".to_owned(),
                root_var: "sid".to_owned(),
                symptoms: vec!["a.php:3".to_owned(), "a.php:4".to_owned()],
                funcs: vec!["mysql_query".to_owned()],
                parameterize: false,
            }],
            outcome,
        }
    }

    #[test]
    fn summary_round_trips() {
        let summary = sample_summary("a.php", FileOutcome::Vulnerable);
        let value = summary_to_value(&summary);
        assert_eq!(summary_from_value(&value), Some(summary));
    }

    #[test]
    fn lookup_requires_matching_key() {
        let cache = Cache::new("fp", CacheCaps::unlimited());
        cache.insert(42, sample_summary("a.php", FileOutcome::Vulnerable));
        assert!(cache.lookup("a.php", 42).is_some());
        assert!(cache.lookup("a.php", 43).is_none());
        assert!(cache.lookup("b.php", 42).is_none());
    }

    #[test]
    fn inconclusive_outcomes_are_never_cached() {
        let cache = Cache::new("fp", CacheCaps::unlimited());
        cache.insert(1, sample_summary("t.php", FileOutcome::Timeout));
        cache.insert(2, sample_summary("p.php", FileOutcome::ParseError));
        assert!(cache.is_empty());
    }

    #[test]
    fn persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "webssari-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let cache = Cache::new("fp v1", CacheCaps::unlimited());
        cache.insert(7, sample_summary("a.php", FileOutcome::Verified));
        cache.insert(9, sample_summary("b.php", FileOutcome::Vulnerable));
        cache.save(&dir).unwrap();

        let loaded = Cache::load(&dir, "fp v1", CacheCaps::unlimited());
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.lookup("a.php", 7).map(|(s, _)| s.outcome),
            Some(FileOutcome::Verified)
        );

        // A different fingerprint discards everything.
        let other = Cache::load(&dir, "fp v2", CacheCaps::unlimited());
        assert!(other.is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_reads_as_empty() {
        let dir = std::env::temp_dir().join(format!(
            "webssari-cache-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE_NAME), "{ not json").unwrap();
        assert!(Cache::load(&dir, "fp", CacheCaps::unlimited()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn to_json_is_deterministic() {
        let a = Cache::new("fp", CacheCaps::unlimited());
        a.insert(1, sample_summary("z.php", FileOutcome::Verified));
        a.insert(2, sample_summary("a.php", FileOutcome::Verified));
        // Other insertion and access orders, and a replaced entry.
        let b = Cache::new("fp", CacheCaps::unlimited());
        b.insert(5, sample_summary("z.php", FileOutcome::Vulnerable));
        b.insert(2, sample_summary("a.php", FileOutcome::Verified));
        b.insert(1, sample_summary("z.php", FileOutcome::Verified));
        assert!(b.lookup("a.php", 2).is_some());
        assert!(b.lookup("z.php", 1).is_some());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn entry_cap_evicts_least_recently_used() {
        let caps = CacheCaps {
            max_entries: Some(2),
            max_bytes: None,
        };
        let cache = Cache::new("fp", caps);
        assert_eq!(
            cache.insert(1, sample_summary("a.php", FileOutcome::Verified)),
            0
        );
        assert_eq!(
            cache.insert(2, sample_summary("b.php", FileOutcome::Verified)),
            0
        );
        // Touch a.php so b.php becomes the LRU victim.
        assert!(cache.lookup("a.php", 1).is_some());
        assert_eq!(
            cache.insert(3, sample_summary("c.php", FileOutcome::Verified)),
            1
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a.php", 1).is_some());
        assert!(cache.lookup("b.php", 2).is_none(), "LRU entry evicted");
        assert!(cache.lookup("c.php", 3).is_some());
    }

    #[test]
    fn byte_cap_evicts_and_save_compacts() {
        let one_entry = {
            let probe = Cache::new("fp", CacheCaps::unlimited());
            probe.insert(1, sample_summary("a.php", FileOutcome::Verified));
            probe.approx_bytes()
        };
        let caps = CacheCaps {
            max_entries: None,
            // Room for two entries, not three.
            max_bytes: Some(one_entry * 2 + one_entry / 2),
        };
        let cache = Cache::new("fp", caps);
        cache.insert(1, sample_summary("a.php", FileOutcome::Verified));
        cache.insert(2, sample_summary("b.php", FileOutcome::Verified));
        let evicted = cache.insert(3, sample_summary("c.php", FileOutcome::Verified));
        assert!(evicted >= 1, "byte cap must evict");
        assert!(cache.approx_bytes() <= caps.max_bytes.unwrap());

        // The flushed file holds exactly the live entries (compaction).
        let dir = std::env::temp_dir().join(format!(
            "webssari-cache-compact-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        cache.save(&dir).unwrap();
        let reloaded = Cache::load(&dir, "fp", CacheCaps::unlimited());
        assert_eq!(reloaded.len(), cache.len());
        assert!(
            reloaded.lookup("a.php", 1).is_none(),
            "evicted entry rewritten to disk"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinserting_a_file_replaces_without_eviction() {
        let caps = CacheCaps {
            max_entries: Some(1),
            max_bytes: None,
        };
        let cache = Cache::new("fp", caps);
        cache.insert(1, sample_summary("a.php", FileOutcome::Verified));
        // Same file, new contents: replacement, not growth.
        assert_eq!(
            cache.insert(9, sample_summary("a.php", FileOutcome::Vulnerable)),
            0
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a.php", 9).is_some());
    }

    #[test]
    fn an_edited_file_keeps_one_entry() {
        // Entries are keyed by file name, so the edit replaces the
        // stale entry.
        let cache = Cache::new("fp", CacheCaps::unlimited());
        cache.insert(1, sample_summary("a.php", FileOutcome::Verified));
        cache.insert(2, sample_summary("a.php", FileOutcome::Vulnerable));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a.php", 1).is_none());
        assert!(cache.lookup("a.php", 2).is_some());

        let dir = std::env::temp_dir().join(format!(
            "webssari-cache-edit-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        cache.save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(CACHE_FILE_NAME)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains(&hash::to_hex(2)), "{text}");
        assert!(!text.contains(&hash::to_hex(1)), "{text}");
    }

    #[test]
    fn store_parts_follow_their_entries_and_stay_unsaved() {
        let caps = CacheCaps {
            max_entries: Some(2),
            max_bytes: None,
        };
        let cache = Cache::new("fp", caps);
        cache.insert(1, sample_summary("a.php", FileOutcome::Verified));
        cache.insert(2, sample_summary("b.php", FileOutcome::Verified));
        let json = cache.to_json();
        let part = Arc::new(StoreSummary::new());
        cache.attach_part("a.php", 9, Arc::clone(&part));
        assert_eq!(cache.store_parts(), 0, "a stale key takes no part");
        cache.attach_part("a.php", 1, Arc::clone(&part));
        cache.attach_part("b.php", 2, Arc::clone(&part));
        assert_eq!(cache.store_parts(), 2);
        assert_eq!(cache.to_json(), json, "parts are never serialized");
        assert_eq!(cache.lookup("a.php", 1).unwrap().1, Some(part));

        // Replacement and eviction drop the part with the entry.
        cache.insert(3, sample_summary("b.php", FileOutcome::Vulnerable));
        assert_eq!(cache.store_parts(), 1);
        cache.insert(4, sample_summary("c.php", FileOutcome::Verified));
        assert!(cache.lookup("a.php", 1).is_none());
        assert_eq!(cache.store_parts(), 0);
    }

    /// Text with every character class the JSON writer treats apart:
    /// quotes, backslashes, named and `\u` escapes, multibyte UTF-8.
    fn text() -> BoxedStrategy<String> {
        let ch = prop_oneof![
            4 => any::<char>(),
            1 => Just('"'),
            1 => Just('\\'),
            1 => Just('\n'),
            1 => Just('\u{1}'),
            1 => Just('\u{e9}'),
            1 => Just('\u{1f600}'),
        ];
        prop::collection::vec(ch, 0..10).prop_map(String::from_iter)
    }

    fn summary() -> BoxedStrategy<FileSummary> {
        let vulnerability = (
            text(),
            text(),
            prop::collection::vec(text(), 0..3),
            prop::collection::vec(text(), 0..3),
            any::<bool>(),
        )
            .prop_map(
                |(class, root_var, symptoms, funcs, parameterize)| Vulnerability {
                    class,
                    root_var,
                    symptoms,
                    funcs,
                    parameterize,
                },
            );
        let outcome = prop_oneof![
            Just(FileOutcome::Verified),
            Just(FileOutcome::Vulnerable),
            Just(FileOutcome::Timeout),
            Just(FileOutcome::ParseError),
        ];
        (
            text(),
            (any::<usize>(), 0usize..11, 0usize..101, any::<usize>()),
            prop::collection::vec(vulnerability, 0..3),
            outcome,
        )
            .prop_map(
                |(file, (stmts, ts, bmc, cx), vulnerabilities, outcome)| FileSummary {
                    file,
                    num_statements: stmts,
                    ts_errors: ts,
                    bmc_groups: bmc,
                    counterexamples: cx,
                    vulnerabilities,
                    outcome,
                },
            )
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The size `insert` charges an entry is its rendering's length,
        /// so `--cache-max-mb` evicts in the same order as when sizes
        /// were measured on the rendered JSON.
        #[test]
        fn entry_size_is_its_rendered_length(
            summary in summary(),
            key in any::<u64>(),
        ) {
            let rendered = entry_to_value(&summary.file, key, &summary).to_json().len();
            prop_assert_eq!(entry_json_len(&summary.file, key, &summary), rendered);
        }
    }
}
