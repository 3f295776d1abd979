//! The incremental verification cache.
//!
//! A cache maps `file name → (content key, reads, FileSummary)` under
//! one *configuration fingerprint* — the canonical description of every
//! verifier knob that can change a verdict ([`webssari_core::Verifier::
//! config_description`]): crate version, taint policy, loop unroll
//! depth, fix-plan settings, certification, and the full prelude. A
//! persisted cache whose fingerprint differs from the running engine's
//! is discarded wholesale, so results self-invalidate when the tool or
//! its configuration changes.
//!
//! ## What an entry records, and how a hit is checked
//!
//! Like a build system's depfile, an entry records what its
//! verification read ([`EntryReads`], from
//! [`webssari_core::Verifier::verify_file_recorded`]):
//!
//! * the content key — the hash of the file's own name and text;
//! * every other file name include resolution looked up, with that
//!   file's content key then, or `absent` (a failed lookup is a read
//!   too: adding the file changes the result);
//! * when the filter consulted the cross-request store summary, the
//!   digest of the summary it read, and the hash of a source set whose
//!   summary has that digest ([`StoreRead`]).
//!
//! [`Cache::lookup`] serves an entry only when the file's content key
//! and every recorded include still match the batch being verified.
//! The store read is the engine's check, not the cache's. The summary
//! is a function of the source set, so a batch of the recorded set
//! needs no summary at all; any other batch takes the digest once its
//! other misses have published their store parts (see
//! [`crate::Engine`]) and, when it matches, re-stamps the entry with
//! its own set ([`Cache::confirm_store_read`]). An edit to one file
//! thus re-verifies that file, the files that looked it up, and the
//! store readers whose summary it changed — nothing else.
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
//! of files it re-verifies. A part is a function of the file and its
//! includes, so it stays with an entry for as long as the entry holds
//! (and a store reader re-verified for a changed summary keeps it).
//! Parts live in memory only: they
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

/// On-disk format version; bump on incompatible layout changes. A file
/// of another version loads as empty (format 1 keyed entries on a hash
/// of the whole source set and recorded no reads).
const FORMAT_VERSION: u64 = 2;

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

/// What a cached verification read besides its own file. See the
/// module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EntryReads {
    /// Every other file include resolution looked up, in name order,
    /// with its content key at the time, or `None` when it was absent.
    pub includes: Vec<(String, Option<u64>)>,
    /// The store summary the filter consulted, if it consulted one.
    pub store: Option<StoreRead>,
}

/// The cross-request store summary a cached verification read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreRead {
    /// The summary's [`webssari_core::StoreSummary::digest`].
    pub digest: u64,
    /// The hash of a source set whose summary has that digest: every
    /// file's content key, folded in name order. A batch of this set
    /// reads the same summary without building it.
    pub set: u64,
}

/// A [`Cache::lookup`] hit whose file and includes are unchanged.
#[derive(Clone, Debug)]
pub struct CacheHit {
    /// The cached summary.
    pub summary: FileSummary,
    /// The file's store part, if a batch computed it.
    pub part: Option<Arc<StoreSummary>>,
    /// The store summary the cached verification read: the hit stands
    /// only if the batch's summary is the same.
    pub store: Option<StoreRead>,
}

/// One cached verification result.
#[derive(Debug)]
struct CacheEntry {
    /// The file's own content key when it was verified.
    content_key: u64,
    /// What the verification read besides the file itself.
    reads: EntryReads,
    /// The cached per-file summary.
    summary: FileSummary,
    /// Recency stamp; larger means used more recently. Not persisted —
    /// a reloaded cache starts with fresh, insertion-ordered recency.
    last_used: u64,
    /// Approximate serialized size, fixed at insert time.
    approx_bytes: usize,
    /// The file's store part, once a batch has computed it. A part is
    /// a function of the file and its includes, so it holds for as long
    /// as the entry's content key and includes match. Not persisted.
    part: Option<Arc<StoreSummary>>,
}

impl CacheEntry {
    /// Whether this entry's file and includes are unchanged in the set
    /// whose content keys `current` gives (`None`: no such file).
    fn holds(&self, content_key: u64, current: &dyn Fn(&str) -> Option<u64>) -> bool {
        self.content_key == content_key
            && self
                .reads
                .includes
                .iter()
                .all(|(name, key)| current(name) == *key)
    }
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

    /// The entry for `file` when it [holds](CacheEntry::holds),
    /// refreshing its recency.
    fn lookup(
        &mut self,
        file: &str,
        content_key: u64,
        current: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<&CacheEntry> {
        let tick = self.next_tick();
        let entry = self.by_file.get_mut(file)?;
        if !entry.holds(content_key, current) {
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
    fn insert(
        &mut self,
        caps: CacheCaps,
        content_key: u64,
        reads: EntryReads,
        summary: FileSummary,
    ) -> u64 {
        let tick = self.next_tick();
        let approx_bytes = entry_json_len(&summary.file, &reads, &summary);
        let file = summary.file.clone();
        let entry = CacheEntry {
            content_key,
            reads,
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
        for (content_key, reads, summary) in entries.iter().filter_map(entry_from_value) {
            cache.insert(content_key, reads, summary);
        }
        cache
    }

    /// Returns the cached result for `file` when its content key
    /// matches and every include it recorded still has the content key
    /// `current` gives for it (`None`: the file is absent), with the
    /// store part if one is held. Everything is cloned out, so the lock
    /// is held only for the lookup itself. A hit refreshes the entry's
    /// recency; whether the recorded store digest still holds is the
    /// caller's check.
    pub fn lookup(
        &self,
        file: &str,
        content_key: u64,
        current: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<CacheHit> {
        self.lock()
            .lookup(file, content_key, current)
            .map(|e| CacheHit {
                summary: e.summary.clone(),
                part: e.part.clone(),
                store: e.reads.store,
            })
    }

    /// Records a conclusive verification result and what it read,
    /// evicting least-recently-used entries if a cap is exceeded.
    /// Returns how many entries were evicted. `Timeout` and
    /// `ParseError` summaries are rejected — they describe the run, not
    /// the program.
    pub fn insert(&self, content_key: u64, reads: EntryReads, summary: FileSummary) -> u64 {
        if matches!(
            summary.outcome,
            FileOutcome::Timeout | FileOutcome::ParseError
        ) {
            return 0;
        }
        self.lock().insert(self.caps, content_key, reads, summary)
    }

    /// Keeps `part` as the store part of `file`'s entry, if the entry
    /// holds for the set `current` describes, as [`Cache::lookup`]
    /// checks: the part was computed from that set, and it is the
    /// entry's part only if the file and its includes are the ones the
    /// entry recorded. Recency is left alone.
    pub fn attach_part(
        &self,
        file: &str,
        content_key: u64,
        current: &dyn Fn(&str) -> Option<u64>,
        part: Arc<StoreSummary>,
    ) {
        if let Some(entry) = self.lock().by_file.get_mut(file) {
            if entry.holds(content_key, current) {
                entry.part = Some(part);
            }
        }
    }

    /// Records that the summary of source set `set` has the digest
    /// `file`'s entry read, if the entry still holds for the set
    /// `current` describes and read that digest, so that a later batch
    /// of the same set serves it without taking the digest. Recency is
    /// left alone.
    pub fn confirm_store_read(
        &self,
        file: &str,
        content_key: u64,
        current: &dyn Fn(&str) -> Option<u64>,
        read: StoreRead,
    ) {
        if let Some(entry) = self.lock().by_file.get_mut(file) {
            if entry.holds(content_key, current)
                && entry.reads.store.is_some_and(|s| s.digest == read.digest)
            {
                entry.reads.store = Some(read);
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
            .map(|(file, entry)| {
                entry_to_value(file, entry.content_key, &entry.reads, &entry.summary)
            })
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
fn entry_json_len(file: &str, reads: &EntryReads, summary: &FileSummary) -> usize {
    // A key is a quoted 16-digit hex string; a missing one is `null`.
    const KEY: usize = 18;
    const NULL: usize = 4;
    let includes = reads
        .includes
        .iter()
        .map(|(name, key)| len::array([len::string(name), key.map_or(NULL, |_| KEY)]));
    len::object(&[
        ("file", len::string(file)),
        ("content_key", KEY),
        ("includes", len::array(includes)),
        (
            "store",
            reads.store.map_or(NULL, |_| len::array([KEY, KEY])),
        ),
        ("summary", summary_json_len(summary)),
    ])
}

fn key_to_value(key: Option<u64>) -> Value {
    key.map_or(Value::Null, |key| Value::str(hash::to_hex(key)))
}

/// `null`, or `[digest, set]` as hex keys.
fn store_to_value(read: Option<StoreRead>) -> Value {
    read.map_or(Value::Null, |read| {
        Value::Arr(vec![
            Value::str(hash::to_hex(read.digest)),
            Value::str(hash::to_hex(read.set)),
        ])
    })
}

fn key_from_value(value: &Value) -> Option<Option<u64>> {
    match value {
        Value::Null => Some(None),
        value => hash::from_hex(value.as_str()?).map(Some),
    }
}

fn entry_to_value(
    file: &str,
    content_key: u64,
    reads: &EntryReads,
    summary: &FileSummary,
) -> Value {
    let includes = reads
        .includes
        .iter()
        .map(|(name, key)| Value::Arr(vec![Value::str(name.clone()), key_to_value(*key)]))
        .collect();
    Value::obj(vec![
        ("file", Value::str(file.to_owned())),
        ("content_key", Value::str(hash::to_hex(content_key))),
        ("includes", Value::Arr(includes)),
        ("store", store_to_value(reads.store)),
        ("summary", summary_to_value(summary)),
    ])
}

fn entry_from_value(value: &Value) -> Option<(u64, EntryReads, FileSummary)> {
    let file = value.get("file")?.as_str()?;
    let content_key = hash::from_hex(value.get("content_key")?.as_str()?)?;
    let includes = value
        .get("includes")?
        .as_arr()?
        .iter()
        .map(|pair| match pair.as_arr()? {
            [name, key] => Some((name.as_str()?.to_owned(), key_from_value(key)?)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let store = match value.get("store")? {
        Value::Null => None,
        read => match read.as_arr()? {
            [digest, set] => Some(StoreRead {
                digest: hash::from_hex(digest.as_str()?)?,
                set: hash::from_hex(set.as_str()?)?,
            }),
            _ => return None,
        },
    };
    let summary = summary_from_value(value.get("summary")?)?;
    // A summary whose file name disagrees with its key is corrupt.
    if summary.file != file {
        return None;
    }
    Some((content_key, EntryReads { includes, store }, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use webssari_core::Vulnerability;

    /// The current set of a lookup whose entries record no includes.
    fn absent(_: &str) -> Option<u64> {
        None
    }

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
        cache.insert(
            42,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Vulnerable),
        );
        assert!(cache.lookup("a.php", 42, &absent).is_some());
        assert!(cache.lookup("a.php", 43, &absent).is_none());
        assert!(cache.lookup("b.php", 42, &absent).is_none());
    }

    #[test]
    fn inconclusive_outcomes_are_never_cached() {
        let cache = Cache::new("fp", CacheCaps::unlimited());
        cache.insert(
            1,
            EntryReads::default(),
            sample_summary("t.php", FileOutcome::Timeout),
        );
        cache.insert(
            2,
            EntryReads::default(),
            sample_summary("p.php", FileOutcome::ParseError),
        );
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
        cache.insert(
            7,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        cache.insert(
            9,
            EntryReads::default(),
            sample_summary("b.php", FileOutcome::Vulnerable),
        );
        cache.save(&dir).unwrap();

        let loaded = Cache::load(&dir, "fp v1", CacheCaps::unlimited());
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded
                .lookup("a.php", 7, &absent)
                .map(|hit| hit.summary.outcome),
            Some(FileOutcome::Verified)
        );

        // A different fingerprint discards everything.
        let other = Cache::load(&dir, "fp v2", CacheCaps::unlimited());
        assert!(other.is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn to_json_is_deterministic() {
        let a = Cache::new("fp", CacheCaps::unlimited());
        a.insert(
            1,
            EntryReads::default(),
            sample_summary("z.php", FileOutcome::Verified),
        );
        a.insert(
            2,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        // Other insertion and access orders, and a replaced entry.
        let b = Cache::new("fp", CacheCaps::unlimited());
        b.insert(
            5,
            EntryReads::default(),
            sample_summary("z.php", FileOutcome::Vulnerable),
        );
        b.insert(
            2,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        b.insert(
            1,
            EntryReads::default(),
            sample_summary("z.php", FileOutcome::Verified),
        );
        assert!(b.lookup("a.php", 2, &absent).is_some());
        assert!(b.lookup("z.php", 1, &absent).is_some());
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
            cache.insert(
                1,
                EntryReads::default(),
                sample_summary("a.php", FileOutcome::Verified)
            ),
            0
        );
        assert_eq!(
            cache.insert(
                2,
                EntryReads::default(),
                sample_summary("b.php", FileOutcome::Verified)
            ),
            0
        );
        // Touch a.php so b.php becomes the LRU victim.
        assert!(cache.lookup("a.php", 1, &absent).is_some());
        assert_eq!(
            cache.insert(
                3,
                EntryReads::default(),
                sample_summary("c.php", FileOutcome::Verified)
            ),
            1
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a.php", 1, &absent).is_some());
        assert!(
            cache.lookup("b.php", 2, &absent).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.lookup("c.php", 3, &absent).is_some());
    }

    #[test]
    fn byte_cap_evicts_and_save_compacts() {
        let one_entry = {
            let probe = Cache::new("fp", CacheCaps::unlimited());
            probe.insert(
                1,
                EntryReads::default(),
                sample_summary("a.php", FileOutcome::Verified),
            );
            probe.approx_bytes()
        };
        let caps = CacheCaps {
            max_entries: None,
            // Room for two entries, not three.
            max_bytes: Some(one_entry * 2 + one_entry / 2),
        };
        let cache = Cache::new("fp", caps);
        cache.insert(
            1,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        cache.insert(
            2,
            EntryReads::default(),
            sample_summary("b.php", FileOutcome::Verified),
        );
        let evicted = cache.insert(
            3,
            EntryReads::default(),
            sample_summary("c.php", FileOutcome::Verified),
        );
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
            reloaded.lookup("a.php", 1, &absent).is_none(),
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
        cache.insert(
            1,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        // Same file, new contents: replacement, not growth.
        assert_eq!(
            cache.insert(
                9,
                EntryReads::default(),
                sample_summary("a.php", FileOutcome::Vulnerable)
            ),
            0
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a.php", 9, &absent).is_some());
    }

    #[test]
    fn an_edited_file_keeps_one_entry() {
        // Entries are keyed by file name, so the edit replaces the
        // stale entry.
        let cache = Cache::new("fp", CacheCaps::unlimited());
        cache.insert(
            1,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        cache.insert(
            2,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Vulnerable),
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a.php", 1, &absent).is_none());
        assert!(cache.lookup("a.php", 2, &absent).is_some());

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
        cache.insert(
            1,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        cache.insert(
            2,
            EntryReads::default(),
            sample_summary("b.php", FileOutcome::Verified),
        );
        let json = cache.to_json();
        let part = Arc::new(StoreSummary::new());
        cache.attach_part("a.php", 9, &absent, Arc::clone(&part));
        assert_eq!(cache.store_parts(), 0, "a stale key takes no part");
        cache.attach_part("a.php", 1, &absent, Arc::clone(&part));
        cache.attach_part("b.php", 2, &absent, Arc::clone(&part));
        assert_eq!(cache.store_parts(), 2);
        assert_eq!(cache.to_json(), json, "parts are never serialized");
        assert_eq!(cache.lookup("a.php", 1, &absent).unwrap().part, Some(part));

        // Replacement and eviction drop the part with the entry.
        cache.insert(
            3,
            EntryReads::default(),
            sample_summary("b.php", FileOutcome::Vulnerable),
        );
        assert_eq!(cache.store_parts(), 1);
        cache.insert(
            4,
            EntryReads::default(),
            sample_summary("c.php", FileOutcome::Verified),
        );
        assert!(cache.lookup("a.php", 1, &absent).is_none());
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
            reads in reads(),
        ) {
            let rendered = entry_to_value(&summary.file, key, &reads, &summary).to_json().len();
            prop_assert_eq!(entry_json_len(&summary.file, &reads, &summary), rendered);
        }

        /// Every entry the cache writes reads back as itself.
        #[test]
        fn entries_round_trip(
            summary in summary(),
            key in any::<u64>(),
            reads in reads(),
        ) {
            let value = entry_to_value(&summary.file, key, &reads, &summary);
            let parsed = parse(&value.to_json()).expect("an entry is JSON");
            prop_assert_eq!(entry_from_value(&parsed), Some((key, reads, summary)));
        }
    }

    fn reads() -> BoxedStrategy<EntryReads> {
        let key = prop::option::of(any::<u64>());
        (prop::collection::vec((text(), key.clone()), 0..4), key)
            .prop_map(|(includes, store)| EntryReads {
                includes,
                store: store.map(|digest| StoreRead {
                    digest,
                    set: digest.rotate_left(7),
                }),
            })
            .boxed()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "webssari-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Loads `text` as a cache file: it must read as empty, and the next
    /// save must write a format-2 file that loads back whole.
    fn assert_loads_empty_then_heals(tag: &str, text: &str) {
        let dir = scratch_dir(tag);
        std::fs::write(dir.join(CACHE_FILE_NAME), text).unwrap();
        let cache = Cache::load(&dir, "fp", CacheCaps::unlimited());
        assert!(cache.is_empty(), "{tag}");
        let reads = EntryReads {
            includes: vec![
                ("lib.php".to_owned(), Some(3)),
                ("gone.php".to_owned(), None),
            ],
            store: Some(StoreRead { digest: 5, set: 6 }),
        };
        cache.insert(
            1,
            reads.clone(),
            sample_summary("a.php", FileOutcome::Verified),
        );
        cache.save(&dir).unwrap();
        let saved = std::fs::read_to_string(dir.join(CACHE_FILE_NAME)).unwrap();
        let root = parse(&saved).expect("the rewritten file is JSON");
        assert_eq!(
            root.get("version").and_then(Value::as_u64),
            Some(2),
            "{tag}"
        );
        let reloaded = Cache::load(&dir, "fp", CacheCaps::unlimited());
        assert_eq!(reloaded.len(), 1, "{tag}");
        let current = |name: &str| (name == "lib.php").then_some(3);
        let hit = reloaded
            .lookup("a.php", 1, &current)
            .expect("entry reloads");
        assert_eq!(hit.store, Some(StoreRead { digest: 5, set: 6 }), "{tag}");
        assert!(reloaded.lookup("a.php", 1, &absent).is_none(), "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_format_1_file_loads_as_empty() {
        // Format 1's layout: entries keyed on a hash that folded in the
        // whole source set, with no recorded reads.
        let summary = summary_to_value(&sample_summary("a.php", FileOutcome::Verified));
        let v1 = Value::obj(vec![
            ("version", Value::Num(1)),
            ("fingerprint", Value::str("fp")),
            (
                "entries",
                Value::Arr(vec![Value::obj(vec![
                    ("file", Value::str("a.php")),
                    ("content_key", Value::str(hash::to_hex(1))),
                    ("summary", summary),
                ])]),
            ),
        ]);
        assert_loads_empty_then_heals("format1", &v1.to_json());
    }

    #[test]
    fn a_truncated_format_2_file_loads_as_empty() {
        let full = Cache::new("fp", CacheCaps::unlimited());
        full.insert(
            1,
            EntryReads::default(),
            sample_summary("a.php", FileOutcome::Vulnerable),
        );
        let text = full.to_json();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert_loads_empty_then_heals("truncated", &text[..cut]);
        }
    }

    #[test]
    fn a_non_json_file_loads_as_empty() {
        assert_loads_empty_then_heals("non-json", "{ not json");
    }
}
