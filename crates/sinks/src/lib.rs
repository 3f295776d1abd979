//! Structured SQL sink modeling and the cross-request store summary.
//!
//! The paper's lattice treats every sink as an opaque SOC precondition:
//! `mysql_query($q)` asserts `t_q < τ` no matter *where* in the query
//! tainted data lands. That misses the two largest real-world web
//! vulnerability classes:
//!
//! * **SQL injection depends on structure.** Tainted data bound to a
//!   parameterized position (`?` placeholders) is safe; tainted data
//!   concatenated into the query *text* is the actual SQLI
//!   precondition. [`SqlTemplate`] reconstructs the query template from
//!   the literal/hole structure of the argument expression and
//!   classifies every hole as concatenated-into-text.
//! * **Stored (second-order) taint flows through the database.** An
//!   `INSERT` of tainted data in request A makes the matching `SELECT`
//!   in request B an untrusted input. [`StoreSummary`] is the
//!   cross-file map from store identity (table name, `$_SESSION`, file
//!   path) to the join of every written level, composed over a whole
//!   source set and consumed by the filter when lowering read sites.
//!
//! The crate is deliberately small and front-end-agnostic: templates
//! are generic over the hole type `V` (the IR instantiates `V = VarId`)
//! and the summary speaks plain strings, so it serializes trivially and
//! never depends on the IR.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use taint_lattice::{Elem, Lattice};

// ---------------------------------------------------------------------
// SQL templates
// ---------------------------------------------------------------------

/// The statement class of a reconstructed query template.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SqlStmtKind {
    /// `SELECT …` — a store read.
    Select,
    /// `INSERT …` — a store write.
    Insert,
    /// `UPDATE …` — a store write.
    Update,
    /// `DELETE …` — a store write.
    Delete,
    /// `REPLACE …` — a store write.
    Replace,
    /// Anything else (or a template whose leading keyword is dynamic).
    Other,
}

impl SqlStmtKind {
    /// Whether this statement class writes the store.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            SqlStmtKind::Insert | SqlStmtKind::Update | SqlStmtKind::Delete | SqlStmtKind::Replace
        )
    }

    /// The keyword, for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            SqlStmtKind::Select => "SELECT",
            SqlStmtKind::Insert => "INSERT",
            SqlStmtKind::Update => "UPDATE",
            SqlStmtKind::Delete => "DELETE",
            SqlStmtKind::Replace => "REPLACE",
            SqlStmtKind::Other => "SQL",
        }
    }
}

/// One piece of a query-building expression: a string literal or a
/// *hole* where a non-literal value is concatenated/interpolated in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TplPart<V> {
    /// Literal query text.
    Lit(String),
    /// A concatenated-in value (a variable, for the IR instantiation).
    Hole(V),
}

/// A reconstructed SQL query template: the literal skeleton of the
/// query with every concatenated-in value as a hole.
///
/// ```
/// use webssari_sinks::{SqlStmtKind, SqlTemplate, TplPart};
///
/// let t = SqlTemplate::parse(vec![
///     TplPart::Lit("INSERT INTO guestbook VALUES ('".into()),
///     TplPart::Hole("msg"),
///     TplPart::Lit("')".into()),
/// ]);
/// assert_eq!(t.stmt, SqlStmtKind::Insert);
/// assert_eq!(t.table.as_deref(), Some("guestbook"));
/// assert_eq!(t.holes(), ["msg"]);
/// assert_eq!(t.placeholders, 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlTemplate<V> {
    /// Statement class, from the leading keyword.
    pub stmt: SqlStmtKind,
    /// The table the statement targets (`INTO`/`FROM`/`UPDATE`
    /// operand), `None` when it is itself dynamic.
    pub table: Option<String>,
    /// Number of `?` parameter placeholders in the literal text.
    pub placeholders: usize,
    /// The template in source order.
    pub parts: Vec<TplPart<V>>,
}

impl<V> SqlTemplate<V> {
    /// Analyzes a literal/hole sequence into a template.
    pub fn parse(parts: Vec<TplPart<V>>) -> Self {
        // Tokenize: identifier-ish words from literal parts, one opaque
        // token per hole. `?` placeholders are counted, not tokenized.
        #[derive(PartialEq)]
        enum Tok {
            Word(String),
            Hole,
        }
        let mut toks: Vec<Tok> = Vec::new();
        let mut placeholders = 0usize;
        for p in &parts {
            match p {
                TplPart::Hole(_) => toks.push(Tok::Hole),
                TplPart::Lit(s) => {
                    let mut word = String::new();
                    for c in s.chars() {
                        if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                            word.push(c);
                        } else {
                            if c == '?' {
                                placeholders += 1;
                            }
                            if !word.is_empty() {
                                toks.push(Tok::Word(std::mem::take(&mut word)));
                            }
                        }
                    }
                    if !word.is_empty() {
                        toks.push(Tok::Word(word));
                    }
                }
            }
        }
        let keyword = |t: &Tok, k: &str| matches!(t, Tok::Word(w) if w.eq_ignore_ascii_case(k));
        let stmt = match toks.first() {
            Some(t) if keyword(t, "select") => SqlStmtKind::Select,
            Some(t) if keyword(t, "insert") => SqlStmtKind::Insert,
            Some(t) if keyword(t, "update") => SqlStmtKind::Update,
            Some(t) if keyword(t, "delete") => SqlStmtKind::Delete,
            Some(t) if keyword(t, "replace") => SqlStmtKind::Replace,
            _ => SqlStmtKind::Other,
        };
        // The table operand: the token right after INTO (insert/replace),
        // FROM (select/delete), or the UPDATE keyword itself. A hole in
        // that position means the table identity is dynamic.
        let after = |k: &str| {
            toks.iter()
                .position(|t| keyword(t, k))
                .and_then(|i| toks.get(i + 1))
                .and_then(|t| match t {
                    Tok::Word(w) => Some(w.to_ascii_lowercase()),
                    Tok::Hole => None,
                })
        };
        let table = match stmt {
            SqlStmtKind::Insert | SqlStmtKind::Replace => after("into"),
            SqlStmtKind::Select | SqlStmtKind::Delete => after("from"),
            SqlStmtKind::Update => after("update"),
            SqlStmtKind::Other => None,
        };
        SqlTemplate {
            stmt,
            table,
            placeholders,
            parts,
        }
    }

    /// The holes, in source order: every value concatenated into the
    /// query *text* (the SQLI-relevant positions).
    pub fn holes(&self) -> Vec<V>
    where
        V: Clone,
    {
        self.parts
            .iter()
            .filter_map(|p| match p {
                TplPart::Hole(v) => Some(v.clone()),
                TplPart::Lit(_) => None,
            })
            .collect()
    }

    /// Whether the template resolved to a recognized statement class.
    pub fn is_resolved(&self) -> bool {
        self.stmt != SqlStmtKind::Other
    }

    /// Whether the statement writes a store with a known identity.
    pub fn store_write_key(&self) -> Option<&str> {
        if self.stmt.is_write() {
            self.table.as_deref()
        } else {
            None
        }
    }
}

/// Per-assertion metadata for SQL-structured sink preconditions:
/// everything a report or lint needs to explain *why* the argument is
/// checked structurally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlSinkMeta {
    /// Statement class of the query template.
    pub stmt: SqlStmtKind,
    /// Target table, when its identity is static.
    pub table: Option<String>,
    /// `?` placeholders in the literal text (parameterized positions).
    pub placeholders: usize,
}

// ---------------------------------------------------------------------
// Store summary
// ---------------------------------------------------------------------

/// Prefix of the synthetic IR variables that model store cells
/// (`store::<key>`) and per-site write levels (`store::<key>#w<k>`).
pub const STORE_VAR_PREFIX: &str = "store::";

/// The summary key recording writes whose store identity could not be
/// resolved (a dynamic table name): they may have hit *any* store.
pub const WILDCARD_KEY: &str = "*";

/// The synthetic IR variable holding a store cell's read level.
pub fn store_cell_name(key: &str) -> String {
    format!("{STORE_VAR_PREFIX}{key}")
}

/// The synthetic IR variable capturing the level of one store write.
pub fn store_write_name(key: &str, k: usize) -> String {
    format!("{STORE_VAR_PREFIX}{key}#w{k}")
}

/// Whether an IR variable name is a store *cell* (as opposed to a
/// per-site write variable, which carries a `#` discriminator).
pub fn is_store_cell(name: &str) -> bool {
    name.starts_with(STORE_VAR_PREFIX) && !name.contains('#')
}

/// The cell key of a store cell variable name.
pub fn store_cell_key(name: &str) -> Option<&str> {
    if is_store_cell(name) {
        Some(&name[STORE_VAR_PREFIX.len()..])
    } else {
        None
    }
}

/// One store's accumulated write information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreEntry {
    /// Join of the levels of every value written to this store.
    pub level: Elem,
    /// Human-readable write sites (`file:line — snippet`), for
    /// source-after-sink provenance in reports.
    pub sites: Vec<String>,
}

/// The cross-request store model: store identity → written levels.
///
/// Built in a first pass over every file of a source set, then consumed
/// by the filter when lowering store *reads*: a `SELECT` + fetch of
/// table `t` reads at `read_level("t")`. Missing entries read at `⊤`
/// (the legacy conservative treatment of database input), so an empty
/// summary reproduces the original pipeline exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreSummary {
    entries: BTreeMap<String, StoreEntry>,
}

impl StoreSummary {
    /// An empty summary (every read is `⊤`, the legacy behavior).
    pub fn new() -> Self {
        StoreSummary::default()
    }

    /// Whether no writes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct store identities written.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Records one write of `level` to store `key`.
    pub fn record(&mut self, key: &str, level: Elem, site: &str, lattice: &impl Lattice) {
        match self.entries.get_mut(key) {
            Some(e) => {
                e.level = lattice.join(e.level, level);
                if !e.sites.iter().any(|s| s == site) {
                    e.sites.push(site.to_owned());
                }
            }
            None => {
                self.entries.insert(
                    key.to_owned(),
                    StoreEntry {
                        level,
                        sites: vec![site.to_owned()],
                    },
                );
            }
        }
    }

    /// Merges another summary in (composition across the include graph
    /// / source set: levels join, sites union).
    pub fn merge(&mut self, other: &StoreSummary, lattice: &impl Lattice) {
        for (key, entry) in &other.entries {
            for site in &entry.sites {
                self.record(key, entry.level, site, lattice);
            }
        }
    }

    /// The direct entry for one store identity, if any write resolved
    /// to it.
    pub fn entry(&self, key: &str) -> Option<&StoreEntry> {
        self.entries.get(key)
    }

    /// The level a read of store `key` observes.
    ///
    /// * No direct entry: `⊤` — the store was never modeled as written,
    ///   so its content is untrusted input exactly as the legacy
    ///   pipeline treated every database read. (A wildcard entry does
    ///   not downgrade this: `⊤` already dominates it.)
    /// * A direct entry: its level joined with any wildcard writes,
    ///   which may have targeted this store under a dynamic name.
    pub fn read_level(&self, key: &str, lattice: &impl Lattice) -> Elem {
        match self.entries.get(key) {
            None => lattice.top(),
            Some(e) => {
                let wild = self
                    .entries
                    .get(WILDCARD_KEY)
                    .map(|w| w.level)
                    .unwrap_or_else(|| lattice.bottom());
                lattice.join(e.level, wild)
            }
        }
    }

    /// Write sites feeding a read of `key` (direct + wildcard), for
    /// source-after-sink provenance.
    pub fn provenance(&self, key: &str) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        if let Some(e) = self.entries.get(key) {
            out.extend(e.sites.iter().map(String::as_str));
        }
        if key != WILDCARD_KEY {
            if let Some(w) = self.entries.get(WILDCARD_KEY) {
                out.extend(w.sites.iter().map(String::as_str));
            }
        }
        out
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StoreEntry)> {
        self.entries.iter().map(|(k, e)| (k.as_str(), e))
    }

    /// A 64-bit FNV-1a digest of the whole summary: every key, level
    /// and write site, each string prefixed by its length so that no
    /// two summaries share a byte stream. Equal summaries have equal
    /// digests on every platform and in every run, so a verification
    /// can record which summary it read and a later run can tell
    /// whether it would read the same one.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let fold = |h: u64, bytes: &[u8]| {
            bytes
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
        };
        let text = |h: u64, s: &str| fold(fold(h, &(s.len() as u64).to_le_bytes()), s.as_bytes());
        self.entries.iter().fold(FNV_OFFSET, |h, (key, entry)| {
            let h = fold(text(h, key), &u32::from(entry.level).to_le_bytes());
            let h = fold(h, &(entry.sites.len() as u64).to_le_bytes());
            entry.sites.iter().fold(h, |h, site| text(h, site))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taint_lattice::TwoPoint;

    fn tpl(parts: Vec<TplPart<&'static str>>) -> SqlTemplate<&'static str> {
        SqlTemplate::parse(parts)
    }

    #[test]
    fn insert_with_concat_hole() {
        let t = tpl(vec![
            TplPart::Lit("INSERT INTO tickets_tickets VALUES ('".into()),
            TplPart::Hole("subject"),
            TplPart::Lit("', now())".into()),
        ]);
        assert_eq!(t.stmt, SqlStmtKind::Insert);
        assert!(t.stmt.is_write());
        assert_eq!(t.table.as_deref(), Some("tickets_tickets"));
        assert_eq!(t.store_write_key(), Some("tickets_tickets"));
        assert_eq!(t.holes(), ["subject"]);
        assert_eq!(t.placeholders, 0);
    }

    #[test]
    fn parameterized_query_counts_placeholders() {
        let t = tpl(vec![TplPart::Lit(
            "INSERT INTO guestbook (author, msg) VALUES (?, ?)".into(),
        )]);
        assert_eq!(t.stmt, SqlStmtKind::Insert);
        assert_eq!(t.placeholders, 2);
        assert!(t.holes().is_empty());
    }

    #[test]
    fn select_and_delete_take_table_after_from() {
        let s = tpl(vec![TplPart::Lit("SELECT c FROM t3 WHERE id=1".into())]);
        assert_eq!(s.stmt, SqlStmtKind::Select);
        assert_eq!(s.table.as_deref(), Some("t3"));
        assert_eq!(s.store_write_key(), None, "selects do not write");
        let d = tpl(vec![
            TplPart::Lit("DELETE FROM log WHERE tag=".into()),
            TplPart::Hole("src"),
        ]);
        assert_eq!(d.stmt, SqlStmtKind::Delete);
        assert_eq!(d.store_write_key(), Some("log"));
    }

    #[test]
    fn update_and_replace_tables() {
        let u = tpl(vec![TplPart::Lit("UPDATE users SET name='x'".into())]);
        assert_eq!(u.stmt, SqlStmtKind::Update);
        assert_eq!(u.table.as_deref(), Some("users"));
        let r = tpl(vec![TplPart::Lit("REPLACE INTO cache VALUES (1)".into())]);
        assert_eq!(r.stmt, SqlStmtKind::Replace);
        assert_eq!(r.table.as_deref(), Some("cache"));
    }

    #[test]
    fn keywords_are_case_insensitive_and_tables_lowercased() {
        let t = tpl(vec![TplPart::Lit("insert into GuestBook values(1)".into())]);
        assert_eq!(t.stmt, SqlStmtKind::Insert);
        assert_eq!(t.table.as_deref(), Some("guestbook"));
    }

    #[test]
    fn dynamic_table_is_none() {
        let t = tpl(vec![
            TplPart::Lit("SELECT * FROM ".into()),
            TplPart::Hole("tbl"),
        ]);
        assert_eq!(t.stmt, SqlStmtKind::Select);
        assert_eq!(t.table, None);
        let w = tpl(vec![
            TplPart::Lit("INSERT INTO ".into()),
            TplPart::Hole("tbl"),
            TplPart::Lit(" VALUES (1)".into()),
        ]);
        assert_eq!(w.stmt, SqlStmtKind::Insert);
        assert_eq!(w.store_write_key(), None, "dynamic identity");
    }

    #[test]
    fn non_sql_text_is_other() {
        for text in ["x=", "WHERE sid=", "hello world", ""] {
            let t = tpl(vec![TplPart::Lit(text.into()), TplPart::Hole("v")]);
            assert_eq!(t.stmt, SqlStmtKind::Other, "{text:?}");
            assert!(!t.is_resolved());
            assert_eq!(t.store_write_key(), None);
        }
        let leading_hole = tpl(vec![TplPart::Hole("q")]);
        assert_eq!(leading_hole.stmt, SqlStmtKind::Other);
    }

    #[test]
    fn store_variable_naming_round_trips() {
        let cell = store_cell_name("guestbook");
        assert_eq!(cell, "store::guestbook");
        assert!(is_store_cell(&cell));
        assert_eq!(store_cell_key(&cell), Some("guestbook"));
        let write = store_write_name("guestbook", 2);
        assert_eq!(write, "store::guestbook#w2");
        assert!(!is_store_cell(&write), "write vars are not cells");
        assert_eq!(store_cell_key(&write), None);
        assert!(!is_store_cell("guestbook"));
    }

    #[test]
    fn empty_summary_reads_top_everywhere() {
        let l = TwoPoint::new();
        let s = StoreSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.read_level("anything", &l), l.top());
    }

    #[test]
    fn record_joins_levels_and_collects_sites() {
        let l = TwoPoint::new();
        let mut s = StoreSummary::new();
        s.record("gb", TwoPoint::UNTAINTED, "a.php:3", &l);
        assert_eq!(s.read_level("gb", &l), TwoPoint::UNTAINTED);
        s.record("gb", TwoPoint::TAINTED, "b.php:7", &l);
        assert_eq!(s.read_level("gb", &l), TwoPoint::TAINTED);
        assert_eq!(s.provenance("gb"), ["a.php:3", "b.php:7"]);
        // Unwritten stores still read ⊤ (legacy behavior).
        assert_eq!(s.read_level("other", &l), l.top());
    }

    #[test]
    fn wildcard_joins_into_direct_entries_only() {
        let l = TwoPoint::new();
        let mut s = StoreSummary::new();
        s.record("gb", TwoPoint::UNTAINTED, "a.php:3", &l);
        s.record(WILDCARD_KEY, TwoPoint::TAINTED, "x.php:1", &l);
        // A cleanly-written store is poisoned by a dynamic write…
        assert_eq!(s.read_level("gb", &l), TwoPoint::TAINTED);
        assert_eq!(s.provenance("gb"), ["a.php:3", "x.php:1"]);
        // …and never-written stores were already ⊤.
        assert_eq!(s.read_level("other", &l), l.top());
    }

    #[test]
    fn merge_composes_summaries() {
        let l = TwoPoint::new();
        let mut a = StoreSummary::new();
        a.record("t1", TwoPoint::UNTAINTED, "a.php:1", &l);
        let mut b = StoreSummary::new();
        b.record("t1", TwoPoint::TAINTED, "b.php:2", &l);
        b.record("t2", TwoPoint::UNTAINTED, "b.php:5", &l);
        a.merge(&b, &l);
        assert_eq!(a.len(), 2);
        assert_eq!(a.read_level("t1", &l), TwoPoint::TAINTED);
        assert_eq!(a.read_level("t2", &l), TwoPoint::UNTAINTED);
        assert_eq!(a.provenance("t1"), ["a.php:1", "b.php:2"]);
        // Merge is idempotent: sites dedup, levels are a join.
        let before = a.clone();
        a.merge(&b, &l);
        assert_eq!(a, before);
    }

    #[test]
    fn digest_tells_levels_keys_and_sites_apart() {
        let l = TwoPoint::new();
        let summary = |writes: &[(&str, Elem, &str)]| {
            let mut s = StoreSummary::new();
            for (key, level, site) in writes {
                s.record(key, *level, site, &l);
            }
            s
        };
        let base = summary(&[("t1", TwoPoint::UNTAINTED, "a.php:1")]);
        assert_eq!(base.digest(), base.clone().digest());
        assert_ne!(base.digest(), StoreSummary::new().digest());
        for other in [
            summary(&[("t1", TwoPoint::TAINTED, "a.php:1")]),
            summary(&[("t2", TwoPoint::UNTAINTED, "a.php:1")]),
            summary(&[("t1", TwoPoint::UNTAINTED, "a.php:2")]),
            summary(&[
                ("t1", TwoPoint::UNTAINTED, "a.php:1"),
                ("t1", TwoPoint::UNTAINTED, "b.php:1"),
            ]),
            // The same bytes split differently between key and site.
            summary(&[("t1a", TwoPoint::UNTAINTED, ".php:1")]),
        ] {
            assert_ne!(base.digest(), other.digest(), "{other:?}");
        }
    }
}
