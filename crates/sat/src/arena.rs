//! Flat clause storage: every clause of the solver lives in one
//! contiguous `u32` buffer.
//!
//! The pre-arena solver kept each clause as its own heap `Vec<Lit>`
//! behind a `Vec<ClauseData>`, so touching a clause in the propagation
//! inner loop cost two dependent pointer chases into unrelated cache
//! lines. Here a clause is a two-word header (length + flags, then
//! activity) immediately followed by its literal codes, addressed by a
//! [`ClauseRef`] word offset — the MiniSat memory layout. Reading the
//! header pulls the first literals into cache with it, and walking a
//! clause is a linear scan of the same buffer.
//!
//! Deletion marks the header; [`ClauseArena::compact_into`] rebuilds a
//! dense arena and leaves forwarding references behind so the solver
//! can remap its watcher lists and reason pointers.
//!
//! Binary clauses never live here: the solver keeps them in per-literal
//! implication lists and encodes their reasons as tagged [`ClauseRef`]s
//! (see [`ClauseRef::binary`]), so the arena only ever holds clauses of
//! three or more literals, original and learned.

use cnf::Lit;

/// Words occupied by a clause header: `word0` packs the length and
/// flags (`len << 3 | learnt | deleted << 1 | relocated << 2`) and
/// `word1` holds the activity as `f32` bits — or, after compaction, the
/// forwarding [`ClauseRef`] of a relocated clause.
const HEADER_WORDS: usize = 2;
const LEARNT: u32 = 1;
const DELETED: u32 = 1 << 1;
const RELOCATED: u32 = 1 << 2;
const LEN_SHIFT: u32 = 3;

/// Tag bit marking a [`ClauseRef`] as a binary-clause reason rather
/// than an arena offset. The low 31 bits then hold the *other* literal
/// of the binary clause (the one that forced nothing — the implied
/// literal is always the trail entry whose reason this is).
const BINARY_TAG: u32 = 1 << 31;

/// A clause address: the word offset of its header in the arena, or a
/// tagged binary-clause reason, or the [`ClauseRef::UNDEF`] sentinel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ClauseRef(u32);

impl ClauseRef {
    /// Sentinel for "no clause" (used as the reason of decisions).
    pub(crate) const UNDEF: ClauseRef = ClauseRef(u32::MAX);

    /// Whether this is the [`ClauseRef::UNDEF`] sentinel.
    #[inline]
    pub(crate) fn is_undef(self) -> bool {
        self.0 == u32::MAX
    }

    /// A reason standing for the binary clause `(implied ∨ other)`,
    /// where `implied` is the literal this ref is stored as the reason
    /// of. Only `other` needs encoding.
    #[inline]
    pub(crate) fn binary(other: Lit) -> ClauseRef {
        let code = other.code() as u32;
        debug_assert!(
            code < BINARY_TAG,
            "literal code exceeds binary-reason range"
        );
        ClauseRef(code | BINARY_TAG)
    }

    /// Whether this ref encodes a binary-clause reason. `UNDEF` has the
    /// tag bit set too, so it is excluded explicitly.
    #[inline]
    pub(crate) fn is_binary(self) -> bool {
        self.0 & BINARY_TAG != 0 && self.0 != u32::MAX
    }

    /// The non-implied literal of a binary reason.
    #[inline]
    pub(crate) fn binary_other(self) -> Lit {
        debug_assert!(self.is_binary());
        Lit::from_code((self.0 & !BINARY_TAG) as usize)
    }
}

/// The flat clause buffer. See the module docs for the layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses (headers included).
    wasted: usize,
}

impl ClauseArena {
    /// Appends a clause and returns its address.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit and empty clauses never attach");
        let at = u32::try_from(self.data.len()).expect("clause arena exceeds u32 offsets");
        debug_assert!(
            at & BINARY_TAG == 0,
            "clause arena exceeds binary-tag offset range"
        );
        let header = ((lits.len() as u32) << LEN_SHIFT) | if learnt { LEARNT } else { 0 };
        self.data.reserve(HEADER_WORDS + lits.len());
        self.data.push(header);
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(at)
    }

    #[inline]
    fn header(&self, c: ClauseRef) -> u32 {
        debug_assert!(!c.is_binary() && !c.is_undef());
        self.data[c.0 as usize]
    }

    /// Number of literals in the clause.
    #[inline]
    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        (self.header(c) >> LEN_SHIFT) as usize
    }

    /// Whether the clause was learned during search.
    #[inline]
    pub(crate) fn is_learnt(&self, c: ClauseRef) -> bool {
        self.header(c) & LEARNT != 0
    }

    /// Whether the clause has been deleted (awaiting compaction).
    #[inline]
    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.header(c) & DELETED != 0
    }

    /// The `i`-th literal of the clause.
    #[inline]
    pub(crate) fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[c.0 as usize + HEADER_WORDS + i] as usize)
    }

    /// The clause's literal codes as one mutable slice — the
    /// propagation hot path holds this across a whole clause visit so
    /// the buffer pointer stays in registers instead of being reloaded
    /// per literal.
    #[inline]
    pub(crate) fn lits_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let base = c.0 as usize;
        let len = (self.data[base] >> LEN_SHIFT) as usize;
        let start = base + HEADER_WORDS;
        &mut self.data[start..start + len]
    }

    /// Copies the clause's literals out (cold paths: proof logging).
    pub(crate) fn lits_vec(&self, c: ClauseRef) -> Vec<Lit> {
        (0..self.len(c)).map(|i| self.lit(c, i)).collect()
    }

    /// The clause's activity (meaningful for learnt clauses).
    #[inline]
    pub(crate) fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c.0 as usize + 1])
    }

    /// Sets the clause's activity.
    #[inline]
    pub(crate) fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.data[c.0 as usize + 1] = a.to_bits();
    }

    /// Scales every learnt clause's activity by `factor`.
    pub(crate) fn rescale_activities(&mut self, factor: f32) {
        let mut off = 0;
        while off < self.data.len() {
            let header = self.data[off];
            let len = (header >> LEN_SHIFT) as usize;
            if header & LEARNT != 0 {
                let a = f32::from_bits(self.data[off + 1]) * factor;
                self.data[off + 1] = a.to_bits();
            }
            off += HEADER_WORDS + len;
        }
    }

    /// Marks the clause deleted; the words are reclaimed at the next
    /// [`ClauseArena::compact_into`].
    pub(crate) fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.data[c.0 as usize] |= DELETED;
        self.wasted += HEADER_WORDS + self.len(c);
    }

    /// Words occupied by deleted clauses.
    pub(crate) fn wasted(&self) -> usize {
        self.wasted
    }

    /// Iterates over every clause address in layout order, including
    /// deleted ones (callers filter on [`ClauseArena::is_deleted`]).
    pub(crate) fn refs(&self) -> Refs<'_> {
        Refs {
            arena: self,
            off: 0,
        }
    }

    /// Copies every live clause into a fresh dense arena, leaving a
    /// forwarding reference behind in each relocated header. Query the
    /// old arena with [`ClauseArena::forward`] to remap outstanding
    /// [`ClauseRef`]s, then replace it with the returned arena.
    pub(crate) fn compact_into(&mut self) -> ClauseArena {
        let mut new_data = Vec::with_capacity(self.data.len() - self.wasted);
        let mut off = 0;
        while off < self.data.len() {
            let header = self.data[off];
            let len = (header >> LEN_SHIFT) as usize;
            let total = HEADER_WORDS + len;
            if header & DELETED == 0 {
                let new_ref = new_data.len() as u32;
                new_data.extend_from_slice(&self.data[off..off + total]);
                self.data[off] = header | RELOCATED;
                self.data[off + 1] = new_ref;
            }
            off += total;
        }
        ClauseArena {
            data: new_data,
            wasted: 0,
        }
    }

    /// The clause's address in the compacted arena, or `None` if it was
    /// deleted. Only meaningful after [`ClauseArena::compact_into`].
    pub(crate) fn forward(&self, c: ClauseRef) -> Option<ClauseRef> {
        let header = self.header(c);
        (header & RELOCATED != 0).then(|| ClauseRef(self.data[c.0 as usize + 1]))
    }
}

/// Iterator over clause addresses in layout order.
pub(crate) struct Refs<'a> {
    arena: &'a ClauseArena,
    off: usize,
}

impl Iterator for Refs<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        if self.off >= self.arena.data.len() {
            return None;
        }
        let c = ClauseRef(self.off as u32);
        self.off += HEADER_WORDS + self.arena.len(c);
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn alloc_and_read_back() {
        let mut a = ClauseArena::default();
        let c0 = a.alloc(&[lit(0, true), lit(1, false)], false);
        let c1 = a.alloc(&[lit(2, true), lit(3, true), lit(4, false)], true);
        assert_eq!(a.len(c0), 2);
        assert_eq!(a.len(c1), 3);
        assert!(!a.is_learnt(c0));
        assert!(a.is_learnt(c1));
        assert_eq!(a.lit(c0, 1), lit(1, false));
        assert_eq!(a.lit(c1, 2), lit(4, false));
        assert_eq!(a.refs().collect::<Vec<_>>(), vec![c0, c1]);
    }

    #[test]
    fn swap_and_activity() {
        let mut a = ClauseArena::default();
        let c = a.alloc(&[lit(0, true), lit(1, true), lit(2, true)], true);
        a.lits_mut(c).swap(0, 2);
        assert_eq!(a.lit(c, 0), lit(2, true));
        assert_eq!(a.lit(c, 2), lit(0, true));
        a.set_activity(c, 3.5);
        assert_eq!(a.activity(c), 3.5);
        a.rescale_activities(0.5);
        assert_eq!(a.activity(c), 1.75);
    }

    #[test]
    fn compaction_forwards_live_clauses() {
        let mut a = ClauseArena::default();
        let c0 = a.alloc(&[lit(0, true), lit(1, true)], false);
        let c1 = a.alloc(&[lit(2, true), lit(3, true)], true);
        let c2 = a.alloc(&[lit(4, true), lit(5, true)], true);
        a.delete(c1);
        assert!(a.is_deleted(c1));
        assert!(a.wasted() > 0);
        let new = a.compact_into();
        assert_eq!(a.forward(c1), None);
        let n0 = a.forward(c0).expect("c0 is live");
        let n2 = a.forward(c2).expect("c2 is live");
        assert_eq!(new.lit(n0, 0), lit(0, true));
        assert_eq!(new.lit(n2, 1), lit(5, true));
        assert_eq!(new.refs().count(), 2);
        assert_eq!(new.wasted(), 0);
    }

    #[test]
    fn compaction_preserves_activity() {
        let mut a = ClauseArena::default();
        let c = a.alloc(&[lit(0, true), lit(1, true), lit(2, true)], true);
        a.set_activity(c, 2.5);
        let new = a.compact_into();
        let n = a.forward(c).expect("live");
        assert_eq!(new.activity(n), 2.5);
    }

    #[test]
    fn undef_sentinel() {
        assert!(ClauseRef::UNDEF.is_undef());
        assert!(!ClauseRef::UNDEF.is_binary());
        let mut a = ClauseArena::default();
        let c = a.alloc(&[lit(0, true), lit(1, true)], false);
        assert!(!c.is_undef());
        assert!(!c.is_binary());
    }

    #[test]
    fn binary_refs_round_trip() {
        let l = lit(7, false);
        let r = ClauseRef::binary(l);
        assert!(r.is_binary());
        assert!(!r.is_undef());
        assert_eq!(r.binary_other(), l);
    }
}
