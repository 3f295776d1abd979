use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned program variable in the information-flow model.
///
/// Every PHP variable that survives filtering — including synthesized
/// ones for unfolded function parameters and return values — gets a
/// dense id usable as an array index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `VarId` from an index previously obtained with
    /// [`VarId::index`].
    pub fn from_index(index: usize) -> Self {
        VarId(u32::try_from(index).expect("variable index overflows u32"))
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Interns variable names to [`VarId`]s and back.
///
/// Each name is stored once, shared by both directions, so cloning a
/// table copies no text.
///
/// # Examples
///
/// ```
/// use webssari_ir::VarTable;
///
/// let mut t = VarTable::new();
/// let sid = t.intern("sid");
/// assert_eq!(t.intern("sid"), sid);
/// assert_eq!(t.name(sid), "sid");
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, VarId>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = VarId(u32::try_from(self.names.len()).expect("too many variables"));
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.ids.get(name).copied()
    }

    /// The name of an interned variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variables are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all ids in interning order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len()).map(|i| VarId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = VarTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_without_interning() {
        let mut t = VarTable::new();
        assert_eq!(t.lookup("x"), None);
        let x = t.intern("x");
        assert_eq!(t.lookup("x"), Some(x));
    }

    #[test]
    fn names_round_trip() {
        let mut t = VarTable::new();
        let id = t.intern("query");
        assert_eq!(t.name(id), "query");
    }

    #[test]
    fn iter_in_order() {
        let mut t = VarTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn var_id_index_round_trip() {
        let id = VarId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "v7");
    }
}
