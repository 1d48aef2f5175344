//! DFSan-style union labels.

use std::collections::HashMap;
use std::fmt;

/// A taint label. `Label(0)` means *untainted*; every other value indexes
/// the [`LabelTable`], exactly like DFSan's 16-bit shadow labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Label(pub u16);

impl Label {
    /// The untainted label.
    pub const CLEAN: Label = Label(0);

    /// Whether this label carries any taint.
    pub fn is_tainted(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[derive(Debug, Clone)]
enum LabelDef {
    Base(String),
    Union(Label, Label),
}

/// The label table: base labels name taint sources; union labels are
/// created on demand and memoized, mirroring DFSan's
/// `dfsan_create_label`/`dfsan_union` design (including the 16-bit
/// capacity limit — on exhaustion unions saturate to a catch-all label
/// rather than failing).
#[derive(Debug, Clone, Default)]
pub struct LabelTable {
    defs: Vec<LabelDef>,
    union_memo: HashMap<(u16, u16), Label>,
    exhausted: Option<Label>,
}

impl LabelTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of labels created (bases + unions).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no label has been created.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    fn push(&mut self, def: LabelDef) -> Label {
        if self.defs.len() >= usize::from(u16::MAX) - 1 {
            // Capacity exhausted: saturate (DFSan aborts here; we degrade
            // gracefully so fuzzing campaigns keep running).
            // One slot is reserved above so this push always fits.
            return *self.exhausted.get_or_insert(Label(u16::MAX));
        }
        self.defs.push(def);
        Label(self.defs.len() as u16)
    }

    /// Create a named base label (a taint source).
    pub fn create_base(&mut self, name: impl Into<String>) -> Label {
        self.push(LabelDef::Base(name.into()))
    }

    /// Union two labels. Commutative, idempotent, memoized; unioning with
    /// [`Label::CLEAN`] is the identity.
    pub fn union(&mut self, a: Label, b: Label) -> Label {
        if a == b || b == Label::CLEAN {
            return a;
        }
        if a == Label::CLEAN {
            return b;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&l) = self.union_memo.get(&key) {
            return l;
        }
        // Subsumption check: if one side already contains the other the
        // union is the larger label.
        if self.contains_label(a, b) {
            self.union_memo.insert(key, a);
            return a;
        }
        if self.contains_label(b, a) {
            self.union_memo.insert(key, b);
            return b;
        }
        let l = self.push(LabelDef::Union(Label(key.0), Label(key.1)));
        self.union_memo.insert(key, l);
        l
    }

    /// Whether `haystack` transitively includes `needle`.
    pub fn contains_label(&self, haystack: Label, needle: Label) -> bool {
        if haystack == needle {
            return true;
        }
        if haystack == Label::CLEAN || needle == Label::CLEAN {
            return needle == Label::CLEAN;
        }
        let mut stack = vec![haystack];
        while let Some(l) = stack.pop() {
            if l == needle {
                return true;
            }
            if let Some(LabelDef::Union(x, y)) = self.defs.get(usize::from(l.0) - 1) {
                stack.push(*x);
                stack.push(*y);
            }
        }
        false
    }

    /// The names of every base label reachable from `label`, sorted and
    /// de-duplicated.
    pub fn base_names(&self, label: Label) -> Vec<&str> {
        let mut names = Vec::new();
        let mut stack = vec![label];
        let mut seen = std::collections::HashSet::new();
        while let Some(l) = stack.pop() {
            if l == Label::CLEAN || !seen.insert(l) {
                continue;
            }
            match self.defs.get(usize::from(l.0) - 1) {
                Some(LabelDef::Base(name)) => names.push(name.as_str()),
                Some(LabelDef::Union(a, b)) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                None => {}
            }
        }
        names.sort_unstable();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_label_is_identity_for_union() {
        let mut t = LabelTable::new();
        let a = t.create_base("a");
        assert_eq!(t.union(a, Label::CLEAN), a);
        assert_eq!(t.union(Label::CLEAN, a), a);
        assert_eq!(t.union(Label::CLEAN, Label::CLEAN), Label::CLEAN);
    }

    #[test]
    fn union_is_commutative_and_memoized() {
        let mut t = LabelTable::new();
        let a = t.create_base("a");
        let b = t.create_base("b");
        let ab = t.union(a, b);
        let ba = t.union(b, a);
        assert_eq!(ab, ba);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn union_is_idempotent() {
        let mut t = LabelTable::new();
        let a = t.create_base("a");
        assert_eq!(t.union(a, a), a);
    }

    #[test]
    fn subsumption_avoids_new_labels() {
        let mut t = LabelTable::new();
        let a = t.create_base("a");
        let b = t.create_base("b");
        let ab = t.union(a, b);
        // (a ∪ b) ∪ a = a ∪ b, no fresh label.
        assert_eq!(t.union(ab, a), ab);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn contains_is_transitive() {
        let mut t = LabelTable::new();
        let a = t.create_base("a");
        let b = t.create_base("b");
        let c = t.create_base("c");
        let ab = t.union(a, b);
        let abc = t.union(ab, c);
        assert!(t.contains_label(abc, a));
        assert!(t.contains_label(abc, c));
        assert!(t.contains_label(abc, ab));
        assert!(!t.contains_label(ab, c));
    }

    #[test]
    fn base_names_are_collected() {
        let mut t = LabelTable::new();
        let a = t.create_base("input[0]");
        let b = t.create_base("input[1]");
        let ab = t.union(a, b);
        assert_eq!(t.base_names(ab), vec!["input[0]", "input[1]"]);
        assert_eq!(t.base_names(Label::CLEAN), Vec::<&str>::new());
    }

    #[test]
    fn join_semilattice_property() {
        // union is associative up to label identity on contained bases.
        let mut t = LabelTable::new();
        let a = t.create_base("a");
        let b = t.create_base("b");
        let c = t.create_base("c");
        let left = {
            let ab = t.union(a, b);
            t.union(ab, c)
        };
        let right = {
            let bc = t.union(b, c);
            t.union(a, bc)
        };
        assert_eq!(t.base_names(left), t.base_names(right));
    }
}
