//! Symbol table: maps kernel/application "function names" to synthetic instruction
//! pointers.
//!
//! DProf's raw data (access samples and object access histories) record the instruction
//! pointer responsible for each memory access.  In the simulation, workloads annotate
//! every access with the name of the kernel function performing it; the symbol table
//! interns those names and hands out stable [`FunctionId`]s plus fake code addresses so
//! the rest of the pipeline (path traces, data-flow views, OProfile output) can work in
//! terms of instruction pointers exactly as the real tool does.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a function (a synthetic instruction pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// A reserved id meaning "unknown code location".
    pub const UNKNOWN: FunctionId = FunctionId(u32::MAX);

    /// The synthetic code address of this function, in a kernel-text-like range.
    pub fn fake_address(self) -> u64 {
        0xffff_ffff_8100_0000 + (self.0 as u64) * 0x200
    }
}

/// Interns function names and assigns each a [`FunctionId`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    names: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, FunctionId>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (idempotent).
    pub fn intern(&mut self, name: &str) -> FunctionId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = FunctionId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<FunctionId> {
        self.index.get(name).copied()
    }

    /// The name of a function id, or `"<unknown>"`.
    pub fn name(&self, id: FunctionId) -> &str {
        if id == FunctionId::UNKNOWN {
            return "<unknown>";
        }
        self.names
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no symbols have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (FunctionId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("dev_queue_xmit");
        let b = t.intern("dev_queue_xmit");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn names_round_trip() {
        let mut t = SymbolTable::new();
        let a = t.intern("kfree");
        let b = t.intern("pfifo_fast_enqueue");
        assert_eq!(t.name(a), "kfree");
        assert_eq!(t.name(b), "pfifo_fast_enqueue");
        assert_eq!(t.lookup("kfree"), Some(a));
        assert_eq!(t.lookup("nope"), None);
    }

    #[test]
    fn unknown_id_has_placeholder_name() {
        let t = SymbolTable::new();
        assert_eq!(t.name(FunctionId::UNKNOWN), "<unknown>");
        assert_eq!(t.name(FunctionId(42)), "<unknown>");
    }

    #[test]
    fn fake_addresses_are_distinct_and_kernel_like() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a.fake_address(), b.fake_address());
        assert!(a.fake_address() >= 0xffff_ffff_8100_0000);
    }

    #[test]
    fn iter_lists_everything() {
        let mut t = SymbolTable::new();
        t.intern("x");
        t.intern("y");
        let names: Vec<_> = t.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
