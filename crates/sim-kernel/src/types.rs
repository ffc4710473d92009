//! Kernel data-type registry.
//!
//! DProf attributes cache misses to *data types* ("skbuff", "tcp_sock", "size-1024"...).
//! On the real system the type of a dynamically allocated object is recovered from the
//! SLAB pool it was allocated from (§5.2 of the thesis).  The simulated kernel keeps the
//! same information here: every type the kernel allocates is registered with its size
//! and (optionally) named fields, and the allocator records which type each live address
//! range belongs to.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a registered data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TypeId(pub u32);

/// A named field (member) of a type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldInfo {
    /// Field name (e.g. `"len"`, `"queue_mapping"`).
    pub name: String,
    /// Byte offset within the type.
    pub offset: u64,
    /// Field size in bytes.
    pub size: u64,
}

/// Metadata for a registered type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeInfo {
    /// Type id.
    pub id: TypeId,
    /// Type name as it appears in DProf views (e.g. `"skbuff"`, `"size-1024"`).
    pub name: String,
    /// Human-readable description shown in the data-profile tables.
    pub description: String,
    /// Object size in bytes.
    pub size: u64,
    /// Known fields, sorted by offset.  May be empty for opaque payload types.
    pub fields: Vec<FieldInfo>,
}

impl TypeInfo {
    /// The field containing `offset`, if any.
    pub fn field_at(&self, offset: u64) -> Option<&FieldInfo> {
        self.fields
            .iter()
            .find(|f| offset >= f.offset && offset < f.offset + f.size)
    }
}

/// Registry of all kernel data types.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TypeRegistry {
    types: Vec<TypeInfo>,
    #[serde(skip)]
    by_name: HashMap<String, TypeId>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a type (idempotent by name; re-registering returns the existing id).
    pub fn register(&mut self, name: &str, description: &str, size: u64) -> TypeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(TypeInfo {
            id,
            name: name.to_string(),
            description: description.to_string(),
            size,
            fields: Vec::new(),
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Adds a named field to a type.
    pub fn add_field(&mut self, ty: TypeId, name: &str, offset: u64, size: u64) {
        let info = &mut self.types[ty.0 as usize];
        assert!(
            offset + size <= info.size,
            "field {name} [{offset}, {}) exceeds type size {}",
            offset + size,
            info.size
        );
        info.fields.push(FieldInfo {
            name: name.to_string(),
            offset,
            size,
        });
        info.fields.sort_by_key(|f| f.offset);
    }

    /// Looks up a type by name.
    pub fn lookup(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// Metadata for a type id.
    pub fn info(&self, id: TypeId) -> &TypeInfo {
        &self.types[id.0 as usize]
    }

    /// Type name, or `"<unknown>"` for an unregistered id.
    pub fn name(&self, id: TypeId) -> &str {
        self.types
            .get(id.0 as usize)
            .map(|t| t.name.as_str())
            .unwrap_or("<unknown>")
    }

    /// Object size of a type.
    pub fn size(&self, id: TypeId) -> u64 {
        self.types[id.0 as usize].size
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates over all registered types.
    pub fn iter(&self) -> impl Iterator<Item = &TypeInfo> {
        self.types.iter()
    }
}

/// The well-known kernel types used by the memcached and Apache case studies, registered
/// with sizes close to their Linux counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelTypes {
    /// Generic 1 KiB allocation ("size-1024"), used for packet payload.
    pub size_1024: TypeId,
    /// Packet bookkeeping structure.
    pub skbuff: TypeId,
    /// Clone-capable skbuff (used by TCP transmit).
    pub skbuff_fclone: TypeId,
    /// SLAB slab-descriptor bookkeeping structure.
    pub slab: TypeId,
    /// SLAB per-core free-object cache.
    pub array_cache: TypeId,
    /// Network device structure.
    pub net_device: TypeId,
    /// UDP socket structure.
    pub udp_sock: TypeId,
    /// TCP socket structure.
    pub tcp_sock: TypeId,
    /// Process/task structure.
    pub task_struct: TypeId,
    /// Packet-scheduler queue (Qdisc) structure.
    pub qdisc: TypeId,
    /// Event-poll item structure.
    pub epitem: TypeId,
    /// Fast user mutex structure.
    pub futex: TypeId,
}

impl KernelTypes {
    /// Registers all the well-known kernel types and their interesting fields.
    pub fn register(reg: &mut TypeRegistry) -> Self {
        let size_1024 = reg.register("size-1024", "packet payload", 1024);

        let skbuff = reg.register("skbuff", "packet bookkeeping structure", 256);
        reg.add_field(skbuff, "next", 0, 8);
        reg.add_field(skbuff, "len", 24, 4);
        reg.add_field(skbuff, "data_len", 28, 4);
        reg.add_field(skbuff, "queue_mapping", 64, 2);
        reg.add_field(skbuff, "protocol", 66, 2);
        reg.add_field(skbuff, "data", 80, 8);
        reg.add_field(skbuff, "head", 88, 8);
        reg.add_field(skbuff, "dev", 96, 8);
        reg.add_field(skbuff, "dma_addr", 128, 8);
        reg.add_field(skbuff, "users", 136, 4);

        let skbuff_fclone = reg.register("skbuff_fclone", "clone-capable packet bookkeeping", 512);

        let slab = reg.register("slab", "SLAB bookkeeping structure", 256);
        reg.add_field(slab, "inuse", 0, 4);
        reg.add_field(slab, "free", 4, 4);
        reg.add_field(slab, "s_mem", 8, 8);

        let array_cache = reg.register("array-cache", "SLAB per-core bookkeeping structure", 128);
        reg.add_field(array_cache, "avail", 0, 4);
        reg.add_field(array_cache, "limit", 4, 4);
        reg.add_field(array_cache, "entries", 16, 112);

        let net_device = reg.register("net_device", "network device structure", 128);
        reg.add_field(net_device, "flags", 0, 4);
        reg.add_field(net_device, "real_num_tx_queues", 8, 4);
        reg.add_field(net_device, "tx_queue_base", 16, 8);

        let udp_sock = reg.register("udp-sock", "UDP socket structure", 1024);
        reg.add_field(udp_sock, "sk_receive_queue", 0, 24);
        reg.add_field(udp_sock, "sk_wmem_alloc", 64, 8);
        reg.add_field(udp_sock, "sk_rmem_alloc", 72, 8);

        let tcp_sock = reg.register("tcp-sock", "TCP socket structure", 1600);
        reg.add_field(tcp_sock, "sk_state", 0, 4);
        reg.add_field(tcp_sock, "rcv_nxt", 128, 4);
        reg.add_field(tcp_sock, "snd_nxt", 132, 4);
        reg.add_field(tcp_sock, "accept_queue", 256, 24);
        reg.add_field(tcp_sock, "write_queue", 512, 24);

        let task_struct = reg.register("task-struct", "task structure", 2624);
        reg.add_field(task_struct, "state", 0, 8);
        reg.add_field(task_struct, "flags", 16, 4);
        reg.add_field(task_struct, "se_vruntime", 256, 8);

        let qdisc = reg.register("qdisc", "packet scheduler queue", 384);
        reg.add_field(qdisc, "enqueue", 0, 8);
        reg.add_field(qdisc, "dequeue", 8, 8);
        reg.add_field(qdisc, "q_qlen", 64, 4);
        reg.add_field(qdisc, "busylock", 128, 8);

        let epitem = reg.register("epitem", "event poll item", 128);
        let futex = reg.register("futex", "fast user mutex", 64);

        KernelTypes {
            size_1024,
            skbuff,
            skbuff_fclone,
            slab,
            array_cache,
            net_device,
            udp_sock,
            tcp_sock,
            task_struct,
            qdisc,
            epitem,
            futex,
        }
    }

    /// The names of the well-known types, in field order: what a registry must hold for
    /// [`resolve`](KernelTypes::resolve) to succeed, and what replay holds a recorded
    /// type table to.
    pub const NAMES: [&'static str; 12] = [
        "size-1024",
        "skbuff",
        "skbuff_fclone",
        "slab",
        "array-cache",
        "net_device",
        "udp-sock",
        "tcp-sock",
        "task-struct",
        "qdisc",
        "epitem",
        "futex",
    ];

    /// Resolves the well-known types against a registry that already contains them
    /// (e.g. one rebuilt from a recorded trace's type dump).
    ///
    /// # Panics
    /// Panics if any well-known type is missing — a live kernel always registers all of
    /// them before any dump can be taken, so a miss means the registry is not a kernel
    /// registry.  (Replay refuses a trace whose type table lacks one of
    /// [`NAMES`](KernelTypes::NAMES) before it rebuilds a registry from it.)
    pub fn resolve(reg: &TypeRegistry) -> Self {
        let [size_1024, skbuff, skbuff_fclone, slab, array_cache, net_device, udp_sock, tcp_sock, task_struct, qdisc, epitem, futex] =
            Self::NAMES.map(|name| {
                reg.lookup(name)
                    .unwrap_or_else(|| panic!("registry is missing well-known type '{name}'"))
            });
        KernelTypes {
            size_1024,
            skbuff,
            skbuff_fclone,
            slab,
            array_cache,
            net_device,
            udp_sock,
            tcp_sock,
            task_struct,
            qdisc,
            epitem,
            futex,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_by_name() {
        let mut r = TypeRegistry::new();
        let a = r.register("skbuff", "pkt", 256);
        let b = r.register("skbuff", "pkt", 256);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn lookup_and_metadata() {
        let mut r = TypeRegistry::new();
        let id = r.register("tcp-sock", "TCP socket structure", 1600);
        assert_eq!(r.lookup("tcp-sock"), Some(id));
        assert_eq!(r.name(id), "tcp-sock");
        assert_eq!(r.size(id), 1600);
        assert_eq!(r.lookup("nope"), None);
    }

    #[test]
    fn fields_sorted_and_resolvable() {
        let mut r = TypeRegistry::new();
        let id = r.register("t", "", 64);
        r.add_field(id, "b", 32, 8);
        r.add_field(id, "a", 0, 8);
        let info = r.info(id);
        assert_eq!(info.fields[0].name, "a");
        assert_eq!(info.field_at(4).unwrap().name, "a");
        assert_eq!(info.field_at(36).unwrap().name, "b");
        assert!(info.field_at(20).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds type size")]
    fn field_must_fit() {
        let mut r = TypeRegistry::new();
        let id = r.register("t", "", 16);
        r.add_field(id, "too_big", 8, 16);
    }

    #[test]
    fn kernel_types_register_all_paper_types() {
        let mut r = TypeRegistry::new();
        let kt = KernelTypes::register(&mut r);
        for name in [
            "size-1024",
            "skbuff",
            "skbuff_fclone",
            "slab",
            "array-cache",
            "net_device",
            "udp-sock",
            "tcp-sock",
            "task-struct",
        ] {
            assert!(r.lookup(name).is_some(), "missing {name}");
        }
        assert_eq!(r.size(kt.skbuff), 256);
        assert_eq!(r.size(kt.tcp_sock), 1600);
        assert_eq!(r.size(kt.size_1024), 1024);
    }
}
