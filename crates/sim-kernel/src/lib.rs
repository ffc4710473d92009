//! # sim-kernel
//!
//! A simulated Linux-like kernel substrate: the data structures, allocator, network
//! stack paths and locks that the DProf evaluation (memcached and Apache on a 16-core
//! machine) exercises.
//!
//! The crate provides:
//!
//! * a [`types::TypeRegistry`] of kernel data types (skbuff, tcp_sock, size-1024, ...)
//!   with sizes and named fields,
//! * a typed SLAB [`allocator::SlabAllocator`] with per-core caches, alien frees and an
//!   **address set** log — DProf's address-to-type resolver,
//! * the page-indexed [`addr_index::AddrIndex`] every "which object holds this address"
//!   question is put to,
//! * lock-stat-instrumented spinlocks ([`locks::KLock`]),
//! * a multi-queue NIC with pfifo_fast qdiscs and the hash-vs-local transmit-queue
//!   selection switch at the heart of the memcached case study
//!   ([`netdev::TxQueuePolicy`]),
//! * UDP and TCP socket paths, epoll wake-ups, futexes and task switching
//!   ([`kernel::KernelState`]),
//!
//! all of which issue their memory accesses through a [`sim_machine::Machine`] under the
//! kernel function names that appear in the thesis' tables, so profilers observe
//! recognisable behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr_index;
pub mod allocator;
pub mod kernel;
pub mod locks;
pub mod netdev;
pub mod skbuff;
pub mod sockets;
pub mod types;

pub use addr_index::AddrIndex;
pub use allocator::{
    AddressHistory, AllocRecord, AllocStats, ProfileHook, ProfileRequest, ProfiledObject,
    RemapTarget, ResolvedAddr, SlabAllocator,
};
pub use kernel::{KernelConfig, KernelState, KernelSymbols};
pub use locks::{by_wait_then_name, lock_report, KLock, LockReportRow, LockStats};
pub use netdev::{NetDevice, TxQueue, TxQueuePolicy};
pub use skbuff::Skb;
pub use sockets::{EventPoll, FutexQueue, TcpConnection, TcpListener, UdpSocket};
pub use types::{FieldInfo, KernelTypes, TypeId, TypeInfo, TypeRegistry};
