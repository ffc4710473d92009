//! Network device model: multi-queue NIC, pfifo_fast qdisc, transmit-queue selection.
//!
//! The memcached case study (§6.1) hinges on the IXGBE driver using the kernel's default
//! `skb_tx_hash` queue-selection function, which hashes packet contents onto an
//! arbitrary transmit queue instead of the queue owned by the sending core.  The result
//! is that packet payloads, skbuffs, qdisc state and slab bookkeeping all bounce between
//! cores.  Installing a local-queue selection policy removed the bouncing and improved
//! throughput by 57 %.  [`TxQueuePolicy`] exposes exactly that switch.

use crate::locks::KLock;
use crate::skbuff::Skb;
use serde::{Deserialize, Serialize};
use sim_cache::CoreId;
use std::collections::VecDeque;

/// How `dev_queue_xmit` chooses a transmit queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxQueuePolicy {
    /// The kernel default: hash the packet (flow) onto one of the queues
    /// (`skb_tx_hash`).  With per-core flows this usually picks a *remote* queue.
    HashTxQueue,
    /// The fix from the case study: always use the queue owned by the transmitting
    /// core.
    LocalQueue,
}

impl TxQueuePolicy {
    /// Selects a queue index for a packet transmitted on `core` with flow hash `hash`.
    pub fn select_queue(self, core: CoreId, hash: u64, num_queues: usize) -> usize {
        match self {
            TxQueuePolicy::HashTxQueue => (hash % num_queues as u64) as usize,
            TxQueuePolicy::LocalQueue => core % num_queues,
        }
    }
}

/// One hardware transmit queue and its pfifo_fast qdisc.
#[derive(Debug)]
pub struct TxQueue {
    /// Index of this queue.
    pub index: usize,
    /// The core that services this queue's completions (set up by the IXGBE driver so
    /// each queue interrupts one specific core, as in the evaluation setup).
    pub owner_core: CoreId,
    /// Address of the `qdisc` object for this queue.
    pub qdisc_addr: u64,
    /// The qdisc ("Qdisc lock" in lock-stat output) protecting the queue.
    pub lock: KLock,
    /// Packets queued for transmission.
    pub queue: VecDeque<Skb>,
    /// Packets transmitted and awaiting a completion interrupt.
    pub completed: VecDeque<Skb>,
    /// Total packets ever enqueued.
    pub enqueued: u64,
    /// Total packets ever transmitted.
    pub transmitted: u64,
}

impl TxQueue {
    /// Creates a queue whose qdisc object lives at `qdisc_addr`.
    pub fn new(index: usize, owner_core: CoreId, qdisc_addr: u64) -> Self {
        TxQueue {
            index,
            owner_core,
            qdisc_addr,
            // The busylock field of the qdisc is the contended lock word.
            lock: KLock::new("Qdisc lock", qdisc_addr + 128),
            queue: VecDeque::new(),
            completed: VecDeque::new(),
            enqueued: 0,
            transmitted: 0,
        }
    }

    /// Current qdisc backlog.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

/// The simulated multi-queue network device.
#[derive(Debug)]
pub struct NetDevice {
    /// Address of the `net_device` structure (shared, read by every transmitting core
    /// and written on statistics updates, so it bounces).
    pub dev_addr: u64,
    /// Transmit queues, one per core in the evaluation configuration.
    pub tx_queues: Vec<TxQueue>,
    /// Queue-selection policy.
    pub policy: TxQueuePolicy,
    /// Packets received (for statistics).
    pub rx_packets: u64,
    /// Packets transmitted (for statistics).
    pub tx_packets: u64,
}

impl NetDevice {
    /// Creates a device with `num_queues` queues; queue *i* is owned by core *i*.
    pub fn new(
        dev_addr: u64,
        num_queues: usize,
        qdisc_addrs: Vec<u64>,
        policy: TxQueuePolicy,
    ) -> Self {
        assert_eq!(qdisc_addrs.len(), num_queues);
        NetDevice {
            dev_addr,
            tx_queues: qdisc_addrs
                .into_iter()
                .enumerate()
                .map(|(i, addr)| TxQueue::new(i, i, addr))
                .collect(),
            policy,
            rx_packets: 0,
            tx_packets: 0,
        }
    }

    /// Number of transmit queues.
    pub fn num_queues(&self) -> usize {
        self.tx_queues.len()
    }

    /// Total packets currently sitting in qdiscs.
    pub fn total_backlog(&self) -> usize {
        self.tx_queues.iter().map(|q| q.backlog()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_policy_always_selects_own_queue() {
        let p = TxQueuePolicy::LocalQueue;
        for core in 0..16 {
            for hash in [0u64, 1, 0xdead_beef, u64::MAX] {
                assert_eq!(p.select_queue(core, hash, 16), core);
            }
        }
    }

    #[test]
    fn hash_policy_spreads_across_queues() {
        let p = TxQueuePolicy::HashTxQueue;
        let mut seen = std::collections::HashSet::new();
        for hash in 0..64u64 {
            seen.insert(p.select_queue(0, hash, 16));
        }
        assert!(
            seen.len() > 8,
            "hashing should spread over many queues, got {}",
            seen.len()
        );
    }

    #[test]
    fn hash_policy_mostly_remote_for_per_core_flows() {
        // With one flow per core (the memcached setup), the chance the hash lands on
        // the local queue is ~1/16.
        let p = TxQueuePolicy::HashTxQueue;
        let mut remote = 0;
        let n = 1000u64;
        for flow in 0..n {
            let core = (flow % 16) as usize;
            let hash = crate::skbuff::Skb::flow_hash(0x10_0000 + flow * 1024, 1024, flow);
            if p.select_queue(core, hash, 16) != core {
                remote += 1;
            }
        }
        assert!(
            remote as f64 / n as f64 > 0.8,
            "remote fraction {}",
            remote as f64 / n as f64
        );
    }

    #[test]
    fn device_queue_setup() {
        let d = NetDevice::new(
            0x8000,
            4,
            vec![0x9000, 0x9400, 0x9800, 0x9c00],
            TxQueuePolicy::LocalQueue,
        );
        assert_eq!(d.num_queues(), 4);
        assert_eq!(d.tx_queues[2].owner_core, 2);
        assert_eq!(d.total_backlog(), 0);
        assert_eq!(d.tx_queues[1].lock.name, "Qdisc lock");
    }
}
