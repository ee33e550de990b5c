//! The two-level interconnect of Figure 4, plus home-bank shortcuts.
//!
//! Clusters connect through per-cluster links into tree concentrators (16
//! clusters per tree), whose roots feed a crossbar onto the L3 banks. The
//! network is unordered, bidirectional, and modeled as two independent
//! directions (request up, reply down) so replies never queue behind
//! requests — the standard two-virtual-network deadlock discipline.
//!
//! On top of the tree, each cluster has a **direct port** to the L3 banks
//! it owns under the static [`BankOwnership`] partition (bank `b` is
//! owned by cluster `b % clusters`): traffic between a cluster and an
//! owned bank skips the shared tree concentrator and pays only the
//! cluster-link and crossbar hops. The route is a pure function of the
//! `(cluster, bank)` pair — never of host configuration — which is what
//! lets the sharded executor service owned-bank transactions inside
//! phase A without touching any shared tree link.

use cohesion_mem::addr::BankOwnership;
use cohesion_sim::ids::{BankId, ClusterId};
use cohesion_sim::link::Link;
use cohesion_sim::Cycle;

use crate::config::NocConfig;

/// The machine interconnect: cluster ⇄ tree ⇄ crossbar ⇄ L3 banks.
#[derive(Debug, Clone)]
pub struct Noc {
    cfg: NocConfig,
    ownership: BankOwnership,
    // Request direction (L2 -> L3).
    up_cluster: Vec<Link>,
    up_tree: Vec<Link>,
    up_bank: Vec<Link>,
    // Reply/probe direction (L3 -> L2).
    down_bank: Vec<Link>,
    down_tree: Vec<Link>,
    down_cluster: Vec<Link>,
}

impl Noc {
    /// Builds the interconnect for `clusters` clusters and `banks` L3 banks.
    pub fn new(cfg: NocConfig, clusters: u32, banks: u32) -> Self {
        let trees = clusters.div_ceil(cfg.clusters_per_tree);
        let mk = |n: u32, lat: Cycle, interval: Cycle| -> Vec<Link> {
            (0..n).map(|_| Link::new(lat, interval)).collect()
        };
        Noc {
            cfg,
            ownership: BankOwnership::new(banks, clusters),
            up_cluster: mk(clusters, cfg.cluster_link_latency, 1),
            up_tree: mk(trees, cfg.tree_latency, cfg.tree_interval),
            up_bank: mk(banks, cfg.xbar_latency, 1),
            down_bank: mk(banks, cfg.xbar_latency, 1),
            down_tree: mk(trees, cfg.tree_latency, cfg.tree_interval),
            down_cluster: mk(clusters, cfg.cluster_link_latency, 1),
        }
    }

    fn tree_of(&self, cluster: ClusterId) -> usize {
        (cluster.0 / self.cfg.clusters_per_tree) as usize
    }

    /// The static cluster-lane ⇄ bank ownership partition.
    pub fn ownership(&self) -> BankOwnership {
        self.ownership
    }

    /// Whether `cluster` reaches `bank` through its direct port (it owns
    /// the bank) rather than the shared tree.
    pub fn is_direct(&self, cluster: ClusterId, bank: BankId) -> bool {
        self.ownership.owns(cluster.0, bank.0)
    }

    /// Sends one request message from `cluster` to `bank`; returns its
    /// arrival cycle. Owned banks are reached through the direct port.
    pub fn request(&mut self, cluster: ClusterId, bank: BankId, now: Cycle) -> Cycle {
        let t = self.up_cluster[cluster.0 as usize].send(now);
        let t = if self.is_direct(cluster, bank) {
            t
        } else {
            let tree = self.tree_of(cluster);
            self.up_tree[tree].send(t)
        };
        self.up_bank[bank.0 as usize].send(t)
    }

    /// Sends one reply/probe message from `bank` to `cluster`; returns its
    /// arrival cycle. Owned banks reply through the direct port.
    pub fn reply(&mut self, bank: BankId, cluster: ClusterId, now: Cycle) -> Cycle {
        let t = self.down_bank[bank.0 as usize].send(now);
        let t = if self.is_direct(cluster, bank) {
            t
        } else {
            let tree = self.tree_of(cluster);
            self.down_tree[tree].send(t)
        };
        self.down_cluster[cluster.0 as usize].send(t)
    }

    /// Unloaded one-way request latency through the shared tree.
    pub fn base_latency(&self) -> Cycle {
        self.cfg.cluster_link_latency + self.cfg.tree_latency + self.cfg.xbar_latency
    }

    /// Unloaded one-way latency through a direct (owned-bank) port.
    pub fn direct_latency(&self) -> Cycle {
        self.cfg.cluster_link_latency + self.cfg.xbar_latency
    }

    /// Splits the interconnect into per-lane views: lane `i` gets its own
    /// cluster links plus the bank links of every bank it owns (in slot
    /// order). Only direct-route traffic flows through a view, so the
    /// shared tree links are untouched — which is exactly why phase A may
    /// use it.
    pub(crate) fn lanes(&mut self) -> Vec<LaneNoc<'_>> {
        let mut out: Vec<LaneNoc<'_>> = self
            .up_cluster
            .iter_mut()
            .zip(self.down_cluster.iter_mut())
            .map(|(up, down)| LaneNoc {
                up_cluster: up,
                down_cluster: down,
                up_bank: Vec::new(),
                down_bank: Vec::new(),
            })
            .collect();
        for (b, l) in self.up_bank.iter_mut().enumerate() {
            out[self.ownership.lane_of(b as u32) as usize].up_bank.push(l);
        }
        for (b, l) in self.down_bank.iter_mut().enumerate() {
            out[self.ownership.lane_of(b as u32) as usize].down_bank.push(l);
        }
        out
    }

    /// Total messages carried in the request direction.
    pub fn requests_sent(&self) -> u64 {
        self.up_cluster.iter().map(Link::sent).sum()
    }

    /// Total messages carried in the reply direction.
    pub fn replies_sent(&self) -> u64 {
        self.down_bank.iter().map(Link::sent).sum()
    }

    /// Per-link message counts for telemetry: every link of both
    /// directions, labeled `"<dir>/<kind>/<index>"` (e.g. `up/tree/0`),
    /// in a fixed deterministic order.
    pub fn link_utilization(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut push = |kind: &str, links: &[Link]| {
            for (i, l) in links.iter().enumerate() {
                out.push((format!("{kind}/{i:03}"), l.sent()));
            }
        };
        push("up/cluster", &self.up_cluster);
        push("up/tree", &self.up_tree);
        push("up/bank", &self.up_bank);
        push("down/bank", &self.down_bank);
        push("down/tree", &self.down_tree);
        push("down/cluster", &self.down_cluster);
        out
    }
}

/// One lane's mutable view of the interconnect: its own cluster links
/// plus the bank links of every bank it owns, in slot order. A send
/// through a view traverses the same links as [`Noc::request`] /
/// [`Noc::reply`] on an owned `(cluster, bank)` pair, so a transaction
/// serviced in phase A leaves exactly the link state a serial replay
/// would have left.
#[derive(Debug)]
pub(crate) struct LaneNoc<'a> {
    up_cluster: &'a mut Link,
    down_cluster: &'a mut Link,
    up_bank: Vec<&'a mut Link>,
    down_bank: Vec<&'a mut Link>,
}

impl LaneNoc<'_> {
    /// Sends one request from this lane's cluster to its owned bank at
    /// `slot`; returns the arrival cycle (mirrors [`Noc::request`] on a
    /// direct route).
    pub(crate) fn request_direct(&mut self, slot: usize, now: Cycle) -> Cycle {
        let t = self.up_cluster.send(now);
        self.up_bank[slot].send(t)
    }

    /// Sends one reply from the owned bank at `slot` back to this lane's
    /// cluster; returns the arrival cycle (mirrors [`Noc::reply`] on a
    /// direct route).
    pub(crate) fn reply_direct(&mut self, slot: usize, now: Cycle) -> Cycle {
        let t = self.down_bank[slot].send(now);
        self.down_cluster.send(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> Noc {
        Noc::new(NocConfig::default(), 32, 8)
    }

    #[test]
    fn unloaded_latency_is_sum_of_hops() {
        let mut n = noc();
        // Cluster 1 does not own bank 0 (owner is cluster 0), so the
        // request rides the shared tree.
        assert!(!n.is_direct(ClusterId(1), BankId(0)));
        let arr = n.request(ClusterId(1), BankId(0), 100);
        assert_eq!(arr, 100 + n.base_latency());
    }

    #[test]
    fn direct_route_skips_the_tree() {
        let mut n = noc();
        // Cluster 0 owns bank 0 under the `bank % clusters` partition.
        assert!(n.is_direct(ClusterId(0), BankId(0)));
        let arr = n.request(ClusterId(0), BankId(0), 100);
        assert_eq!(arr, 100 + n.direct_latency());
        let back = n.reply(BankId(0), ClusterId(0), 100);
        assert_eq!(back, 100 + n.direct_latency());
        // No tree link carried anything.
        for (label, sent) in n.link_utilization() {
            if label.contains("/tree/") {
                assert_eq!(sent, 0, "direct route must not touch {label}");
            }
        }
    }

    #[test]
    fn replies_do_not_contend_with_requests() {
        let mut n = noc();
        let up = n.request(ClusterId(1), BankId(2), 50);
        let down = n.reply(BankId(2), ClusterId(1), 50);
        assert_eq!(up, down, "independent directions, same latency");
    }

    #[test]
    fn tree_concentration_serializes_clusters() {
        let mut n = noc();
        // Clusters 0 and 1 share tree 0; simultaneous sends to unowned
        // banks queue at the root.
        let a = n.request(ClusterId(0), BankId(2), 0);
        let b = n.request(ClusterId(1), BankId(3), 0);
        assert!(b > a, "second message through the shared tree root is later");
        // A cluster on another tree does not queue.
        let c = n.request(ClusterId(16), BankId(4), 0);
        assert_eq!(c, a);
    }

    #[test]
    fn message_counters() {
        let mut n = noc();
        n.request(ClusterId(0), BankId(0), 0);
        n.request(ClusterId(5), BankId(1), 0);
        n.reply(BankId(0), ClusterId(0), 10);
        assert_eq!(n.requests_sent(), 2);
        assert_eq!(n.replies_sent(), 1);
    }

    #[test]
    fn lane_views_match_direct_routes_link_for_link() {
        // Drive one noc through the serial entry points and a clone
        // through per-lane views; every link counter must agree.
        let mut serial = Noc::new(NocConfig::default(), 4, 8);
        let mut laned = serial.clone();
        let own = serial.ownership();
        let mut arrivals = Vec::new();
        for bank in 0..8u32 {
            let cluster = ClusterId(own.lane_of(bank));
            arrivals.push(serial.request(cluster, BankId(bank), 5));
            arrivals.push(serial.reply(BankId(bank), cluster, 9));
        }
        let mut lane_arrivals = Vec::new();
        {
            let mut lanes = laned.lanes();
            for bank in 0..8u32 {
                let lane = &mut lanes[own.lane_of(bank) as usize];
                let slot = own.slot_of(bank);
                lane_arrivals.push(lane.request_direct(slot, 5));
                lane_arrivals.push(lane.reply_direct(slot, 9));
            }
        }
        assert_eq!(arrivals, lane_arrivals);
        assert_eq!(serial.link_utilization(), laned.link_utilization());
    }
}
