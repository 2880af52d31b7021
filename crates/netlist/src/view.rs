//! Shared, lazily memoized circuit-analysis facts.
//!
//! Every analysis in the stack — simulation, timing, SAT encoding, path
//! sampling, the selection algorithms, the security estimates — consumes
//! the same handful of graph facts: a topological order, the fan-out map,
//! logic levels, reachability cones. Recomputing them per consumer turns
//! a grid of analyses over one circuit into a grid of O(V+E) passes.
//!
//! [`CircuitView`] computes each fact at most once, on first use, behind
//! [`OnceLock`] interior mutability, and hands out either borrowed slices
//! or [`Arc`] handles (for consumers that outlive the view or cross
//! threads). The memoization contract is enforced by the borrow checker:
//! a view holds `&Netlist`, so no mutation entry point of [`Netlist`]
//! (which all take `&mut self`) can run while the view exists. There is
//! no partial invalidation — mutate the netlist, then build a fresh view.
//!
//! Copy-on-write edits that *preserve fan-in wiring* (gate ↔ LUT swaps,
//! LUT reprogramming — everything
//! [`HybridOverlay`](crate::overlay::HybridOverlay) can express) do not
//! change any fact computed here, so one view of the base netlist remains
//! valid for every overlay and every materialized variant of it.

use std::sync::{Arc, OnceLock};

use crate::graph;
use crate::id::NodeId;
use crate::netlist::Netlist;
use crate::set::NodeSet;

/// Memoized analysis facts over a borrowed [`Netlist`].
///
/// Cheap to construct: nothing is computed until the first query. All
/// getters are `&self`; the view is `Sync`, so analyses on worker threads
/// can share one view of a common base circuit.
#[derive(Debug)]
pub struct CircuitView<'a> {
    netlist: &'a Netlist,
    fanout: OnceLock<Arc<Vec<Vec<NodeId>>>>,
    comb_fanout: OnceLock<Arc<Vec<Vec<NodeId>>>>,
    topo: OnceLock<Arc<Vec<NodeId>>>,
    levels: OnceLock<Arc<Vec<u32>>>,
    output_set: OnceLock<Arc<NodeSet>>,
}

impl<'a> CircuitView<'a> {
    /// Wraps `netlist` without computing anything yet.
    pub fn new(netlist: &'a Netlist) -> Self {
        CircuitView {
            netlist,
            fanout: OnceLock::new(),
            comb_fanout: OnceLock::new(),
            topo: OnceLock::new(),
            levels: OnceLock::new(),
            output_set: OnceLock::new(),
        }
    }

    /// The underlying netlist, with the full borrow lifetime.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    fn fanout_handle(&self) -> &Arc<Vec<Vec<NodeId>>> {
        self.fanout
            .get_or_init(|| Arc::new(graph::fanout_map(self.netlist)))
    }

    /// The fan-out map: `fanout()[i]` lists every reader of node `i`
    /// (combinational readers *and* flip-flop D pins).
    pub fn fanout(&self) -> &[Vec<NodeId>] {
        self.fanout_handle()
    }

    /// Shared handle to the fan-out map.
    pub fn fanout_arc(&self) -> Arc<Vec<Vec<NodeId>>> {
        Arc::clone(self.fanout_handle())
    }

    fn comb_fanout_handle(&self) -> &Arc<Vec<Vec<NodeId>>> {
        self.comb_fanout.get_or_init(|| {
            let filtered = self
                .fanout()
                .iter()
                .map(|readers| {
                    readers
                        .iter()
                        .copied()
                        .filter(|&r| self.netlist.node(r).is_combinational())
                        .collect()
                })
                .collect();
            Arc::new(filtered)
        })
    }

    /// The fan-out map restricted to combinational readers — the
    /// propagation frontier of incremental timing.
    pub fn comb_fanout(&self) -> &[Vec<NodeId>] {
        self.comb_fanout_handle()
    }

    /// Shared handle to the combinational fan-out map.
    pub fn comb_fanout_arc(&self) -> Arc<Vec<Vec<NodeId>>> {
        Arc::clone(self.comb_fanout_handle())
    }

    fn topo_handle(&self) -> &Arc<Vec<NodeId>> {
        self.topo
            .get_or_init(|| Arc::new(graph::topo_order_with(self.netlist, self.fanout())))
    }

    /// A topological order of the combinational nodes (gates and LUTs):
    /// every node appears after all of its combinational fan-ins.
    /// Sources (inputs, constants, flip-flops) are not included.
    pub fn topo_order(&self) -> &[NodeId] {
        self.topo_handle()
    }

    /// Shared handle to the topological order.
    pub fn topo_order_arc(&self) -> Arc<Vec<NodeId>> {
        Arc::clone(self.topo_handle())
    }

    /// Logic level per node: sources are level 0; a combinational node
    /// is one more than its deepest combinational fan-in.
    pub fn levels(&self) -> &[u32] {
        self.levels
            .get_or_init(|| Arc::new(graph::levels_with(self.netlist, self.topo_order())))
    }

    /// The maximum logic level (0 for purely sequential wiring).
    pub fn comb_depth(&self) -> u32 {
        self.levels().iter().copied().max().unwrap_or(0)
    }

    /// Membership set of the primary-output driver nodes.
    pub fn output_set(&self) -> &NodeSet {
        self.output_set
            .get_or_init(|| Arc::new(self.netlist.outputs().iter().copied().collect()))
    }

    /// The transitive fan-in cone of `roots`, crossing flip-flops if
    /// `cross_dffs` is set; the roots included. (Fan-in walks need no
    /// memoized map.)
    pub fn fanin_cone(&self, roots: &[NodeId], cross_dffs: bool) -> Vec<NodeId> {
        graph::fanin_cone(self.netlist, roots, cross_dffs)
    }

    /// The transitive fan-out cone of `roots`, crossing flip-flops if
    /// `cross_dffs` is set; the roots included, and uncrossed flip-flops
    /// recorded as the boundary.
    pub fn fanout_cone(&self, roots: &[NodeId], cross_dffs: bool) -> Vec<NodeId> {
        graph::fanout_cone_with(self.netlist, self.fanout(), roots, cross_dffs)
    }

    /// Whether `target` is combinationally reachable from `from` (never
    /// crossing flip-flops).
    pub fn comb_reachable(&self, from: NodeId, target: NodeId) -> bool {
        graph::comb_reachable_with(self.netlist, self.fanout(), from, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::node::GateKind;

    fn chain() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        b.input("a");
        b.input("b");
        b.gate("g1", GateKind::Not, &["a"]);
        b.gate("g2", GateKind::And, &["g1", "a"]);
        b.dff("q", "g2");
        b.gate("g3", GateKind::Or, &["q", "b"]);
        b.output("g3");
        b.finish().unwrap()
    }

    #[test]
    fn memoized_handles_are_shared() {
        let n = chain();
        let v = CircuitView::new(&n);
        let a = v.topo_order_arc();
        let b = v.topo_order_arc();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&v.fanout_arc(), &v.fanout_arc()));
    }

    #[test]
    fn comb_fanout_drops_dff_readers() {
        let n = chain();
        let v = CircuitView::new(&n);
        let g2 = n.find("g2").unwrap();
        // g2 is read only by the DFF q — its combinational fan-out is empty.
        assert!(v.comb_fanout()[g2.index()].is_empty());
        assert_eq!(v.fanout()[g2.index()], vec![n.find("q").unwrap()]);
    }

    #[test]
    fn output_set_matches_outputs() {
        let n = chain();
        let v = CircuitView::new(&n);
        for &o in n.outputs() {
            assert!(v.output_set().contains(o));
        }
        assert!(!v.output_set().contains(n.find("g1").unwrap()));
    }

    #[test]
    fn view_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<CircuitView<'_>>();
    }
}
