//! Shared circuit-analysis facts.
//!
//! Every analysis in the stack — simulation, timing, SAT encoding, path
//! sampling, the selection algorithms, the security estimates — consumes
//! the same handful of graph facts: a topological order, the fan-out map,
//! logic levels, reachability cones. Recomputing them per consumer turns
//! a grid of analyses over one circuit into a grid of O(V+E) passes.
//!
//! The fan-out map and the topological order come from the [`Netlist`]
//! itself: validation builds both to prove acyclicity and keeps them,
//! and every clone shares them. [`CircuitView`] hands those out and
//! computes each other fact at most once, on first use, behind
//! [`OnceLock`] interior mutability, as borrowed references or [`Arc`]
//! handles (for consumers that outlive the view or cross threads). The
//! memoization contract is enforced by the borrow checker: a view holds
//! `&Netlist`, so no mutation entry point of [`Netlist`] (which all take
//! `&mut self`) can run while the view exists. There is no partial
//! invalidation — mutate the netlist, then build a fresh view.
//!
//! Copy-on-write edits that *preserve fan-in wiring* (gate ↔ LUT swaps,
//! LUT reprogramming — everything
//! [`HybridOverlay`](crate::overlay::HybridOverlay) can express) do not
//! change any graph fact computed here, so the graph facts of one view
//! of the base netlist remain valid for every overlay and every
//! materialized variant of it, whose views hand out the base's own
//! fan-out map and order. A [`derived`](CircuitView::derived) fact
//! states its own rule: the simulator's compiled tape, for one, reads
//! gate kinds and so serves only variants that differ in LUT contents.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::graph;
use crate::id::NodeId;
use crate::netlist::Netlist;
use crate::node::Node;
use crate::set::NodeSet;

/// Analysis facts over a borrowed [`Netlist`]: the netlist's own fan-out
/// map and topological order, and memoized levels, output set and
/// derived facts.
///
/// Cheap to construct: nothing is computed until the first query. All
/// getters are `&self`; the view is `Sync`, so analyses on worker threads
/// can share one view of a common base circuit.
#[derive(Debug)]
pub struct CircuitView<'a> {
    netlist: &'a Netlist,
    levels: OnceLock<Arc<Vec<u32>>>,
    output_set: OnceLock<Arc<NodeSet>>,
    derived: Derived,
}

/// The facts downstream crates derive from the view, at most one per
/// type.
#[derive(Default)]
struct Derived(Mutex<Vec<Arc<dyn Any + Send + Sync>>>);

impl Derived {
    /// The list, recovered if a panic poisoned its lock: it is only ever
    /// appended to, so every entry stays valid.
    fn slots(&self) -> MutexGuard<'_, Vec<Arc<dyn Any + Send + Sync>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn find<T: Any + Send + Sync>(slots: &[Arc<dyn Any + Send + Sync>]) -> Option<Arc<T>> {
        slots
            .iter()
            .find_map(|slot| Arc::clone(slot).downcast::<T>().ok())
    }
}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Derived")
    }
}

/// The fan-out map of a netlist, flat: the readers of every node sit
/// back to back in one array, in arena order of the reader, and a
/// second array holds where each node's run starts (compressed sparse
/// rows). A node read twice by one gate lists that gate twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanout {
    /// `start[i]..start[i + 1]` is node `i`'s run in `readers`.
    start: Vec<usize>,
    readers: Vec<NodeId>,
}

impl Fanout {
    /// Counts every node's readers in the arena `nodes`, then places each
    /// reader in its driver's run, visiting readers in arena order.
    pub(crate) fn of(nodes: &[Node]) -> Fanout {
        let n = nodes.len();
        let mut start = vec![0usize; n + 1];
        for node in nodes {
            for &f in node.fanin() {
                start[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start[..n].to_vec();
        let mut readers = vec![NodeId::from_index(0); start[n]];
        for (i, node) in nodes.iter().enumerate() {
            for &f in node.fanin() {
                readers[next[f.index()]] = NodeId::from_index(i);
                next[f.index()] += 1;
            }
        }
        Fanout { start, readers }
    }

    /// Every node that reads `id`, in arena order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the netlist the map was built
    /// from.
    pub fn readers(&self, id: NodeId) -> &[NodeId] {
        &self.readers[self.start[id.index()]..self.start[id.index() + 1]]
    }
}

impl<'a> CircuitView<'a> {
    /// Wraps `netlist` without computing anything yet.
    pub fn new(netlist: &'a Netlist) -> Self {
        CircuitView {
            netlist,
            levels: OnceLock::new(),
            output_set: OnceLock::new(),
            derived: Derived::default(),
        }
    }

    /// The underlying netlist, with the full borrow lifetime.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The fan-out map: [`readers`](Fanout::readers) of a node lists
    /// every node that reads it (combinational readers *and* flip-flop
    /// D pins). It is the netlist's own, built when it was validated.
    pub fn fanout(&self) -> &'a Fanout {
        self.netlist.fanout()
    }

    /// Shared handle to the fan-out map.
    pub fn fanout_arc(&self) -> Arc<Fanout> {
        Arc::clone(self.netlist.fanout())
    }

    /// A topological order of the combinational nodes (gates and LUTs):
    /// every node appears after all of its combinational fan-ins.
    /// Sources (inputs, constants, flip-flops) are not included. It is
    /// the order validation proved acyclicity with.
    pub fn topo_order(&self) -> &'a [NodeId] {
        self.netlist.topo()
    }

    /// Shared handle to the topological order.
    pub fn topo_order_arc(&self) -> Arc<Vec<NodeId>> {
        Arc::clone(self.netlist.topo())
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

    /// A fact a downstream crate derives from this view, memoized once
    /// per type `T`: the first request for `T` runs `init`, and every
    /// request returns that one value. The simulator keeps each
    /// netlist's compiled instruction tape here. `init` runs outside any
    /// lock, so it may query the view; two threads racing on the first
    /// request both compute, and both get the value stored first.
    pub fn derived<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        if let Some(hit) = Derived::find(&self.derived.slots()) {
            return hit;
        }
        let fresh = Arc::new(init());
        let mut slots = self.derived.slots();
        if let Some(hit) = Derived::find(&slots) {
            return hit;
        }
        slots.push(Arc::clone(&fresh) as Arc<dyn Any + Send + Sync>);
        fresh
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
    use crate::overlay::HybridOverlay;

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
    fn clones_hybrids_and_foundry_views_share_the_netlists_wiring() {
        let n = Arc::new(chain());
        let mut overlay = HybridOverlay::new(Arc::clone(&n));
        overlay
            .replace_gate_with_lut(n.find("g2").unwrap())
            .unwrap();
        let hybrid = overlay.materialize();
        let (foundry, _) = hybrid.redact();
        let v = CircuitView::new(&n);
        for other in [(*n).clone(), hybrid, foundry] {
            let w = CircuitView::new(&other);
            assert!(Arc::ptr_eq(&v.fanout_arc(), &w.fanout_arc()));
            assert!(Arc::ptr_eq(&v.topo_order_arc(), &w.topo_order_arc()));
        }
    }

    #[test]
    fn fanout_lists_every_reader_in_arena_order() {
        let n = chain();
        let v = CircuitView::new(&n);
        let id = |name| n.find(name).unwrap();
        // g2 is read only by the DFF q; a is read by g1, then g2.
        assert_eq!(v.fanout().readers(id("g2")), [id("q")]);
        assert_eq!(v.fanout().readers(id("a")), [id("g1"), id("g2")]);
        assert!(v.fanout().readers(id("g3")).is_empty());
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
    fn derived_facts_are_memoized_once_per_type() {
        let n = chain();
        let v = CircuitView::new(&n);
        let mut runs = 0;
        let a = v.derived(|| {
            runs += 1;
            v.topo_order().len()
        });
        let b = v.derived(|| {
            runs += 1;
            0usize
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((*a, runs), (3, 1));
        // Another type gets its own slot.
        assert_eq!(*v.derived(|| "other"), "other");
        assert_eq!(*v.derived::<usize>(|| 9), 3);
    }

    #[test]
    fn view_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<CircuitView<'_>>();
    }
}
