//! Graph algorithms over the combinational core of a [`Netlist`]: the
//! workers behind [`CircuitView`](crate::view::CircuitView), which
//! memoizes their answers and is the only way to reach them.
//!
//! The sequential netlist is treated as a DAG whose sources are primary
//! inputs, constants and flip-flop outputs, and whose sinks are primary
//! outputs and flip-flop D pins. All selection algorithms and analyses
//! (timing, power, simulation) are built on the orders and maps computed
//! here.

use std::collections::VecDeque;

use crate::id::NodeId;
use crate::netlist::Netlist;
use crate::view::Fanout;

/// A topological order of the combinational nodes (gates and LUTs) such
/// that every node appears after all of its combinational fan-ins, given
/// the fan-out map (Kahn's algorithm, first in first out, seeded in arena
/// order).
///
/// Sources (inputs, constants, flip-flops) are not included; they may be
/// treated as level 0.
///
/// # Errors
///
/// On a combinational cycle, the first combinational node in arena order
/// that lies on a cycle or behind one.
pub(crate) fn topo_order(netlist: &Netlist, fanout: &Fanout) -> Result<Vec<NodeId>, NodeId> {
    let n = netlist.len();
    let mut indeg = vec![0u32; n];
    for (id, node) in netlist.iter() {
        if node.is_combinational() {
            indeg[id.index()] = node
                .fanin()
                .iter()
                .filter(|f| netlist.node(**f).is_combinational())
                .count() as u32;
        }
    }
    let mut queue: VecDeque<NodeId> = netlist
        .iter()
        .filter(|(id, node)| node.is_combinational() && indeg[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for &o in fanout.readers(id) {
            if !netlist.node(o).is_combinational() {
                continue;
            }
            indeg[o.index()] -= 1;
            if indeg[o.index()] == 0 {
                queue.push_back(o);
            }
        }
    }
    // Every combinational node whose in-degree reached zero was ordered;
    // one that kept an unordered fan-in sits on or behind a cycle.
    match netlist
        .iter()
        .find(|(id, node)| node.is_combinational() && indeg[id.index()] > 0)
    {
        Some((on, _)) => Err(on),
        None => Ok(order),
    }
}

/// Logic level of every node, given a topological order: sources are
/// level 0; a combinational node is one more than its deepest
/// combinational fan-in.
pub(crate) fn levels_with(netlist: &Netlist, topo: &[NodeId]) -> Vec<u32> {
    let mut level = vec![0u32; netlist.len()];
    for &id in topo {
        let node = netlist.node(id);
        let deepest = node
            .fanin()
            .iter()
            .map(|f| {
                if netlist.node(*f).is_combinational() {
                    level[f.index()]
                } else {
                    0
                }
            })
            .max()
            .unwrap_or(0);
        level[id.index()] = deepest + 1;
    }
    level
}

/// The transitive fan-in cone of `roots`, crossing flip-flops if
/// `cross_dffs` is set. The result includes the roots themselves.
pub(crate) fn fanin_cone(netlist: &Netlist, roots: &[NodeId], cross_dffs: bool) -> Vec<NodeId> {
    let mut seen = vec![false; netlist.len()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        cone.push(id);
        let node = netlist.node(id);
        if node.is_dff() && !cross_dffs {
            continue;
        }
        stack.extend_from_slice(node.fanin());
    }
    cone.sort_unstable();
    cone
}

/// The transitive fan-out cone of `roots` over the fan-out map, crossing
/// flip-flops if `cross_dffs` is set. The result includes the roots
/// themselves.
pub(crate) fn fanout_cone_with(
    netlist: &Netlist,
    fanout: &Fanout,
    roots: &[NodeId],
    cross_dffs: bool,
) -> Vec<NodeId> {
    let mut seen = vec![false; netlist.len()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        cone.push(id);
        for &o in fanout.readers(id) {
            if netlist.node(o).is_dff() && !cross_dffs {
                // Record the flip-flop as a cone boundary but do not cross.
                if !seen[o.index()] {
                    seen[o.index()] = true;
                    cone.push(o);
                }
                continue;
            }
            stack.push(o);
        }
    }
    cone.sort_unstable();
    cone
}

/// Whether `target` is combinationally reachable from `from` over the
/// fan-out map (never crossing flip-flops). Used to check the "dependent"
/// property: a missing gate drives another missing gate through pure
/// logic.
pub(crate) fn comb_reachable_with(
    netlist: &Netlist,
    fanout: &Fanout,
    from: NodeId,
    target: NodeId,
) -> bool {
    if from == target {
        return true;
    }
    let mut seen = vec![false; netlist.len()];
    let mut stack = vec![from];
    while let Some(id) = stack.pop() {
        if seen[id.index()] {
            continue;
        }
        seen[id.index()] = true;
        for &o in fanout.readers(id) {
            if o == target {
                return true;
            }
            if netlist.node(o).is_combinational() {
                stack.push(o);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::node::GateKind;
    use crate::view::CircuitView;

    /// a ─┬─ g1(NOT) ── g2(AND) ── q(DFF) ── g3(OR) ── out
    ///    └────────────────┘                    │
    /// b ───────────────────────────────────────┘
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
    fn topo_respects_dependencies() {
        let n = chain();
        let view = CircuitView::new(&n);
        let order = view.topo_order();
        assert_eq!(order.len(), 3);
        let pos = |name: &str| order.iter().position(|&x| x == n.find(name).unwrap());
        assert!(pos("g1").unwrap() < pos("g2").unwrap());
        // g3 is in another segment; only relative comb deps matter.
        assert!(pos("g3").is_some());
    }

    #[test]
    fn levels_count_comb_depth() {
        let n = chain();
        let view = CircuitView::new(&n);
        let lv = view.levels();
        assert_eq!(lv[n.find("g1").unwrap().index()], 1);
        assert_eq!(lv[n.find("g2").unwrap().index()], 2);
        assert_eq!(lv[n.find("g3").unwrap().index()], 1); // restarts after DFF
        assert_eq!(view.comb_depth(), 2);
    }

    #[test]
    fn topo_order_names_a_cycle_node() {
        let n = chain();
        let order = topo_order(&n, &Fanout::of(&n)).unwrap();
        assert_eq!(order.len(), 3);
        // Rewiring g1 to read g2 closes the loop g1 -> g2 -> g1: the
        // order names g1, the first node on it, not a partial order.
        let mut n2 = chain();
        let g1 = n2.find("g1").unwrap();
        let g2 = n2.find("g2").unwrap();
        n2.set_node(
            g1,
            crate::node::Node::Gate {
                kind: GateKind::Not,
                fanin: vec![g2],
            },
        );
        assert_eq!(topo_order(&n2, &Fanout::of(&n2)), Err(g1));
    }

    #[test]
    fn fanin_cone_stops_at_dff() {
        let n = chain();
        let g3 = n.find("g3").unwrap();
        let cone = fanin_cone(&n, &[g3], false);
        assert!(cone.contains(&n.find("q").unwrap()));
        assert!(!cone.contains(&n.find("g2").unwrap()));
        let cone_cross = fanin_cone(&n, &[g3], true);
        assert!(cone_cross.contains(&n.find("g2").unwrap()));
        assert!(cone_cross.contains(&n.find("a").unwrap()));
    }

    #[test]
    fn fanout_cone_boundary() {
        let n = chain();
        let g2 = n.find("g2").unwrap();
        let view = CircuitView::new(&n);
        let cone = view.fanout_cone(&[g2], false);
        assert!(cone.contains(&n.find("q").unwrap())); // boundary recorded
        assert!(!cone.contains(&n.find("g3").unwrap())); // not crossed
        let cone_cross = view.fanout_cone(&[g2], true);
        assert!(cone_cross.contains(&n.find("g3").unwrap()));
    }

    #[test]
    fn comb_reachability() {
        let n = chain();
        let g1 = n.find("g1").unwrap();
        let g2 = n.find("g2").unwrap();
        let g3 = n.find("g3").unwrap();
        let view = CircuitView::new(&n);
        assert!(view.comb_reachable(g1, g2));
        assert!(!view.comb_reachable(g1, g3)); // blocked by the DFF
        assert!(view.comb_reachable(g3, g3)); // trivially
    }
}
