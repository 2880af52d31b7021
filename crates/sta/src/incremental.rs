//! Incremental static timing analysis.
//!
//! [`analyze`](crate::analyze) walks the whole netlist; the
//! parametric-aware selection calls it once per tentative swap, so a
//! selection run on an `n`-gate circuit costs `O(n)` full passes of
//! `O(n)` work each. [`IncrementalSta`] caches the topological order,
//! the per-node delays and arrival times, and the endpoint arrival
//! heap; a swap then only recomputes the **fanout cone** of the touched
//! node, terminating early on every branch whose arrival is unchanged.
//!
//! The recomputation evaluates the *identical* expression `analyze`
//! uses (`fold(0.0, f64::max)` over fan-in arrivals plus the node
//! delay) on the identical operand sets, so arrivals and the clock
//! period match a fresh full pass **bit for bit** — the differential
//! property tests in `crates/sta/tests` assert exactly that.
//!
//! The engine never mutates the [`Netlist`] it watches: swaps are
//! hypothetical delay changes, so a probe (swap, measure, restore)
//! leaves the engine exactly as it found it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sttlock_netlist::{CircuitView, GateKind, Netlist, Node, NodeId};
use sttlock_techlib::Library;

use crate::{node_delay, TimingAnalysis};

/// Local instrumentation tallies, flushed as `sta.*` obs counters when
/// the engine drops. Counting locally keeps the propagation loop free
/// of per-event atomic loads; the flush is three counter calls total.
#[derive(Debug, Default)]
struct ObsStats {
    /// `set_delay` calls whose delay actually changed.
    invalidations: u64,
    /// Fan-out cone nodes re-evaluated across all propagations.
    node_reevals: u64,
    /// Re-evaluations whose arrival was unchanged (wave stopped there).
    early_terminations: u64,
}

impl Drop for ObsStats {
    fn drop(&mut self) {
        if self.invalidations == 0 && self.node_reevals == 0 {
            return;
        }
        sttlock_obs::counter("sta.invalidations", self.invalidations);
        sttlock_obs::counter("sta.node_reevals", self.node_reevals);
        sttlock_obs::counter("sta.early_terminations", self.early_terminations);
    }
}

/// Total-ordered `f64` wrapper so endpoint times can live in a heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incremental STA engine over a fixed netlist structure.
///
/// Construction reuses an existing [`TimingAnalysis`] (see
/// [`from_analysis_with`]); afterwards [`swap_to_lut`]/[`restore_gate`]
/// update only the touched fanout cone and [`clock_period_ns`] answers
/// from the endpoint heap.
///
/// The engine holds the netlist and library by reference and never
/// mutates them.
///
/// [`from_analysis_with`]: IncrementalSta::from_analysis_with
/// [`swap_to_lut`]: IncrementalSta::swap_to_lut
/// [`restore_gate`]: IncrementalSta::restore_gate
/// [`clock_period_ns`]: IncrementalSta::clock_period_ns
#[derive(Debug)]
pub struct IncrementalSta<'a> {
    netlist: &'a Netlist,
    lib: &'a Library,
    /// Cached combinational topological order, shared with the
    /// [`CircuitView`] it came from.
    order: Arc<Vec<NodeId>>,
    /// Node index → position in `order` (`usize::MAX` for non-comb).
    topo_pos: Vec<usize>,
    /// Node index → combinational readers (propagation frontier),
    /// shared with the view.
    comb_fanout: Arc<Vec<Vec<NodeId>>>,
    /// Current hypothetical per-node delay.
    delay: Vec<f64>,
    /// Current arrival times.
    arrival: Vec<f64>,
    /// Endpoint nodes (DFF D pins and primary outputs), dedup'd, and
    /// the setup charge each one pays (`setup_ns` when feeding a DFF).
    endpoints: Vec<NodeId>,
    endpoint_extra: Vec<f64>,
    /// Node index → current endpoint arrival (`NaN` for non-endpoints);
    /// validates heap entries.
    endpoint_time: Vec<f64>,
    /// Lazy max-heap over `(endpoint_time, node)`; stale entries are
    /// discarded on pop by comparing against `endpoint_time`.
    heap: BinaryHeap<(OrdF64, NodeId)>,
    /// Epoch stamps deduplicating pushes within one propagation.
    epoch_mark: Vec<u64>,
    epoch: u64,
    /// Invalidation/re-eval tallies, flushed to obs on drop.
    stats: ObsStats,
}

impl<'a> IncrementalSta<'a> {
    /// Builds the engine from an existing full analysis of the view's
    /// netlist, consuming the view's memoized topological order and
    /// combinational fan-out map instead of constructing duplicates.
    pub fn from_analysis_with(
        view: &CircuitView<'a>,
        lib: &'a Library,
        analysis: &TimingAnalysis,
    ) -> Self {
        let netlist = view.netlist();
        let n = netlist.len();
        let order = view.topo_order_arc();
        let mut topo_pos = vec![usize::MAX; n];
        for (pos, &id) in order.iter().enumerate() {
            topo_pos[id.index()] = pos;
        }
        let comb_fanout = view.comb_fanout_arc();
        let delay: Vec<f64> = (0..n)
            .map(|i| node_delay(netlist, lib, NodeId::from_index(i)))
            .collect();

        let setup = lib.dff().setup_ns;
        let mut endpoint_extra = vec![f64::NAN; n];
        for (_, node) in netlist.iter() {
            if let Node::Dff { d } = node {
                endpoint_extra[d.index()] = setup;
            }
        }
        for &o in netlist.outputs() {
            if endpoint_extra[o.index()].is_nan() {
                endpoint_extra[o.index()] = 0.0;
            }
        }
        let endpoints: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| !endpoint_extra[id.index()].is_nan())
            .collect();

        let mut engine = IncrementalSta {
            netlist,
            lib,
            order,
            topo_pos,
            comb_fanout,
            delay,
            arrival: analysis.arrival.clone(),
            endpoints,
            endpoint_extra,
            endpoint_time: vec![f64::NAN; n],
            heap: BinaryHeap::new(),
            epoch_mark: vec![0; n],
            epoch: 0,
            stats: ObsStats::default(),
        };
        engine.rebuild_endpoint_heap();
        engine
    }

    /// Recomputes every endpoint time from `arrival` and rebuilds the
    /// heap without stale entries.
    fn rebuild_endpoint_heap(&mut self) {
        self.heap.clear();
        for i in 0..self.endpoints.len() {
            let id = self.endpoints[i];
            let t = self.arrival[id.index()] + self.endpoint_extra[id.index()];
            self.endpoint_time[id.index()] = t;
            self.heap.push((OrdF64(t), id));
        }
    }

    /// Hypothetically replaces `id` with an STT LUT of the same fan-in
    /// and propagates the delay change through its fanout cone.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a gate or LUT.
    pub fn swap_to_lut(&mut self, id: NodeId) {
        let fanin = match self.netlist.node(id) {
            Node::Gate { fanin, .. } | Node::Lut { fanin, .. } => fanin.len(),
            other => panic!("swap_to_lut on non-combinational node {other:?}"),
        };
        self.set_delay(id, self.lib.lut(fanin).delay_ns);
    }

    /// Reverts a hypothetical swap: `id` times as a CMOS gate of `kind`
    /// again. `kind` is usually recovered from the original netlist via
    /// [`Node::gate_kind`].
    pub fn restore_gate(&mut self, id: NodeId, kind: GateKind) {
        let fanin = self.netlist.node(id).fanin().len();
        self.set_delay(id, self.lib.gate(kind, fanin).delay_ns);
    }

    /// Current arrival time at `id`'s output, nanoseconds.
    pub fn arrival_ns(&self, id: NodeId) -> f64 {
        self.arrival[id.index()]
    }

    /// The (never mutated) netlist this engine analyzes.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Sets `id`'s hypothetical delay and incrementally repairs the
    /// arrival times of its fanout cone.
    ///
    /// Nodes are pulled off a min-heap keyed by topological position, so
    /// each cone node is visited at most once with all its predecessors
    /// final; a node whose recomputed arrival is bit-identical to the
    /// cached one stops the wave on that branch (early termination).
    fn set_delay(&mut self, id: NodeId, delay_ns: f64) {
        if self.delay[id.index()].to_bits() == delay_ns.to_bits() {
            return;
        }
        self.delay[id.index()] = delay_ns;
        self.stats.invalidations += 1;

        self.epoch += 1;
        let mut frontier: BinaryHeap<Reverse<(usize, NodeId)>> = BinaryHeap::new();
        self.epoch_mark[id.index()] = self.epoch;
        frontier.push(Reverse((self.topo_pos[id.index()], id)));
        while let Some(Reverse((_, nid))) = frontier.pop() {
            self.stats.node_reevals += 1;
            let node = self.netlist.node(nid);
            let input_arrival = node
                .fanin()
                .iter()
                .map(|f| self.arrival[f.index()])
                .fold(0.0f64, f64::max);
            let new_arrival = input_arrival + self.delay[nid.index()];
            if new_arrival.to_bits() == self.arrival[nid.index()].to_bits() {
                self.stats.early_terminations += 1;
                continue; // early termination: this branch is settled
            }
            self.arrival[nid.index()] = new_arrival;
            let extra = self.endpoint_extra[nid.index()];
            if !extra.is_nan() {
                let t = new_arrival + extra;
                self.endpoint_time[nid.index()] = t;
                self.heap.push((OrdF64(t), nid));
            }
            for &r in &self.comb_fanout[nid.index()] {
                if self.epoch_mark[r.index()] != self.epoch {
                    self.epoch_mark[r.index()] = self.epoch;
                    frontier.push(Reverse((self.topo_pos[r.index()], r)));
                }
            }
        }

        // Bound the stale entries the lazy heap accumulates.
        if self.heap.len() > 4 * self.endpoints.len() + 64 {
            self.rebuild_endpoint_heap();
        }
    }

    /// Minimum feasible clock period under the current hypothetical
    /// delays — identical to [`analyze`](crate::analyze) on a netlist
    /// with the same swaps applied.
    ///
    /// Amortized `O(log e)` over the lazy endpoint heap (stale entries
    /// are discarded here).
    pub fn clock_period_ns(&mut self) -> f64 {
        while let Some(&(OrdF64(t), id)) = self.heap.peek() {
            if t.to_bits() == self.endpoint_time[id.index()].to_bits() {
                return t;
            }
            self.heap.pop();
        }
        0.0
    }

    /// Materializes a full [`TimingAnalysis`] (required times, critical
    /// path, worst endpoint) from the cached arrivals — same output as
    /// [`analyze`](crate::analyze) on an equivalently mutated netlist,
    /// without the forward pass.
    pub fn to_analysis(&mut self) -> TimingAnalysis {
        let netlist = self.netlist;
        let n = netlist.len();
        let setup = self.lib.dff().setup_ns;

        // Worst endpoint: replicate analyze()'s scan order (DFF D pins
        // in arena order, then primary outputs) and strict-greater
        // tie-breaking exactly.
        let mut worst: Option<(NodeId, f64)> = None;
        let mut consider = |endpoint: NodeId, t: f64| {
            if worst.is_none_or(|(_, wt)| t > wt) {
                worst = Some((endpoint, t));
            }
        };
        for (_, node) in netlist.iter() {
            if let Node::Dff { d } = node {
                consider(*d, self.arrival[d.index()] + setup);
            }
        }
        for &o in netlist.outputs() {
            consider(o, self.arrival[o.index()]);
        }
        let (worst_endpoint, clock_period_ns) = match worst {
            Some((id, t)) => (Some(id), t),
            None => (None, 0.0),
        };

        let mut required = vec![f64::INFINITY; n];
        for (_, node) in netlist.iter() {
            if let Node::Dff { d } = node {
                let r = clock_period_ns - setup;
                if r < required[d.index()] {
                    required[d.index()] = r;
                }
            }
        }
        for &o in netlist.outputs() {
            if clock_period_ns < required[o.index()] {
                required[o.index()] = clock_period_ns;
            }
        }
        for &id in self.order.iter().rev() {
            let r_here = required[id.index()];
            if !r_here.is_finite() {
                continue;
            }
            let d = self.delay[id.index()];
            for &f in netlist.node(id).fanin() {
                let r_in = r_here - d;
                if r_in < required[f.index()] {
                    required[f.index()] = r_in;
                }
            }
        }
        for r in required.iter_mut() {
            if !r.is_finite() {
                *r = clock_period_ns;
            }
        }

        let mut critical_path = Vec::new();
        if let Some(mut cur) = worst_endpoint {
            loop {
                critical_path.push(cur);
                let node = netlist.node(cur);
                if !node.is_combinational() {
                    break;
                }
                let Some(&prev) = node
                    .fanin()
                    .iter()
                    .max_by(|a, b| self.arrival[a.index()].total_cmp(&self.arrival[b.index()]))
                else {
                    break;
                };
                cur = prev;
            }
            critical_path.reverse();
        }

        TimingAnalysis {
            arrival: self.arrival.clone(),
            required,
            critical_path,
            clock_period_ns,
            worst_endpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use sttlock_netlist::NetlistBuilder;

    fn lib() -> Library {
        Library::predictive_90nm()
    }

    /// An engine seeded from a fresh full analysis.
    fn engine<'a>(n: &'a Netlist, l: &'a Library) -> IncrementalSta<'a> {
        IncrementalSta::from_analysis_with(&CircuitView::new(n), l, &analyze(n, l))
    }

    /// in/c → g1(NAND) → g2(XOR) → ff → g3(OR) → out, plus a side buffer.
    fn circuit() -> Netlist {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Xor, &["g1", "a"]);
        b.dff("ff", "g2");
        b.gate("g3", GateKind::Or, &["ff", "c"]);
        b.gate("side", GateKind::Buf, &["a"]);
        b.output("g3");
        b.output("side");
        b.finish().unwrap()
    }

    #[test]
    fn swap_matches_full_reanalysis_bit_for_bit() {
        let n = circuit();
        let l = lib();
        let mut inc = engine(&n, &l);
        let g1 = n.find("g1").unwrap();

        let mut mutated = n.clone();
        mutated.replace_gate_with_lut(g1).unwrap();
        let full = analyze(&mutated, &l);

        inc.swap_to_lut(g1);
        assert_eq!(
            inc.clock_period_ns().to_bits(),
            full.clock_period_ns().to_bits()
        );
        for (id, _) in n.iter() {
            assert_eq!(
                inc.arrival_ns(id).to_bits(),
                full.arrival_ns(id).to_bits(),
                "arrival mismatch at {}",
                n.node_name(id)
            );
        }
        assert_eq!(inc.to_analysis(), full);
    }

    #[test]
    fn restore_returns_to_baseline_exactly() {
        let n = circuit();
        let l = lib();
        let base = analyze(&n, &l);
        let mut inc = engine(&n, &l);
        let g2 = n.find("g2").unwrap();
        inc.swap_to_lut(g2);
        inc.restore_gate(g2, GateKind::Xor);
        assert_eq!(
            inc.clock_period_ns().to_bits(),
            base.clock_period_ns().to_bits()
        );
        assert_eq!(inc.to_analysis(), base);
    }

    #[test]
    fn off_cone_swap_does_not_disturb_other_arrivals() {
        let n = circuit();
        let l = lib();
        let mut inc = engine(&n, &l);
        let side = n.find("side").unwrap();
        let g3 = n.find("g3").unwrap();
        let before_g3 = inc.arrival_ns(g3);
        inc.swap_to_lut(side);
        assert_eq!(inc.arrival_ns(g3).to_bits(), before_g3.to_bits());
    }

    #[test]
    fn dropping_the_engine_flushes_invalidation_counters_to_obs() {
        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        {
            let n = circuit();
            let l = lib();
            let mut inc = engine(&n, &l);
            let g1 = n.find("g1").unwrap();
            inc.swap_to_lut(g1);
            inc.restore_gate(g1, GateKind::Nand);
            let _ = inc.clock_period_ns();
        }
        sttlock_obs::uninstall();
        // Two delay changes propagated through g1's cone (concurrent
        // tests may add more — the registry is process-global).
        assert!(collector.counter_value("sta.invalidations") >= 2);
        assert!(collector.counter_value("sta.node_reevals") >= 2);
    }

    #[test]
    fn heap_rebuild_keeps_answers_correct() {
        let n = circuit();
        let l = lib();
        let mut inc = engine(&n, &l);
        let g1 = n.find("g1").unwrap();
        // Enough churn to trip the stale-entry rebuild threshold.
        for _ in 0..200 {
            inc.swap_to_lut(g1);
            inc.restore_gate(g1, GateKind::Nand);
        }
        let base = analyze(&n, &l);
        assert_eq!(
            inc.clock_period_ns().to_bits(),
            base.clock_period_ns().to_bits()
        );
    }
}
