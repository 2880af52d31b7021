use std::collections::HashMap;
use std::fmt;
use std::ops;
use std::sync::Arc;

use crate::error::NetlistError;
use crate::graph;
use crate::id::NodeId;
use crate::node::{GateKind, Node};
use crate::truth::{TruthTable, MAX_LUT_INPUTS};
use crate::view::Fanout;

/// A validated gate-level netlist.
///
/// Nodes live in an arena indexed by [`NodeId`]; every node drives exactly
/// one net, named after the node. The structure is guaranteed acyclic in
/// its combinational core (every feedback loop passes through a
/// [`Node::Dff`]), all fan-in references resolve, and all gate arities are
/// legal.
///
/// Construct one with [`NetlistBuilder`], the parsers in
/// [`bench_format`](crate::bench_format) and [`verilog`](crate::verilog),
/// or from nodes already wired by id with [`Netlist::from_nodes`].
///
/// Validation proves acyclicity by building the fan-out map and a
/// topological order, and the netlist keeps both: every
/// [`CircuitView`](crate::view::CircuitView) of it, and of every clone,
/// hands out those two, shared. Only [`rewire_lut`](Netlist::rewire_lut)
/// changes a fan-in, and it keeps the pair its own re-check builds; the
/// other edits change neither fan-ins nor which nodes are
/// combinational, so the pair stays true. Equality and `Debug` ignore
/// the pair, which the nodes determine.
///
/// # Example
///
/// ```
/// use sttlock_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), sttlock_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("counter_bit");
/// b.input("en");
/// b.gate("next", GateKind::Xor, &["en", "state"]);
/// b.dff("state", "next"); // feedback is fine: the loop crosses a DFF
/// b.output("state");
/// let n = b.finish()?;
/// assert_eq!(n.dff_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    names: Vec<String>,
    name_index: HashMap<String, NodeId>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    fanout: Arc<Fanout>,
    topo: Arc<Vec<NodeId>>,
}

/// A netlist's kept wiring facts: its fan-out map and topological order.
type Wiring = (Arc<Fanout>, Arc<Vec<NodeId>>);

/// The wiring facts of the arena `nodes`, or the first node on or behind
/// a combinational cycle.
fn wiring(nodes: &[Node]) -> Result<Wiring, NodeId> {
    let fanout = Fanout::of(nodes);
    let topo = graph::topo_order(nodes, &fanout)?;
    Ok((Arc::new(fanout), Arc::new(topo)))
}

impl Netlist {
    /// Builds a netlist from nodes whose fan-ins are already ids: entry
    /// `i` of `nodes` is the node with id `i` and its name, and `outputs`
    /// lists the primary-output drivers in declaration order. The primary
    /// inputs are the [`Node::Input`]s in arena order. Every netlist,
    /// [`NetlistBuilder::finish`]'s included, is checked here.
    ///
    /// # Errors
    ///
    /// Returns the first of: a duplicate name
    /// ([`NetlistError::DuplicateName`]); then, node by node, an illegal
    /// gate arity, an over-wide LUT, a LUT table whose width disagrees
    /// with its fan-in, or a fan-in id out of range (an
    /// [`NetlistError::UnresolvedName`] naming the id); an output id out
    /// of range ([`NetlistError::UnknownOutput`]); or a combinational
    /// cycle.
    pub fn from_nodes(
        name: impl Into<String>,
        nodes: Vec<(String, Node)>,
        outputs: Vec<NodeId>,
    ) -> Result<Netlist, NetlistError> {
        let (names, nodes): (Vec<String>, Vec<Node>) = nodes.into_iter().unzip();
        let name_index = index_names(&names)?;
        Netlist::validated(name.into(), nodes, names, name_index, outputs)
    }

    /// The rules every netlist keeps, checked over resolved nodes whose
    /// names are already indexed without duplicates.
    fn validated(
        name: String,
        nodes: Vec<Node>,
        names: Vec<String>,
        name_index: HashMap<String, NodeId>,
        outputs: Vec<NodeId>,
    ) -> Result<Netlist, NetlistError> {
        let mut inputs = Vec::new();
        for (i, (node, name)) in nodes.iter().zip(&names).enumerate() {
            match node {
                Node::Input => inputs.push(NodeId::from_index(i)),
                Node::Gate { kind, fanin } if !kind.arity_ok(fanin.len()) => {
                    return Err(NetlistError::BadArity {
                        name: name.clone(),
                        kind: kind.to_string(),
                        fanin: fanin.len(),
                    });
                }
                Node::Lut { fanin, .. } if fanin.len() > MAX_LUT_INPUTS => {
                    return Err(NetlistError::LutTooWide {
                        name: name.clone(),
                        fanin: fanin.len(),
                    });
                }
                Node::Lut {
                    fanin,
                    config: Some(t),
                } if t.inputs() != fanin.len() => {
                    return Err(NetlistError::ConfigWidthMismatch {
                        name: name.clone(),
                        config_inputs: t.inputs(),
                        fanin: fanin.len(),
                    });
                }
                _ => {}
            }
            if let Some(f) = node.fanin().iter().find(|f| f.index() >= nodes.len()) {
                return Err(NetlistError::UnresolvedName {
                    name: f.to_string(),
                    referenced_by: name.clone(),
                });
            }
        }
        if let Some(o) = outputs.iter().find(|o| o.index() >= nodes.len()) {
            return Err(NetlistError::UnknownOutput {
                name: o.to_string(),
            });
        }
        let (fanout, topo) = wiring(&nodes).map_err(|on| cycle_through(&names, on))?;
        Ok(Netlist {
            name,
            nodes,
            names,
            name_index,
            inputs,
            outputs,
            fanout,
            topo,
        })
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (inputs, constants, gates, flip-flops, LUTs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The net/node name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Iterates over `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// All node ids in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs (ids of the driving nodes), in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of combinational cells — gates plus LUTs, excluding
    /// flip-flops, matching the "size" column of Table I in the paper.
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_combinational()).count()
    }

    /// Number of D flip-flops.
    pub fn dff_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_dff()).count()
    }

    /// Number of reconfigurable LUTs ("missing gates").
    pub fn lut_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_lut()).count()
    }

    /// The first redacted (unprogrammed) LUT in arena order, if any.
    ///
    /// The two-valued engines reject netlists with missing functions;
    /// they share this scan instead of each rolling their own.
    pub fn first_unprogrammed_lut(&self) -> Option<NodeId> {
        self.iter()
            .find(|(_, node)| matches!(node, Node::Lut { config: None, .. }))
            .map(|(id, _)| id)
    }

    /// The fan-out map validation built, shared by every clone.
    pub(crate) fn fanout(&self) -> &Arc<Fanout> {
        &self.fanout
    }

    /// The topological order validation built, shared by every clone.
    pub(crate) fn topo(&self) -> &Arc<Vec<NodeId>> {
        &self.topo
    }

    /// Overwrites the node stored at `id`. Only for
    /// [`HybridOverlay`](crate::overlay::HybridOverlay) materialization,
    /// whose replacements keep the node's fan-ins and whether it is
    /// combinational, so acyclicity and the kept wiring facts hold.
    pub(crate) fn set_node(&mut self, id: NodeId, node: Node) {
        let old = &self.nodes[id.index()];
        debug_assert!(
            old.fanin() == node.fanin() && old.is_combinational() == node.is_combinational(),
            "set_node must keep node {id}'s fan-ins and whether it is combinational"
        );
        self.nodes[id.index()] = node;
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats {
            name: self.name.clone(),
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            ..NetlistStats::default()
        };
        for node in &self.nodes {
            match node {
                Node::Input => {}
                Node::Const(_) => s.constants += 1,
                Node::Dff { .. } => s.dffs += 1,
                Node::Lut { fanin, .. } => {
                    s.luts += 1;
                    s.max_fanin = s.max_fanin.max(fanin.len());
                }
                Node::Gate { fanin, .. } => {
                    s.gates += 1;
                    s.max_fanin = s.max_fanin.max(fanin.len());
                }
            }
        }
        s
    }

    /// Replaces the standard cell at `id` with an equivalent programmed
    /// STT-LUT, preserving the fan-in wiring. Returns the truth table it
    /// was programmed with.
    ///
    /// This is the elementary step of all three selection algorithms.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::LutTooWide`] if the gate fan-in exceeds the
    /// LUT capacity.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a [`Node::Gate`].
    pub fn replace_gate_with_lut(&mut self, id: NodeId) -> Result<TruthTable, NetlistError> {
        let (kind, fanin) = match &self.nodes[id.index()] {
            Node::Gate { kind, fanin } => (*kind, fanin.clone()),
            other => panic!("replace_gate_with_lut: node {id} is {other:?}, not a gate"),
        };
        if fanin.len() > MAX_LUT_INPUTS {
            return Err(NetlistError::LutTooWide {
                name: self.node_name(id).to_owned(),
                fanin: fanin.len(),
            });
        }
        let config = TruthTable::from_gate(kind, fanin.len());
        self.nodes[id.index()] = Node::Lut {
            fanin,
            config: Some(config),
        };
        Ok(config)
    }

    /// Reverts a LUT back into a standard cell of the given kind,
    /// preserving the fan-in wiring — the inverse of
    /// [`replace_gate_with_lut`](Netlist::replace_gate_with_lut). Used by
    /// the parametric-aware selection's retry loop to undo tentative
    /// replacements that violated timing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a LUT or the kind's arity does not fit the
    /// existing fan-in.
    pub fn restore_lut_to_gate(&mut self, id: NodeId, kind: GateKind) {
        let fanin = match &self.nodes[id.index()] {
            Node::Lut { fanin, .. } => fanin.clone(),
            other => panic!("restore_lut_to_gate: node {id} is {other:?}, not a LUT"),
        };
        assert!(
            kind.arity_ok(fanin.len()),
            "{kind} cannot take the LUT's fan-in {}",
            fanin.len()
        );
        self.nodes[id.index()] = Node::Gate { kind, fanin };
    }

    /// The programmed configuration of the LUT at `id`, if any.
    ///
    /// Returns `None` both for non-LUT nodes and for redacted LUTs.
    pub fn lut_config(&self, id: NodeId) -> Option<TruthTable> {
        match self.node(id) {
            Node::Lut { config, .. } => *config,
            _ => None,
        }
    }

    /// Programs (or reprograms) the LUT at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a LUT or if the table fan-in does not match
    /// the LUT fan-in.
    pub fn set_lut_config(&mut self, id: NodeId, table: TruthTable) {
        match &mut self.nodes[id.index()] {
            Node::Lut { fanin, config } => {
                assert_eq!(
                    table.inputs(),
                    fanin.len(),
                    "truth table fan-in must match LUT fan-in"
                );
                *config = Some(table);
            }
            other => panic!("set_lut_config: node {id} is {other:?}, not a LUT"),
        }
    }

    /// Produces the *foundry view* of a hybrid netlist: every LUT
    /// configuration is stripped, and the bitstream (the secret the design
    /// house retains) is returned alongside.
    ///
    /// The redacted netlist is what the paper's attackers operate on.
    pub fn redact(&self) -> (Netlist, Vec<(NodeId, TruthTable)>) {
        let mut stripped = self.clone();
        let mut bitstream = Vec::new();
        for i in 0..stripped.nodes.len() {
            if let Node::Lut { config, .. } = &mut stripped.nodes[i] {
                if let Some(t) = config.take() {
                    bitstream.push((NodeId::from_index(i), t));
                }
            }
        }
        (stripped, bitstream)
    }

    /// Programs a redacted netlist from a bitstream, undoing
    /// [`redact`](Netlist::redact).
    ///
    /// # Panics
    ///
    /// Panics if an id is not a LUT or a table width mismatches.
    pub fn program(&mut self, bitstream: &[(NodeId, TruthTable)]) {
        for &(id, table) in bitstream {
            self.set_lut_config(id, table);
        }
    }

    /// Rewrites the LUT at `id` to the given fan-in and configuration.
    ///
    /// Used by the complex-function merging countermeasure (Section IV-A.3)
    /// where a LUT absorbs neighbouring logic or gains decoy inputs. The
    /// caller must keep the netlist acyclic; this is re-checked here, and
    /// an accepted rewire keeps the fan-out map and topological order the
    /// check built. A rejected one leaves the node and both facts as they
    /// were.
    ///
    /// # Errors
    ///
    /// Returns an error if the new fan-in is too wide, a fan-in id is out
    /// of range, or the rewrite would create a combinational cycle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a LUT.
    pub fn rewire_lut(
        &mut self,
        id: NodeId,
        fanin: Vec<NodeId>,
        config: Option<TruthTable>,
    ) -> Result<(), NetlistError> {
        if fanin.len() > MAX_LUT_INPUTS {
            return Err(NetlistError::LutTooWide {
                name: self.node_name(id).to_owned(),
                fanin: fanin.len(),
            });
        }
        for &f in &fanin {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::UnresolvedName {
                    name: f.to_string(),
                    referenced_by: self.node_name(id).to_owned(),
                });
            }
        }
        if let Some(t) = config {
            assert_eq!(t.inputs(), fanin.len(), "config width must match fan-in");
        }
        let old = std::mem::replace(&mut self.nodes[id.index()], Node::Lut { fanin, config });
        assert!(old.is_lut(), "rewire_lut: node {id} was {old:?}, not a LUT");
        match wiring(&self.nodes) {
            Ok((fanout, topo)) => {
                self.fanout = fanout;
                self.topo = topo;
                Ok(())
            }
            Err(on) => {
                self.nodes[id.index()] = old;
                Err(cycle_through(&self.names, on))
            }
        }
    }

    /// Verifies that the combinational core is acyclic, from the nodes
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] naming a node on a
    /// cycle if one exists.
    pub fn check_acyclic(&self) -> Result<(), NetlistError> {
        wiring(&self.nodes)
            .map(drop)
            .map_err(|on| cycle_through(&self.names, on))
    }
}

/// The error naming `on`, a node on or behind a combinational cycle.
fn cycle_through(names: &[String], on: NodeId) -> NetlistError {
    NetlistError::CombinationalCycle {
        on: names[on.index()].clone(),
    }
}

impl PartialEq for Netlist {
    /// Compares what defines the netlist; the kept wiring facts follow
    /// from its nodes.
    fn eq(&self, other: &Netlist) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.names == other.names
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl Eq for Netlist {}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Netlist")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("names", &self.names)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish_non_exhaustive()
    }
}

impl ops::Index<NodeId> for Netlist {
    type Output = Node;
    fn index(&self, id: NodeId) -> &Node {
        self.node(id)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "{}: {} PI, {} PO, {} gates, {} DFF, {} LUT",
            self.name, s.inputs, s.outputs, s.gates, s.dffs, s.luts
        )
    }
}

/// Summary statistics of a [`Netlist`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistStats {
    /// Design name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Standard-cell count (combinational gates, excluding LUTs and DFFs).
    pub gates: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Reconfigurable LUT count.
    pub luts: usize,
    /// Constant driver count.
    pub constants: usize,
    /// Largest combinational fan-in.
    pub max_fanin: usize,
}

impl NetlistStats {
    /// Gates plus LUTs — the "size" column of the paper's Table I.
    pub fn size(&self) -> usize {
        self.gates + self.luts
    }
}

#[derive(Debug, Clone)]
enum Decl {
    Input,
    Const(bool),
    Gate(GateKind, Vec<String>),
    Dff(String),
    Lut(Vec<String>, Option<TruthTable>),
}

/// Name-resolving builder for [`Netlist`].
///
/// Declarations may reference signals defined later (forward references)
/// and flip-flops may close feedback loops; everything is resolved and
/// validated in [`finish`](NetlistBuilder::finish).
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    decls: Vec<(String, Decl)>,
    outputs: Vec<String>,
    seen: HashMap<String, usize>,
}

impl NetlistBuilder {
    /// Creates a builder for a design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            decls: Vec::new(),
            outputs: Vec::new(),
            seen: HashMap::new(),
        }
    }

    fn declare(&mut self, name: &str, decl: Decl) -> &mut Self {
        self.seen.insert(name.to_owned(), self.decls.len());
        self.decls.push((name.to_owned(), decl));
        self
    }

    /// Declares a primary input named `name`.
    pub fn input(&mut self, name: &str) -> &mut Self {
        self.declare(name, Decl::Input)
    }

    /// Declares a constant driver named `name`.
    pub fn constant(&mut self, name: &str, value: bool) -> &mut Self {
        self.declare(name, Decl::Const(value))
    }

    /// Declares a gate `name = kind(fanin...)`.
    pub fn gate(&mut self, name: &str, kind: GateKind, fanin: &[&str]) -> &mut Self {
        self.declare(
            name,
            Decl::Gate(kind, fanin.iter().map(|s| (*s).to_owned()).collect()),
        )
    }

    /// Declares a D flip-flop `name = DFF(d)`.
    pub fn dff(&mut self, name: &str, d: &str) -> &mut Self {
        self.declare(name, Decl::Dff(d.to_owned()))
    }

    /// Declares a reconfigurable LUT with an optional programmed table.
    pub fn lut(&mut self, name: &str, fanin: &[&str], config: Option<TruthTable>) -> &mut Self {
        self.declare(
            name,
            Decl::Lut(fanin.iter().map(|s| (*s).to_owned()).collect(), config),
        )
    }

    /// Marks the signal `name` as a primary output.
    pub fn output(&mut self, name: &str) -> &mut Self {
        self.outputs.push(name.to_owned());
        self
    }

    /// Whether a signal called `name` has been declared.
    pub fn contains(&self, name: &str) -> bool {
        self.seen.contains_key(name)
    }

    /// Number of declarations so far.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Whether no signal has been declared yet.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Resolves names and produces the final [`Netlist`], validated by
    /// [`Netlist::from_nodes`]'s rules.
    ///
    /// # Errors
    ///
    /// Returns the first of: duplicate definitions, unresolved references
    /// (node by node), unknown outputs, then what
    /// [`Netlist::from_nodes`] rejects: illegal arities, over-wide LUTs
    /// or tables, or a combinational cycle.
    pub fn finish(&self) -> Result<Netlist, NetlistError> {
        let name_index = index_names(self.decls.iter().map(|(name, _)| name))?;
        let resolve = |referenced_by: &str, name: &str| -> Result<NodeId, NetlistError> {
            name_index
                .get(name)
                .copied()
                .ok_or_else(|| NetlistError::UnresolvedName {
                    name: name.to_owned(),
                    referenced_by: referenced_by.to_owned(),
                })
        };
        let resolve_all = |referenced_by: &str, names: &[String]| {
            names
                .iter()
                .map(|f| resolve(referenced_by, f))
                .collect::<Result<Vec<_>, _>>()
        };

        let mut nodes = Vec::with_capacity(self.decls.len());
        let mut names = Vec::with_capacity(self.decls.len());
        for (name, decl) in &self.decls {
            nodes.push(match decl {
                Decl::Input => Node::Input,
                Decl::Const(v) => Node::Const(*v),
                Decl::Gate(kind, fanin) => Node::Gate {
                    kind: *kind,
                    fanin: resolve_all(name, fanin)?,
                },
                Decl::Dff(d) => Node::Dff {
                    d: resolve(name, d)?,
                },
                Decl::Lut(fanin, config) => Node::Lut {
                    fanin: resolve_all(name, fanin)?,
                    config: *config,
                },
            });
            names.push(name.clone());
        }
        let outputs = self
            .outputs
            .iter()
            .map(|out| {
                name_index
                    .get(out)
                    .copied()
                    .ok_or_else(|| NetlistError::UnknownOutput { name: out.clone() })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Netlist::validated(self.name.clone(), nodes, names, name_index, outputs)
    }
}

/// Maps each name to its arena id.
///
/// # Errors
///
/// [`NetlistError::DuplicateName`] for the first name seen twice.
fn index_names<'n>(
    names: impl IntoIterator<Item = &'n String>,
) -> Result<HashMap<String, NodeId>, NetlistError> {
    let names = names.into_iter();
    let mut index = HashMap::with_capacity(names.size_hint().0);
    for (i, name) in names.enumerate() {
        if index.insert(name.clone(), NodeId::from_index(i)).is_some() {
            return Err(NetlistError::DuplicateName { name: name.clone() });
        }
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        b.input("a");
        b.input("b");
        b.gate("g1", GateKind::Nand, &["a", "b"]);
        b.dff("q", "g1");
        b.gate("g2", GateKind::Xor, &["q", "a"]);
        b.output("g2");
        b.finish().expect("toy netlist is valid")
    }

    #[test]
    fn builds_and_counts() {
        let n = toy();
        assert_eq!(n.len(), 5);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.dff_count(), 1);
        assert_eq!(n.lut_count(), 0);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.node_name(n.outputs()[0]), "g2");
        assert_eq!(n.stats().size(), 2);
    }

    #[test]
    fn find_by_name() {
        let n = toy();
        let g1 = n.find("g1").unwrap();
        assert_eq!(n.node(g1).gate_kind(), Some(GateKind::Nand));
        assert!(n.find("nope").is_none());
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = NetlistBuilder::new("fwd");
        b.input("a");
        b.gate("g1", GateKind::Not, &["g2"]); // g2 defined later
        b.gate("g2", GateKind::Buf, &["a"]);
        b.output("g1");
        let n = b.finish().unwrap();
        assert_eq!(n.gate_count(), 2);
    }

    #[test]
    fn dff_feedback_is_legal() {
        let mut b = NetlistBuilder::new("fb");
        b.input("en");
        b.gate("next", GateKind::Xor, &["en", "state"]);
        b.dff("state", "next");
        b.output("state");
        assert!(b.finish().is_ok());
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut b = NetlistBuilder::new("cyc");
        b.input("a");
        b.gate("g1", GateKind::And, &["a", "g2"]);
        b.gate("g2", GateKind::Or, &["g1", "a"]);
        b.output("g2");
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let mut b = NetlistBuilder::new("dup");
        b.input("a");
        b.input("a");
        assert_eq!(
            b.finish(),
            Err(NetlistError::DuplicateName { name: "a".into() })
        );
    }

    #[test]
    fn unresolved_reference_is_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a");
        b.gate("g", GateKind::And, &["a", "ghost"]);
        b.output("g");
        assert!(matches!(
            b.finish(),
            Err(NetlistError::UnresolvedName { ref name, .. }) if name == "ghost"
        ));
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a");
        b.gate("g", GateKind::Not, &["a", "a"]);
        b.output("g");
        assert!(matches!(b.finish(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn unknown_output_is_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a");
        b.output("ghost");
        assert_eq!(
            b.finish(),
            Err(NetlistError::UnknownOutput {
                name: "ghost".into()
            })
        );
    }

    #[test]
    fn mismatched_lut_config_width_is_rejected() {
        let mut b = NetlistBuilder::new("bad");
        b.input("a");
        b.input("b");
        b.lut("g", &["a", "b"], Some(TruthTable::new(3, 0x96)));
        b.output("g");
        assert_eq!(
            b.finish(),
            Err(NetlistError::ConfigWidthMismatch {
                name: "g".into(),
                config_inputs: 3,
                fanin: 2,
            })
        );
    }

    /// `toy()`'s nodes wired by id: a, b, g1 = NAND(a, b), q = DFF(g1),
    /// g2 = XOR(q, a).
    fn toy_nodes() -> Vec<(String, Node)> {
        let id = NodeId::from_index;
        vec![
            ("a".into(), Node::Input),
            ("b".into(), Node::Input),
            (
                "g1".into(),
                Node::Gate {
                    kind: GateKind::Nand,
                    fanin: vec![id(0), id(1)],
                },
            ),
            ("q".into(), Node::Dff { d: id(2) }),
            (
                "g2".into(),
                Node::Gate {
                    kind: GateKind::Xor,
                    fanin: vec![id(3), id(0)],
                },
            ),
        ]
    }

    #[test]
    fn from_nodes_builds_what_the_builder_builds() {
        let n = Netlist::from_nodes("toy", toy_nodes(), vec![NodeId::from_index(4)]).unwrap();
        assert_eq!(n, toy());
        assert_eq!(n.find("g1"), Some(NodeId::from_index(2)));
    }

    #[test]
    fn from_nodes_rejects_what_finish_rejects() {
        let id = NodeId::from_index;
        let out = vec![id(4)];
        let with = |i: usize, name: &str, node: Node| {
            let mut nodes = toy_nodes();
            nodes[i] = (name.into(), node);
            nodes
        };
        let check = |nodes: Vec<(String, Node)>, outputs: Vec<NodeId>| {
            Netlist::from_nodes("bad", nodes, outputs).unwrap_err()
        };
        assert_eq!(
            check(with(1, "a", Node::Input), out.clone()),
            NetlistError::DuplicateName { name: "a".into() }
        );
        let ghost = Node::Dff { d: id(9) };
        assert_eq!(
            check(with(3, "q", ghost), out.clone()),
            NetlistError::UnresolvedName {
                name: "n9".into(),
                referenced_by: "q".into(),
            }
        );
        let unary_and = Node::Gate {
            kind: GateKind::And,
            fanin: vec![id(0)],
        };
        assert!(matches!(
            check(with(2, "g1", unary_and), out.clone()),
            NetlistError::BadArity { .. }
        ));
        let wide = Node::Lut {
            fanin: vec![id(0); MAX_LUT_INPUTS + 1],
            config: None,
        };
        assert!(matches!(
            check(with(2, "g1", wide), out.clone()),
            NetlistError::LutTooWide { .. }
        ));
        let mismatched = Node::Lut {
            fanin: vec![id(0), id(1)],
            config: Some(TruthTable::new(3, 0x96)),
        };
        assert!(matches!(
            check(with(2, "g1", mismatched), out.clone()),
            NetlistError::ConfigWidthMismatch { .. }
        ));
        assert_eq!(
            check(toy_nodes(), vec![id(5)]),
            NetlistError::UnknownOutput { name: "n5".into() }
        );
        // g1 = NAND(a, g2) and g2 = XOR(g1, a): a loop no flip-flop
        // breaks.
        let mut looped = with(
            2,
            "g1",
            Node::Gate {
                kind: GateKind::Nand,
                fanin: vec![id(0), id(4)],
            },
        );
        looped[4].1 = Node::Gate {
            kind: GateKind::Xor,
            fanin: vec![id(2), id(0)],
        };
        assert_eq!(
            check(looped, out),
            NetlistError::CombinationalCycle { on: "g1".into() }
        );
    }

    #[test]
    fn replace_gate_with_lut_keeps_function() {
        let mut n = toy();
        let g1 = n.find("g1").unwrap();
        let t = n.replace_gate_with_lut(g1).unwrap();
        assert_eq!(t, TruthTable::from_gate(GateKind::Nand, 2));
        assert_eq!(n.lut_count(), 1);
        assert_eq!(n.gate_count(), 2); // LUT still counts as combinational
        assert_eq!(n.lut_config(g1), Some(t));
    }

    #[test]
    fn redact_and_program_round_trip() {
        let mut n = toy();
        let g1 = n.find("g1").unwrap();
        n.replace_gate_with_lut(g1).unwrap();
        let (mut stripped, bitstream) = n.redact();
        assert_eq!(stripped.lut_config(g1), None);
        assert_eq!(bitstream.len(), 1);
        stripped.program(&bitstream);
        assert_eq!(stripped, n);
    }

    #[test]
    fn rewire_lut_rejects_cycle() {
        let mut n = toy();
        let g1 = n.find("g1").unwrap();
        let g2 = n.find("g2").unwrap();
        n.replace_gate_with_lut(g1).unwrap();
        // g1 -> q (DFF) -> g2: wiring g1's LUT to read g2 closes a loop,
        // but the loop crosses the DFF, so it is sequential and legal.
        let a = n.find("a").unwrap();
        assert!(n.rewire_lut(g1, vec![a, g2], None).is_ok());
        // A genuine combinational self-loop is rejected:
        let mut n2 = toy();
        let g2b = n2.find("g2").unwrap();
        n2.replace_gate_with_lut(g2b).unwrap();
        let q = n2.find("q").unwrap();
        let err = n2.rewire_lut(g2b, vec![q, g2b], None);
        assert!(matches!(err, Err(NetlistError::CombinationalCycle { .. })));
        // failed rewire must leave the netlist unchanged and valid
        assert!(n2.check_acyclic().is_ok());
    }

    /// The netlist's kept wiring facts, by value.
    fn facts(n: &Netlist) -> (Fanout, Vec<NodeId>) {
        ((*n.fanout).clone(), (*n.topo).clone())
    }

    #[test]
    fn rewire_lut_keeps_the_wiring_its_check_built() {
        let mut n = toy();
        let [a, g1, q, g2] = ["a", "g1", "q", "g2"].map(|name| n.find(name).unwrap());
        n.replace_gate_with_lut(g2).unwrap();
        // g2 = LUT(q, a) gains g1 as a decoy: g1 now has two readers.
        n.rewire_lut(g2, vec![q, a, g1], None).unwrap();
        let nodes = n
            .iter()
            .map(|(id, node)| (n.node_name(id).to_owned(), node.clone()));
        let fresh = Netlist::from_nodes("toy", nodes.collect(), n.outputs().to_vec()).unwrap();
        assert_eq!(facts(&n), facts(&fresh));
        assert_eq!(n.fanout.readers(g1), [q, g2]);

        // Reading itself closes a loop: the node and both facts stay.
        let (node, fanout, topo) = (n.node(g2).clone(), n.fanout.clone(), n.topo.clone());
        let err = n.rewire_lut(g2, vec![g2], None);
        assert!(matches!(err, Err(NetlistError::CombinationalCycle { .. })));
        assert_eq!(n.node(g2), &node);
        assert!(Arc::ptr_eq(&n.fanout, &fanout) && Arc::ptr_eq(&n.topo, &topo));
    }

    #[test]
    fn display_summarizes() {
        let n = toy();
        let s = n.to_string();
        assert!(s.contains("toy"));
        assert!(s.contains("2 gates"));
    }
}
