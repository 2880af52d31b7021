//! I/O path sampling per Section IV of the paper.
//!
//! The selection algorithms do not enumerate all paths of a circuit (there
//! are exponentially many); instead, the paper samples a fraction of the
//! components (2 % by default), and for each sampled component performs a
//! depth-first search to a primary input and to a primary output such that
//! the resulting input-to-output path crosses at least two flip-flops.
//! Unique paths are collected, paths touching the critical path are
//! discarded, and the survivors are sorted by *depth* — the number of
//! flip-flops between the primary input and the primary output.
//!
//! Both searches of every attempt run on one walker per sampling run:
//! visits are stamped with a per-walk epoch instead of a fresh visited
//! array, and the untried children of the whole branch share one flat
//! stack. The backward walk reads each node's fan-in; the forward walk
//! reads the [`CircuitView`]'s flat fan-out map.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::id::NodeId;
use crate::netlist::Netlist;
use crate::set::NodeSet;
use crate::view::CircuitView;

/// A primary-input → primary-output path through the sequential netlist.
///
/// `nodes` starts at a primary input and ends at a node driving a primary
/// output; consecutive nodes are connected by a fan-in/fan-out edge, and
/// the path may cross flip-flops (those crossings define its
/// [`ff_count`](IoPath::ff_count), the paper's "depth").
///
/// Membership queries ([`contains`](IoPath::contains)) are O(1): the
/// constructor precomputes a [`NodeSet`] bitset over the path nodes.
/// Equality and hashing consider only `nodes` and `ff_count`.
#[derive(Debug, Clone)]
pub struct IoPath {
    /// Path nodes from primary input to output driver, inclusive.
    pub nodes: Vec<NodeId>,
    /// Number of flip-flops on the path — the paper's depth `D`.
    pub ff_count: usize,
    /// Precomputed membership bitset over `nodes`.
    member: NodeSet,
}

impl PartialEq for IoPath {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.ff_count == other.ff_count
    }
}

impl Eq for IoPath {}

impl std::hash::Hash for IoPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.nodes.hash(state);
        self.ff_count.hash(state);
    }
}

impl IoPath {
    /// Builds a path from its node sequence, precomputing the membership
    /// bitset. `ff_count` is the number of flip-flops among `nodes`.
    pub fn new(nodes: Vec<NodeId>, ff_count: usize) -> Self {
        let member = nodes.iter().copied().collect();
        IoPath {
            nodes,
            ff_count,
            member,
        }
    }

    /// Whether `id` lies on the path. O(1) via the precomputed bitset.
    pub fn contains(&self, id: NodeId) -> bool {
        self.member.contains(id)
    }

    /// Splits the I/O path into its *timing paths*: maximal combinational
    /// segments bounded by primary inputs, flip-flops and primary outputs.
    ///
    /// Flip-flops themselves are not part of any segment. Each returned
    /// segment contains only gates and LUTs, in path order, and may be
    /// empty when two flip-flops are back to back.
    pub fn segments(&self, netlist: &Netlist) -> Vec<Vec<NodeId>> {
        let mut segments = Vec::new();
        let mut current = Vec::new();
        for &id in &self.nodes {
            if netlist.node(id).is_combinational() {
                current.push(id);
            } else if !current.is_empty() {
                segments.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            segments.push(current);
        }
        segments
    }

    /// The gates/LUTs on the path (combinational nodes only), in order.
    pub fn combinational_nodes(&self, netlist: &Netlist) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&id| netlist.node(id).is_combinational())
            .collect()
    }
}

/// Configuration of the path sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSamplerConfig {
    /// Fraction of components to sample as DFS seeds (paper: 0.02).
    pub sample_fraction: f64,
    /// Minimum number of sampled seeds regardless of circuit size.
    pub min_samples: usize,
    /// Minimum flip-flops a path must cross to be kept (paper: 2).
    pub min_ffs: usize,
    /// DFS retry attempts per seed before giving up on it.
    pub attempts_per_seed: usize,
}

impl Default for PathSamplerConfig {
    fn default() -> Self {
        PathSamplerConfig {
            sample_fraction: 0.02,
            min_samples: 8,
            min_ffs: 2,
            attempts_per_seed: 4,
        }
    }
}

/// Samples unique I/O paths per the paper's procedure and returns them
/// sorted by descending flip-flop depth.
///
/// The search is randomized; pass a seeded RNG for reproducible runs.
/// Seeds that cannot reach both a primary input and a primary output with
/// the required number of flip-flops are silently dropped, so the result
/// may contain fewer paths than seeds (and may be empty for purely
/// combinational circuits when `cfg.min_ffs > 0`).
pub fn sample_io_paths<R: Rng + ?Sized>(
    netlist: &Netlist,
    cfg: &PathSamplerConfig,
    rng: &mut R,
) -> Vec<IoPath> {
    sample_io_paths_with(&CircuitView::new(netlist), cfg, rng)
}

/// [`sample_io_paths`] against a shared [`CircuitView`], reusing its
/// memoized fan-out map and output set instead of recomputing them.
pub fn sample_io_paths_with<R: Rng + ?Sized>(
    view: &CircuitView<'_>,
    cfg: &PathSamplerConfig,
    rng: &mut R,
) -> Vec<IoPath> {
    let netlist = view.netlist();
    let comb: Vec<NodeId> = netlist
        .iter()
        .filter(|(_, n)| n.is_combinational())
        .map(|(id, _)| id)
        .collect();
    if comb.is_empty() {
        return Vec::new();
    }
    let want = ((comb.len() as f64 * cfg.sample_fraction).ceil() as usize)
        .max(cfg.min_samples)
        .min(comb.len());
    let seeds: Vec<NodeId> = comb.choose_multiple(rng, want).copied().collect();

    let fanout = view.fanout();
    let output_set = view.output_set();
    let fanin_of = |id: NodeId| netlist.node(id).fanin();
    let is_input = |id: NodeId| netlist.node(id).is_input();
    let fanout_of = |id: NodeId| fanout.readers(id);
    let is_output = |id: NodeId| output_set.contains(id);

    let mut walker = Walker::new(netlist.len());
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut unique: HashSet<Vec<NodeId>> = HashSet::new();
    let mut paths = Vec::new();
    for seed in seeds {
        for _ in 0..cfg.attempts_per_seed {
            // Backward to a primary input, then forward to an output
            // driver: a seed with no route to one will not find one on
            // a retry either.
            if !walker.walk(seed, fanin_of, is_input, rng) {
                break;
            }
            nodes.clear();
            nodes.extend(walker.path().rev());
            if !walker.walk(seed, fanout_of, is_output, rng) {
                break;
            }
            nodes.extend(walker.path().skip(1));
            let ff_count = nodes
                .iter()
                .filter(|&&id| netlist.node(id).is_dff())
                .count();
            if ff_count < cfg.min_ffs {
                continue; // randomized retry may find a deeper route
            }
            if !unique.contains(nodes.as_slice()) {
                unique.insert(nodes.clone());
                paths.push(IoPath::new(nodes.clone(), ff_count));
                break;
            }
        }
    }
    paths.sort_by(|a, b| b.ff_count.cmp(&a.ff_count).then(a.nodes.cmp(&b.nodes)));
    paths
}

/// Removes every path that touches any of `avoid` (used to drop paths
/// containing the critical path, conservatively interpreted as "any node
/// of the critical path").
pub fn retain_avoiding(paths: &mut Vec<IoPath>, avoid: &[NodeId]) {
    let avoid: HashSet<NodeId> = avoid.iter().copied().collect();
    paths.retain(|p| !p.nodes.iter().any(|n| avoid.contains(n)));
}

/// Randomized depth-first search, reused by every walk of one sampling
/// run so a walk allocates nothing once its buffers have grown.
///
/// A node's children are copied and shuffled when the node is pushed,
/// and tried from the back of the shuffle, so every random draw of a
/// walk happens in the order of the first visit of each node.
struct Walker {
    /// Visit stamps: node `i` is visited in the current walk when
    /// `mark[i] == epoch`, so a new walk forgets the old by a bump.
    mark: Vec<u32>,
    epoch: u32,
    /// The current branch from the start: each node and where its
    /// untried children begin in `children`.
    trail: Vec<(NodeId, usize)>,
    /// The untried children of every trail node, back to back.
    children: Vec<NodeId>,
}

impl Walker {
    fn new(nodes: usize) -> Self {
        Walker {
            mark: vec![0; nodes],
            epoch: 0,
            trail: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Walks from `start` over `next` until `is_goal` holds at the top
    /// of the trail. Returns `false` when no goal is reachable;
    /// otherwise [`path`](Walker::path) is start → … → goal.
    fn walk<'g, R: Rng + ?Sized>(
        &mut self,
        start: NodeId,
        next: impl Fn(NodeId) -> &'g [NodeId],
        is_goal: impl Fn(NodeId) -> bool,
        rng: &mut R,
    ) -> bool {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.trail.clear();
        self.children.clear();
        self.push(start, next(start), rng);
        while let Some(&(node, untried)) = self.trail.last() {
            if is_goal(node) {
                return true;
            }
            let child = if self.children.len() > untried {
                self.children.pop()
            } else {
                None
            };
            match child {
                Some(child) if self.mark[child.index()] != self.epoch => {
                    self.push(child, next(child), rng);
                }
                Some(_) => {}
                None => {
                    self.trail.pop();
                }
            }
        }
        false
    }

    /// Visits `node`: marks it and queues its children in shuffled order.
    fn push<R: Rng + ?Sized>(&mut self, node: NodeId, children: &[NodeId], rng: &mut R) {
        self.mark[node.index()] = self.epoch;
        let untried = self.children.len();
        self.children.extend_from_slice(children);
        self.children[untried..].shuffle(rng);
        self.trail.push((node, untried));
    }

    /// The nodes of the last successful walk, start first.
    fn path(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.trail.iter().map(|&(node, _)| node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::node::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 3-stage pipeline: in → g0 → ff1 → g1 → ff2 → g2 → out.
    fn pipeline() -> Netlist {
        let mut b = NetlistBuilder::new("pipe");
        b.input("in");
        b.input("c");
        b.gate("g0", GateKind::And, &["in", "c"]);
        b.dff("ff1", "g0");
        b.gate("g1", GateKind::Or, &["ff1", "c"]);
        b.dff("ff2", "g1");
        b.gate("g2", GateKind::Xor, &["ff2", "c"]);
        b.output("g2");
        b.finish().unwrap()
    }

    #[test]
    fn samples_paths_with_two_ffs() {
        let n = pipeline();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = PathSamplerConfig {
            sample_fraction: 1.0,
            min_samples: 3,
            min_ffs: 2,
            attempts_per_seed: 8,
        };
        let paths = sample_io_paths(&n, &cfg, &mut rng);
        assert!(!paths.is_empty(), "the full pipeline path must be found");
        for p in &paths {
            assert!(p.ff_count >= 2);
            assert!(n.node(p.nodes[0]).is_input());
            assert!(n.outputs().contains(p.nodes.last().unwrap()));
            // consecutive nodes are actually connected
            for w in p.nodes.windows(2) {
                assert!(
                    n.node(w[1]).fanin().contains(&w[0]),
                    "{} -> {} is not an edge",
                    n.node_name(w[0]),
                    n.node_name(w[1])
                );
            }
        }
    }

    #[test]
    fn paths_sorted_by_depth() {
        let n = pipeline();
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = PathSamplerConfig {
            sample_fraction: 1.0,
            min_samples: 3,
            min_ffs: 0,
            attempts_per_seed: 8,
        };
        let paths = sample_io_paths(&n, &cfg, &mut rng);
        for w in paths.windows(2) {
            assert!(w[0].ff_count >= w[1].ff_count);
        }
    }

    #[test]
    fn segments_split_on_ffs() {
        let n = pipeline();
        let path = IoPath::new(
            ["in", "g0", "ff1", "g1", "ff2", "g2"]
                .iter()
                .map(|s| n.find(s).unwrap())
                .collect(),
            2,
        );
        let segs = path.segments(&n);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], vec![n.find("g0").unwrap()]);
        assert_eq!(segs[1], vec![n.find("g1").unwrap()]);
        assert_eq!(segs[2], vec![n.find("g2").unwrap()]);
        assert_eq!(path.combinational_nodes(&n).len(), 3);
    }

    #[test]
    fn retain_avoiding_drops_touching_paths() {
        let n = pipeline();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PathSamplerConfig {
            sample_fraction: 1.0,
            min_samples: 3,
            min_ffs: 2,
            attempts_per_seed: 8,
        };
        let mut paths = sample_io_paths(&n, &cfg, &mut rng);
        assert!(!paths.is_empty());
        retain_avoiding(&mut paths, &[n.find("g1").unwrap()]);
        // every ≥2-FF path in this pipeline goes through g1
        assert!(paths.is_empty());
    }

    #[test]
    fn no_path_when_min_ffs_unreachable() {
        let mut b = NetlistBuilder::new("comb");
        b.input("a");
        b.input("b");
        b.gate("g", GateKind::And, &["a", "b"]);
        b.output("g");
        let n = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let paths = sample_io_paths(&n, &PathSamplerConfig::default(), &mut rng);
        assert!(paths.is_empty());
    }

    #[test]
    fn feedback_loops_do_not_hang_the_dfs() {
        let mut b = NetlistBuilder::new("fb");
        b.input("en");
        b.gate("next", GateKind::Xor, &["en", "state"]);
        b.dff("state", "next");
        b.gate("o", GateKind::And, &["state", "en"]);
        b.output("o");
        let n = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PathSamplerConfig {
            sample_fraction: 1.0,
            min_samples: 4,
            min_ffs: 1,
            attempts_per_seed: 8,
        };
        let paths = sample_io_paths(&n, &cfg, &mut rng);
        for p in &paths {
            assert!(p.ff_count >= 1);
        }
    }
}
