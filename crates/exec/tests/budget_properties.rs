//! Property tests of the hierarchical budget semantics:
//!
//! * a child's effective deadline is `min(parent, own)` all the way up
//!   a randomly shaped chain;
//! * cancelling any node cancels exactly its descendants — ancestors
//!   and cousins stay live;
//! * sibling step counts are disjoint: each sibling counts only its
//!   own charges, while the parent accumulates the exact sum.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use sttlock_exec::{Budget, BudgetError};

/// Builds a root-to-leaf chain from per-level deadline offsets (ms
/// from a common epoch; `None` = no own deadline at that level) and
/// returns the budgets root-first.
fn build_chain(epoch: Instant, offsets: &[Option<u64>]) -> Vec<Budget> {
    let mut chain: Vec<Budget> = Vec::with_capacity(offsets.len());
    for off in offsets {
        let own = off.map(|ms| epoch + Duration::from_millis(ms));
        let next = match chain.last() {
            Some(parent) => parent.child_with(own),
            None => own.map_or_else(Budget::unbounded, Budget::deadline_at),
        };
        chain.push(next);
    }
    chain
}

proptest! {
    #[test]
    fn chain_deadline_is_the_running_minimum(
        raw_offsets in prop::collection::vec(0u64..1_000_000, 1..8),
    ) {
        // The vendored proptest has no Option strategy: values below
        // 10_000 encode "no own deadline at this level".
        let offsets: Vec<Option<u64>> =
            raw_offsets.iter().map(|&v| (v >= 10_000).then_some(v)).collect();
        // A far-future epoch so no deadline actually expires mid-test.
        let epoch = Instant::now() + Duration::from_secs(3600);
        let chain = build_chain(epoch, &offsets);
        let mut min_so_far: Option<u64> = None;
        for (budget, off) in chain.iter().zip(&offsets) {
            min_so_far = match (min_so_far, *off) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let expected = min_so_far.map(|ms| epoch + Duration::from_millis(ms));
            prop_assert_eq!(budget.deadline(), expected);
        }
    }

    #[test]
    fn cancelling_a_node_cancels_exactly_its_subtree(
        depth in 2usize..7,
        cancel_at in 0usize..7,
        fanout in 1usize..4,
    ) {
        let cancel_at = cancel_at % depth;
        // One spine root→leaf; at every spine level, `fanout` extra
        // leaf children hang off to the side.
        let mut spine = vec![Budget::unbounded()];
        for _ in 1..depth {
            let parent = spine.last().unwrap().clone();
            spine.push(parent.child());
        }
        let side: Vec<(usize, Budget)> = (0..depth)
            .flat_map(|lvl| (0..fanout).map(move |_| lvl))
            .map(|lvl| (lvl, spine[lvl].child()))
            .collect();

        spine[cancel_at].cancel();

        for (lvl, b) in spine.iter().enumerate() {
            prop_assert_eq!(b.is_cancelled(), lvl >= cancel_at);
        }
        for (lvl, b) in &side {
            // A side child of level `lvl` descends from spine[lvl]:
            // cancelled iff its attachment point is at/below the cut.
            prop_assert_eq!(b.is_cancelled(), *lvl >= cancel_at);
            if *lvl >= cancel_at {
                prop_assert_eq!(b.check(), Err(BudgetError::Cancelled));
            } else {
                prop_assert_eq!(b.check(), Ok(()));
            }
        }
    }

    #[test]
    fn sibling_step_counts_are_disjoint_and_sum_on_the_parent(
        spends in prop::collection::vec(0u64..10_000, 1..6),
    ) {
        let parent = Budget::unbounded();
        let siblings: Vec<Budget> = spends.iter().map(|_| parent.child()).collect();
        for (b, spend) in siblings.iter().zip(&spends) {
            b.charge(*spend);
        }
        let total: u64 = spends.iter().sum();
        // The parent accumulates exactly the sum of the siblings.
        prop_assert_eq!(parent.steps_spent(), total);
        for (b, spend) in siblings.iter().zip(&spends) {
            // Disjointness: a sibling's counter reflects only its own
            // charges, never a sibling's.
            prop_assert_eq!(b.steps_spent(), *spend);
        }
    }

    #[test]
    fn charges_through_a_grandchild_bill_every_ancestor(spend in 1u64..1000) {
        let root = Budget::unbounded();
        let leaf = root.child().child();
        leaf.charge(spend);
        prop_assert_eq!(root.steps_spent(), spend);
        prop_assert_eq!(leaf.steps_spent(), spend);
    }
}
