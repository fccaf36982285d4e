//! Section 8.1 — ordering of atomic (immediate) selections.
//!
//! Two decisions per range variable in an AND-term:
//!
//! 1. **How many indexes to use.** Indexed access costs are sorted
//!    ascending; the number of indexes used is the largest `k` with
//!
//!    ```text
//!    Σ_{i=1}^{k} cost_i + RNDCOST(|C| · Π_{i=1}^{k} f_s(P_i)) < SEQCOST(nbpages(C))
//!    ```
//!
//!    (index intersections narrow the OID set; the survivors are fetched
//!    randomly; all of it must beat one sequential scan).
//!
//! 2. **In what order to apply the rest.** Remaining predicates are sorted
//!    by increasing estimated selectivity and applied in that order — the
//!    short-circuit heuristic: the predicate most likely to be false runs
//!    first, so the fewest predicates are evaluated per object.

use mood_cost::{rndcost, rngxcost, seqcost, IndexParams, Theta};
use mood_storage::PhysicalParams;

use crate::plan::Pred;

/// One immediate selection predicate with its statistics — an ImmSelInfo
/// row (Table 11) before cost computation.
#[derive(Debug, Clone)]
pub struct AtomicPredicate {
    /// The predicate: an atom, or the atoms of the bounds one interval
    /// merges.
    pub pred: Pred,
    /// Estimated selectivity `f_s(P_i)`.
    pub selectivity: f64,
    /// θ (equality predicates probe; others range-scan).
    pub theta: Theta,
    /// The index on the predicate's attribute, if one exists.
    pub index: Option<IndexParams>,
}

/// The §8.1 decision for one range variable.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicPlan {
    /// Indices (into the input slice) of predicates served by an index, in
    /// the ascending-cost order they are intersected.
    pub indexed: Vec<usize>,
    /// The remaining predicates in evaluation order (increasing
    /// selectivity).
    pub residual: Vec<usize>,
    /// Modelled cost of the chosen access (indexes + fetch, or full scan).
    pub access_cost: f64,
    /// True when the chosen access is the sequential scan.
    pub sequential: bool,
}

/// `cost_i` per §8.1: `INDCOST(1)` for `=`, `RNGXCOST(f_s)` otherwise.
pub fn indexed_access_cost(p: &PhysicalParams, pred: &AtomicPredicate) -> Option<f64> {
    let ix = pred.index.as_ref()?;
    Some(match pred.theta {
        Theta::Eq => mood_cost::indcost(p, ix, 1.0),
        Theta::Ne => return None, // <> cannot use an index
        _ => rngxcost(p, ix, pred.selectivity),
    })
}

/// Decide index usage and residual predicate order for one range variable
/// bound to a class with `cardinality` instances on `nbpages` pages.
pub fn plan_atomic_selections(
    p: &PhysicalParams,
    preds: &[AtomicPredicate],
    cardinality: f64,
    nbpages: f64,
) -> AtomicPlan {
    let seq = seqcost(p, nbpages);
    // Candidate indexed predicates, ascending by cost.
    let mut candidates: Vec<(usize, f64)> = preds
        .iter()
        .enumerate()
        .filter_map(|(i, pr)| indexed_access_cost(p, pr).map(|c| (i, c)))
        .collect();
    candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    // Largest k satisfying the inequality; evaluate k = 1..=len and keep
    // the maximum k that still beats the scan (the paper's "maximum value
    // k satisfying ...").
    let mut best_k = 0usize;
    let mut best_cost = seq;
    let mut idx_sum = 0.0;
    let mut sel_prod = 1.0;
    for (k, (i, cost)) in candidates.iter().enumerate() {
        idx_sum += cost;
        sel_prod *= preds[*i].selectivity;
        let total = idx_sum + rndcost(p, cardinality * sel_prod);
        if total < seq {
            best_k = k + 1;
            best_cost = total;
        }
    }
    let indexed: Vec<usize> = candidates.iter().take(best_k).map(|(i, _)| *i).collect();
    // Residual predicates (everything not index-served), by increasing
    // selectivity.
    let mut residual: Vec<usize> = (0..preds.len()).filter(|i| !indexed.contains(i)).collect();
    residual.sort_by(|&a, &b| {
        preds[a]
            .selectivity
            .partial_cmp(&preds[b].selectivity)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    AtomicPlan {
        indexed,
        residual,
        access_cost: best_cost,
        sequential: best_k == 0,
    }
}

/// Expected number of predicate evaluations per object for a given order —
/// the short-circuit metric the residual ordering minimizes: predicate `i`
/// is evaluated only if all before it were true.
pub fn expected_evaluations(selectivities: &[f64], order: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut pass = 1.0;
    for &i in order {
        total += pass;
        pass *= selectivities[i];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> PhysicalParams {
        PhysicalParams::salzberg_1988()
    }

    fn index(leaves: f64) -> IndexParams {
        IndexParams {
            order: 100.0,
            levels: 3,
            leaves,
            keysize: 8,
            unique: false,
        }
    }

    fn eq_pred(sel: f64, ix: Option<IndexParams>) -> AtomicPredicate {
        AtomicPredicate {
            pred: Pred::And(Vec::new()),
            selectivity: sel,
            theta: Theta::Eq,
            index: ix,
        }
    }

    #[test]
    fn selective_indexed_equality_beats_scan() {
        let p = disk();
        // 1M objects on 100k pages; an equality with selectivity 1e-6
        // through a 3-level index: a handful of random reads vs 100k
        // sequential pages.
        let preds = [eq_pred(1e-6, Some(index(5_000.0)))];
        let plan = plan_atomic_selections(&p, &preds, 1_000_000.0, 100_000.0);
        assert_eq!(plan.indexed, vec![0]);
        assert!(!plan.sequential);
        assert!(plan.access_cost < seqcost(&p, 100_000.0));
    }

    #[test]
    fn unselective_predicate_scans() {
        let p = disk();
        // selectivity 0.5: fetching half the extent randomly loses to one
        // scan; the optimizer must fall back to sequential access.
        let preds = [eq_pred(0.5, Some(index(5_000.0)))];
        let plan = plan_atomic_selections(&p, &preds, 1_000_000.0, 100_000.0);
        assert!(plan.sequential);
        assert!(plan.indexed.is_empty());
        assert_eq!(plan.residual, vec![0]);
        assert_eq!(plan.access_cost, seqcost(&p, 100_000.0));
    }

    #[test]
    fn multiple_indexes_intersect_while_profitable() {
        let p = disk();
        // Two moderately selective indexed predicates: together they leave
        // |C|·f1·f2 survivors — cheap to fetch; individually each leaves
        // too many.
        let preds = [
            eq_pred(0.01, Some(index(5_000.0))),
            eq_pred(0.01, Some(index(5_000.0))),
        ];
        let plan = plan_atomic_selections(&p, &preds, 1_000_000.0, 100_000.0);
        assert_eq!(plan.indexed.len(), 2, "both indexes used: {plan:?}");
        assert!(!plan.sequential);
    }

    #[test]
    fn index_count_is_cut_when_marginal_index_does_not_pay() {
        let p = disk();
        // First index is decisive (1e-5); a second nearly-useless one
        // (selectivity 0.99, range scan over most leaves) must be skipped.
        let preds = [
            eq_pred(1e-5, Some(index(5_000.0))),
            AtomicPredicate {
                pred: Pred::And(Vec::new()),
                selectivity: 0.99,
                theta: Theta::Gt,
                index: Some(index(50_000.0)),
            },
        ];
        let plan = plan_atomic_selections(&p, &preds, 1_000_000.0, 100_000.0);
        assert_eq!(plan.indexed, vec![0]);
        assert_eq!(plan.residual, vec![1]);
    }

    #[test]
    fn residual_order_is_increasing_selectivity() {
        let p = disk();
        let preds = [eq_pred(0.9, None), eq_pred(0.1, None), eq_pred(0.5, None)];
        let plan = plan_atomic_selections(&p, &preds, 1000.0, 100.0);
        assert!(plan.sequential);
        assert_eq!(plan.residual, vec![1, 2, 0]);
    }

    #[test]
    fn short_circuit_order_minimizes_expected_evaluations() {
        let sels = [0.9, 0.1, 0.5];
        let sorted = [1usize, 2, 0]; // increasing selectivity
        let best = expected_evaluations(&sels, &sorted);
        // Check against all 6 permutations.
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            assert!(
                best <= expected_evaluations(&sels, &perm) + 1e-12,
                "{perm:?}"
            );
        }
    }

    #[test]
    fn inequality_predicates_use_range_cost() {
        let p = disk();
        let pred = AtomicPredicate {
            pred: Pred::And(Vec::new()),
            selectivity: 0.001,
            theta: Theta::Gt,
            index: Some(index(10_000.0)),
        };
        let cost = indexed_access_cost(&p, &pred).unwrap();
        assert!((cost - rngxcost(&p, &index(10_000.0), 0.001)).abs() < 1e-12);
        // Not-equal can never use an index.
        let ne = AtomicPredicate {
            theta: Theta::Ne,
            ..pred
        };
        assert_eq!(indexed_access_cost(&p, &ne), None);
    }

    #[test]
    fn no_predicates_scans_trivially() {
        let p = disk();
        let plan = plan_atomic_selections(&p, &[], 1000.0, 100.0);
        assert!(plan.sequential);
        assert!(plan.indexed.is_empty() && plan.residual.is_empty());
    }
}
