//! Cost of the implicit join `C.A = D.self` under each of the four join
//! strategies — Section 6 verbatim — plus multi-hop forward-traversal cost
//! for whole path expressions (what the PathSelInfo dictionary stores).

use mood_storage::PhysicalParams;

use crate::approx::c_approx;
use crate::fileops::{ind_pages, indcost, pages_touched, rndcost, seqcost, IndexParams};
use crate::selectivity::PathHop;

/// Per-class physical description the join-cost formulas need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassInfo {
    /// `|C|`.
    pub cardinality: f64,
    /// `nbpages(C)`.
    pub nbpages: f64,
}

/// CPU cost per in-memory comparison (the `CPUCOST` constant of §6.2).
/// A 1994-era machine did on the order of 10⁶–10⁷ comparisons per second.
pub const CPU_COST: f64 = 1e-6;

/// The four implicit-join strategies of Section 6 / 8.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMethod {
    ForwardTraversal,
    BackwardTraversal,
    BinaryJoinIndex,
    HashPartition,
}

impl JoinMethod {
    pub const ALL: [JoinMethod; 4] = [
        JoinMethod::ForwardTraversal,
        JoinMethod::BackwardTraversal,
        JoinMethod::BinaryJoinIndex,
        JoinMethod::HashPartition,
    ];

    /// The access-plan spelling used in the paper's examples.
    pub fn plan_name(&self) -> &'static str {
        match self {
            JoinMethod::ForwardTraversal => "FORWARD_TRAVERSAL",
            JoinMethod::BackwardTraversal => "BACKWARD_TRAVERSAL",
            JoinMethod::BinaryJoinIndex => "BINARY_JOIN_INDEX",
            JoinMethod::HashPartition => "HASH_PARTITION",
        }
    }
}

/// §6.1 — forward traversal: fetch the pages holding the `k_c` C-objects,
/// then chase `k_c·fan` references into D:
///
/// `ftc = RNDCOST(nbpg_c) + RNDCOST(k_c · fan)` with
/// `nbpg_c = nbpages(C)·(1 − (1 − 1/nbpages(C))^{k_c})`.
///
/// Worst case: no buffer hits on D's pages.
pub fn forward_traversal_cost(p: &PhysicalParams, k_c: f64, c: &ClassInfo, fan: f64) -> f64 {
    rndcost(p, pages_touched(c.nbpages, k_c)) + rndcost(p, k_c * fan)
}

/// The pointer-chase term of §6.1 discounted by a measured clustering
/// factor `cf ∈ [0, 1]` — the fraction of consecutive chases that land on
/// the same or the next target page when the source extent is scanned in
/// storage order (what `CLUSTER` maximizes and `collect_stats` measures).
///
/// The clustered fraction of the chase degenerates to a sequential sweep of
/// the distinct target pages; the rest stays the paper's worst-case random
/// fetch. `cf = 0` returns exactly `RNDCOST(k)` — every Section 8 number
/// reproduces unchanged on an unclustered (or unmeasured) database.
pub fn chase_cost(p: &PhysicalParams, k: f64, d_nbpages: f64, cf: f64) -> f64 {
    if cf <= 0.0 {
        return rndcost(p, k);
    }
    let cf = cf.min(1.0);
    let swept = pages_touched(d_nbpages, k);
    (1.0 - cf) * rndcost(p, k) + cf * seqcost(p, swept)
}

/// §6.1 with the chase term clustering-discounted: fetch the pages holding
/// the `k_c` C-objects, then chase `k_c·fan` references into D's
/// `d_nbpages` pages at clustering factor `cf`.
pub fn forward_traversal_cost_clustered(
    p: &PhysicalParams,
    k_c: f64,
    c: &ClassInfo,
    fan: f64,
    d_nbpages: f64,
    cf: f64,
) -> f64 {
    rndcost(p, pages_touched(c.nbpages, k_c)) + chase_cost(p, k_c * fan, d_nbpages, cf)
}

/// Forward traversal when the `k_c` source objects are already materialized
/// in memory (a temporary collection like Example 8.1's T1): only the
/// pointer chase remains.
pub fn forward_traversal_cost_in_memory(p: &PhysicalParams, k_c: f64, fan: f64) -> f64 {
    rndcost(p, k_c * fan)
}

/// §6.2 — backward traversal: to join `k_d` D-objects back into C, scan
/// C's extent and test every reference:
///
/// `btc = SEQCOST(nbpages(C)) + k_c·fan·k_d·CPUCOST
///        + (0 if D already accessed else SEQCOST(nbpages(D)))`
pub fn backward_traversal_cost(
    p: &PhysicalParams,
    k_c: f64,
    k_d: f64,
    c: &ClassInfo,
    d: &ClassInfo,
    fan: f64,
    d_already_accessed: bool,
) -> f64 {
    seqcost(p, c.nbpages)
        + k_c * fan * k_d * CPU_COST
        + if d_already_accessed {
            0.0
        } else {
            seqcost(p, d.nbpages)
        }
}

/// §6.3 — binary join index: `bjc = INDCOST(k)`.
pub fn binary_join_index_cost(p: &PhysicalParams, index: &IndexParams, k: f64) -> f64 {
    indcost(p, index, k)
}

/// §6.4 — pointer-based hash-partition join:
///
/// `hhc = 3·(k_c/|C|)·SEQCOST(nbpages(C)) + RNDCOST(nbpg)` with
/// `nbpg = nbpages(D)·(1 − (1 − 1/nbpages(D))^α)` and
/// `α = c(|C|·fan, totref, k_c·fan)`.
///
/// (The paper's formula line is garbled by a typesetting slip —
/// `SEQCOST(nbpages(C) + RNDCOST(nbpg))` — which nests a random-access cost
/// inside a page count; the reading consistent with the §6.4 prose and with
/// the relational hybrid-hash formula above it is the sum used here.)
pub fn hash_partition_cost(
    p: &PhysicalParams,
    k_c: f64,
    c: &ClassInfo,
    d: &ClassInfo,
    fan: f64,
    totref: f64,
) -> f64 {
    let alpha = c_approx(c.cardinality * fan, totref, k_c * fan);
    let nbpg = pages_touched(d.nbpages, alpha);
    3.0 * (k_c / c.cardinality) * seqcost(p, c.nbpages) + rndcost(p, nbpg)
}

/// Hash-partition join over an in-memory temporary of `k_c` objects: the
/// three partition passes run over the temporary's pages (same object
/// density as the base class) rather than a fraction of the extent.
pub fn hash_partition_cost_in_memory(
    p: &PhysicalParams,
    k_c: f64,
    c: &ClassInfo,
    d: &ClassInfo,
    fan: f64,
    totref: f64,
) -> f64 {
    let objs_per_page = (c.cardinality / c.nbpages).max(1.0);
    let temp_pages = k_c / objs_per_page;
    let alpha = c_approx(c.cardinality * fan, totref, k_c * fan);
    let nbpg = pages_touched(d.nbpages, alpha);
    3.0 * seqcost(p, temp_pages) + rndcost(p, nbpg)
}

/// Everything needed to cost one implicit join.
#[derive(Debug, Clone)]
pub struct JoinInputs {
    pub k_c: f64,
    pub k_d: f64,
    pub c: ClassInfo,
    pub d: ClassInfo,
    pub fan: f64,
    pub totref: f64,
    /// Binary join index on the reference attribute, if one exists.
    pub index: Option<IndexParams>,
    pub d_already_accessed: bool,
    /// The `k_c` source objects are a temporary collection already in
    /// memory (a prior operator's output) rather than a stored extent.
    pub c_in_memory: bool,
    /// The right side is an already-materialized temporary: chasing a
    /// pointer into it is a memory probe, not a page fetch.
    pub d_in_memory: bool,
    /// Measured clustering factor of the reference edge being chased
    /// (`DatabaseStats::clustering`); 0 = unclustered worst case, the
    /// paper's assumption.
    pub clustering: f64,
}

/// Cost of one strategy (`None` when inapplicable: no binary join index).
pub fn join_cost(p: &PhysicalParams, m: JoinMethod, j: &JoinInputs) -> Option<f64> {
    Some(match m {
        JoinMethod::ForwardTraversal => {
            let source = if j.c_in_memory {
                0.0
            } else {
                rndcost(p, pages_touched(j.c.nbpages, j.k_c))
            };
            let chase = if j.d_in_memory {
                0.0
            } else {
                chase_cost(p, j.k_c * j.fan, j.d.nbpages, j.clustering)
            };
            source + chase
        }
        JoinMethod::BackwardTraversal => backward_traversal_cost(
            p,
            j.k_c,
            j.k_d,
            &j.c,
            &j.d,
            j.fan,
            j.d_already_accessed || j.d_in_memory,
        ),
        JoinMethod::BinaryJoinIndex => {
            binary_join_index_cost(p, j.index.as_ref()?, j.k_c.min(j.k_d))
        }
        JoinMethod::HashPartition => {
            let base = if j.c_in_memory {
                hash_partition_cost_in_memory(p, j.k_c, &j.c, &j.d, j.fan, j.totref)
            } else {
                hash_partition_cost(p, j.k_c, &j.c, &j.d, j.fan, j.totref)
            };
            if j.d_in_memory {
                // Remove the D-page fetch term: probes hit memory.
                let alpha = c_approx(j.c.cardinality * j.fan, j.totref, j.k_c * j.fan);
                base - rndcost(p, pages_touched(j.d.nbpages, alpha))
            } else {
                base
            }
        }
    })
}

/// Physical pages the chase term of [`chase_cost`] models: `k` random
/// single-page fetches, with the clustered fraction collapsing to a sweep
/// of the distinct target pages.
pub fn chase_pages(k: f64, d_nbpages: f64, cf: f64) -> f64 {
    if cf <= 0.0 {
        return k;
    }
    let cf = cf.min(1.0);
    (1.0 - cf) * k + cf * pages_touched(d_nbpages, k)
}

/// Physical page I/O the [`join_cost`] formula for `m` models (`None` when
/// inapplicable). The cost formulas price sequential pages below random
/// ones, so dividing cost by `RNDCOST(1)` understates the page count of
/// seq-discounted plans — a clustered forward traversal most of all.
/// EXPLAIN's estimate lines use this companion so the page estimate stays
/// comparable to the page actuals.
pub fn join_pages(m: JoinMethod, j: &JoinInputs) -> Option<f64> {
    Some(match m {
        JoinMethod::ForwardTraversal => {
            let source = if j.c_in_memory {
                0.0
            } else {
                pages_touched(j.c.nbpages, j.k_c)
            };
            let chase = if j.d_in_memory {
                0.0
            } else {
                chase_pages(j.k_c * j.fan, j.d.nbpages, j.clustering)
            };
            source + chase
        }
        JoinMethod::BackwardTraversal => {
            j.c.nbpages
                + if j.d_already_accessed || j.d_in_memory {
                    0.0
                } else {
                    j.d.nbpages
                }
        }
        JoinMethod::BinaryJoinIndex => ind_pages(j.index.as_ref()?, j.k_c.min(j.k_d)),
        JoinMethod::HashPartition => {
            let partition = if j.c_in_memory {
                let objs_per_page = (j.c.cardinality / j.c.nbpages).max(1.0);
                3.0 * (j.k_c / objs_per_page)
            } else {
                3.0 * (j.k_c / j.c.cardinality) * j.c.nbpages
            };
            let probe = if j.d_in_memory {
                0.0
            } else {
                let alpha = c_approx(j.c.cardinality * j.fan, j.totref, j.k_c * j.fan);
                pages_touched(j.d.nbpages, alpha)
            };
            partition + probe
        }
    })
}

/// The minimum-cost applicable strategy — what Algorithm 8.2 calls "the
/// minimum cost join technique among the four join algorithms".
pub fn best_join_method(p: &PhysicalParams, j: &JoinInputs) -> (JoinMethod, f64) {
    JoinMethod::ALL
        .iter()
        .filter_map(|m| join_cost(p, *m, j).map(|cost| (*m, cost)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .expect("forward traversal is always applicable")
}

/// Forward-traversal cost of a whole path expression `p.A_1…A_m` starting
/// from `k` objects of `C_1` — the `F_i` entry of the PathSelInfo
/// dictionary (Table 12 / Table 16).
///
/// Applies §6.1 hop by hop: hop `i` fetches the pages of the `k_i` source
/// objects and chases `k_i·fan_i` references; `k_{i+1} = fref` through
/// `c(n,m,r)`.
pub fn path_forward_cost(
    p: &PhysicalParams,
    classes: &[ClassInfo], // C_1 … C_{m}, classes.len() == hops.len() + 1
    hops: &[PathHop],
    k: f64,
) -> f64 {
    path_forward_cost_clustered(p, classes, hops, k, &[])
}

/// [`path_forward_cost`] with a per-hop clustering factor (parallel to
/// `hops`; missing entries read 0). Each hop's chase term is discounted by
/// [`chase_cost`]; an all-zero (or empty) slice reproduces the paper's
/// unclustered cost exactly.
pub fn path_forward_cost_clustered(
    p: &PhysicalParams,
    classes: &[ClassInfo],
    hops: &[PathHop],
    k: f64,
    clustering: &[f64],
) -> f64 {
    debug_assert_eq!(classes.len(), hops.len() + 1);
    let mut total = 0.0;
    let mut k_i = k;
    for (i, hop) in hops.iter().enumerate() {
        let cf = clustering.get(i).copied().unwrap_or(0.0);
        total += forward_traversal_cost_clustered(
            p,
            k_i,
            &classes[i],
            hop.fan,
            classes[i + 1].nbpages,
            cf,
        );
        k_i = c_approx(hop.totlinks, hop.totref, k_i * hop.fan);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> PhysicalParams {
        PhysicalParams::paper_calibrated()
    }

    fn vehicle() -> ClassInfo {
        ClassInfo {
            cardinality: 20_000.0,
            nbpages: 2_000.0,
        }
    }

    fn drivetrain() -> ClassInfo {
        ClassInfo {
            cardinality: 10_000.0,
            nbpages: 750.0,
        }
    }

    fn engine() -> ClassInfo {
        ClassInfo {
            cardinality: 10_000.0,
            nbpages: 5_000.0,
        }
    }

    fn company() -> ClassInfo {
        ClassInfo {
            cardinality: 200_000.0,
            nbpages: 2_500.0,
        }
    }

    #[test]
    fn table16_p2_forward_cost_exact() {
        // F2 = forward traversal of v.company from all 20000 Vehicles:
        // RNDCOST(nbpg_c) + RNDCOST(20000) = 520.825 under the calibrated
        // disk (calibration has exactly one free parameter; see DESIGN.md).
        let hop = PathHop {
            fan: 1.0,
            totref: 20_000.0,
            totlinks: 20_000.0,
        };
        let f2 = path_forward_cost(&disk(), &[vehicle(), company()], &[hop], 20_000.0);
        assert!((f2 - 520.825).abs() < 1e-6, "got {f2}");
    }

    #[test]
    fn table16_p1_forward_cost_shape() {
        // F1 = v.drivetrain.engine: hop 1 touches all Vehicle pages and
        // 20000 refs; hop 2 starts from the 10000 distinct drivetrains.
        // Paper prints 771.825; our per-hop application of §6.1 gives
        // 775.33 (+0.45%) — the residual is documented in EXPERIMENTS.md.
        let hops = [
            PathHop {
                fan: 1.0,
                totref: 10_000.0,
                totlinks: 20_000.0,
            },
            PathHop {
                fan: 1.0,
                totref: 10_000.0,
                totlinks: 10_000.0,
            },
        ];
        let f1 = path_forward_cost(
            &disk(),
            &[vehicle(), drivetrain(), engine()],
            &hops,
            20_000.0,
        );
        assert!(
            (f1 - 771.825).abs() / 771.825 < 0.01,
            "within 1% of Table 16: got {f1}"
        );
        // And the ordering property that actually matters: F1 > F2.
        let hop2 = PathHop {
            fan: 1.0,
            totref: 20_000.0,
            totlinks: 20_000.0,
        };
        let f2 = path_forward_cost(&disk(), &[vehicle(), company()], &[hop2], 20_000.0);
        assert!(f1 > f2);
    }

    #[test]
    fn forward_cost_grows_with_k() {
        let p = disk();
        let c = vehicle();
        let small = forward_traversal_cost(&p, 10.0, &c, 1.0);
        let large = forward_traversal_cost(&p, 10_000.0, &c, 1.0);
        assert!(small < large);
        // k=0 costs nothing.
        assert_eq!(forward_traversal_cost(&p, 0.0, &c, 1.0), 0.0);
    }

    #[test]
    fn backward_cost_includes_both_scans_unless_cached() {
        let p = disk();
        let with = backward_traversal_cost(
            &p,
            100.0,
            10.0,
            &vehicle(),
            &engine(),
            1.0,
            false,
        );
        let without = backward_traversal_cost(
            &p,
            100.0,
            10.0,
            &vehicle(),
            &engine(),
            1.0,
            true,
        );
        assert!((with - without - seqcost(&p, engine().nbpages)).abs() < 1e-9);
    }

    #[test]
    fn hash_partition_cheaper_than_forward_for_full_extents() {
        // Joining everything: chasing 20000 pointers randomly loses to
        // 3 partitioned sequential passes — this is why Example 8.2 picks
        // HASH_PARTITION for the full-extent joins.
        let p = disk();
        let j = JoinInputs {
            k_c: 20_000.0,
            k_d: 10_000.0,
            c: vehicle(),
            d: drivetrain(),
            fan: 1.0,
            totref: 10_000.0,
            index: None,
            d_already_accessed: false,
            c_in_memory: false,
            d_in_memory: false,
            clustering: 0.0,
        };
        let ftc = join_cost(&p, JoinMethod::ForwardTraversal, &j).unwrap();
        let hhc = join_cost(&p, JoinMethod::HashPartition, &j).unwrap();
        assert!(hhc < ftc, "hhc={hhc} ftc={ftc}");
    }

    #[test]
    fn forward_beats_hash_for_few_starting_objects() {
        // With one qualifying C-object already in memory (a prior
        // operator's output, like T1 in Example 8.1), chasing one pointer
        // beats hash-partitioning — the crossover the optimizer exploits
        // after a selective predicate.
        let p = disk();
        let j = JoinInputs {
            c_in_memory: true,
            d_in_memory: false,
            k_c: 1.0,
            k_d: 10_000.0,
            c: vehicle(),
            d: drivetrain(),
            fan: 1.0,
            totref: 10_000.0,
            index: None,
            d_already_accessed: false,
            clustering: 0.0,
        };
        let ftc = join_cost(&p, JoinMethod::ForwardTraversal, &j).unwrap();
        let hhc = join_cost(&p, JoinMethod::HashPartition, &j).unwrap();
        assert!(ftc < hhc, "ftc={ftc} hhc={hhc}");
    }

    #[test]
    fn binary_join_index_requires_index() {
        let p = disk();
        let mut j = JoinInputs {
            k_c: 100.0,
            k_d: 100.0,
            c: vehicle(),
            d: drivetrain(),
            fan: 1.0,
            totref: 10_000.0,
            index: None,
            d_already_accessed: false,
            c_in_memory: false,
            d_in_memory: false,
            clustering: 0.0,
        };
        assert_eq!(join_cost(&p, JoinMethod::BinaryJoinIndex, &j), None);
        j.index = Some(IndexParams {
            order: 100.0,
            levels: 2,
            leaves: 200.0,
            keysize: 14,
            unique: false,
        });
        assert!(join_cost(&p, JoinMethod::BinaryJoinIndex, &j).unwrap() > 0.0);
    }

    #[test]
    fn best_join_method_picks_minimum() {
        let p = disk();
        let j = JoinInputs {
            k_c: 20_000.0,
            k_d: 10_000.0,
            c: vehicle(),
            d: drivetrain(),
            fan: 1.0,
            totref: 10_000.0,
            index: None,
            d_already_accessed: false,
            c_in_memory: false,
            d_in_memory: false,
            clustering: 0.0,
        };
        let (method, cost) = best_join_method(&p, &j);
        for m in JoinMethod::ALL {
            if let Some(other) = join_cost(&p, m, &j) {
                assert!(cost <= other + 1e-12, "{method:?} not minimal vs {m:?}");
            }
        }
    }

    #[test]
    fn zero_clustering_reproduces_paper_chase_exactly() {
        // Bitwise identity, not approximate: an unmeasured database must
        // price every Section 8 example exactly as before.
        let p = disk();
        assert_eq!(chase_cost(&p, 20_000.0, 2_500.0, 0.0), rndcost(&p, 20_000.0));
        assert_eq!(
            forward_traversal_cost_clustered(&p, 20_000.0, &vehicle(), 1.0, 2_500.0, 0.0),
            forward_traversal_cost(&p, 20_000.0, &vehicle(), 1.0)
        );
        let hop = PathHop {
            fan: 1.0,
            totref: 20_000.0,
            totlinks: 20_000.0,
        };
        assert_eq!(
            path_forward_cost_clustered(
                &p,
                &[vehicle(), company()],
                &[hop],
                20_000.0,
                &[0.0]
            ),
            path_forward_cost(&disk(), &[vehicle(), company()], &[hop], 20_000.0)
        );
    }

    #[test]
    fn chase_cost_falls_monotonically_with_clustering() {
        let p = disk();
        let costs: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|cf| chase_cost(&p, 20_000.0, 2_500.0, *cf))
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] < w[0], "clustering must cheapen the chase: {costs:?}");
        }
        // Fully clustered = one sequential sweep of the touched pages.
        let swept = pages_touched(2_500.0, 20_000.0);
        assert!((costs[4] - seqcost(&p, swept)).abs() < 1e-9);
        // Out-of-range factors clamp rather than extrapolate.
        assert_eq!(chase_cost(&p, 100.0, 50.0, 1.7), chase_cost(&p, 100.0, 50.0, 1.0));
        assert_eq!(chase_cost(&p, 100.0, 50.0, -0.3), chase_cost(&p, 100.0, 50.0, 0.0));
    }

    #[test]
    fn clustering_flips_full_extent_join_to_forward_traversal() {
        // A full-extent join from an in-memory temporary picks
        // HASH_PARTITION on the unclustered database — chasing 20000
        // pointers randomly loses to three partitioned passes. After
        // CLUSTER the chase degenerates to a near-sequential sweep of the
        // target pages and forward traversal wins.
        let p = disk();
        let mut j = JoinInputs {
            k_c: 20_000.0,
            k_d: 10_000.0,
            c: vehicle(),
            d: drivetrain(),
            fan: 1.0,
            totref: 10_000.0,
            index: None,
            d_already_accessed: false,
            c_in_memory: true,
            d_in_memory: false,
            clustering: 0.0,
        };
        assert_eq!(best_join_method(&p, &j).0, JoinMethod::HashPartition);
        j.clustering = 0.98;
        assert_eq!(best_join_method(&p, &j).0, JoinMethod::ForwardTraversal);
    }

    #[test]
    fn plan_names_match_paper_spelling() {
        assert_eq!(JoinMethod::HashPartition.plan_name(), "HASH_PARTITION");
        assert_eq!(
            JoinMethod::ForwardTraversal.plan_name(),
            "FORWARD_TRAVERSAL"
        );
    }
}
