//! # mood-cost — the MOOD cost model
//!
//! Sections 4–6 of the paper: selectivity of atomic and path-expression
//! predicates, costs of the basic file operations, and costs of the four
//! implicit-join strategies. Everything is a pure function of the Table
//! 8–10 statistics, so the optimizer crate can cost plans without touching
//! storage, and benches can compare model predictions against measured page
//! counts.
//!
//! * [`approx`] — `c(n,m,r)`, `o(t,x,y)`, plus exact Yao/Cardenas forms;
//! * [`selectivity`] — §4.1 atomic and path selectivities;
//! * [`fileops`] — §5 `SEQCOST` / `RNDCOST` / `INDCOST` / `RNGXCOST`;
//! * [`joincost`] — §6 `ftc` / `btc` / `bjc` / `hhc` and path forward cost.

pub mod approx;
pub mod fileops;
pub mod joincost;
pub mod selectivity;

pub use approx::{c_approx, cardenas, o_overlap, yao};
pub use fileops::{
    ind_pages, indcost, pages_touched, rndcost, rngxcost, seqcost, seqcost_batched, IndexParams,
};
pub use joincost::{
    backward_traversal_cost, best_join_method, binary_join_index_cost, chase_cost, chase_pages,
    forward_traversal_cost, forward_traversal_cost_clustered, forward_traversal_cost_in_memory,
    hash_partition_cost, hash_partition_cost_in_memory, join_cost, join_pages, path_forward_cost,
    path_forward_cost_clustered, ClassInfo, JoinInputs, JoinMethod, CPU_COST,
};
pub use mood_storage::PhysicalParams;
pub use selectivity::{
    atomic_selectivity, between_selectivity, bounds_selectivity, fref, path_selectivity, Domain,
    PathHop, PathPredicate, Theta,
};
