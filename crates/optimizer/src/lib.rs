//! # mood-optimizer — the MOOD query optimizer
//!
//! The paper's primary research contribution (Sections 7–8 and the
//! Appendix): cost-based optimization of object-oriented queries built on
//! path expressions.
//!
//! * [`dnf`] — WHERE/HAVING normalization to disjunctive normal form;
//! * [`atomic`] — §8.1 ordering of atomic selections (index-count
//!   inequality + short-circuit residual ordering);
//! * [`path_order`] — Algorithm 8.1: path expressions by `F/(1−s)` (with
//!   the exhaustive baseline for the Appendix lemma);
//! * [`optimizer`] — predicate classification into the ImmSelInfo /
//!   PathSelInfo / OtherSelInfo dictionaries, Algorithm 8.2 (greedy
//!   implicit-join ordering by `jc/(1−js)` over the four join methods),
//!   and access-plan generation;
//! * [`plan`] — plans as values (typed predicates, join conditions and
//!   keys), rendered in the paper's
//!   `JOIN(BIND(...), SELECT(...), HASH_PARTITION, ...)` notation.

pub mod atomic;
pub mod dnf;
pub mod estimate;
pub mod optimizer;
pub mod path_order;
pub mod plan;

pub use atomic::{expected_evaluations, plan_atomic_selections, AtomicPlan, AtomicPredicate};
pub use dnf::{BoolExpr, Negate, MAX_DNF_TERMS};
pub use estimate::{estimate_plan_set, NodeEstimate};
pub use optimizer::{
    optimize, short_var, Dnf, ImmSelRow, OptimizedQuery, OptimizerConfig, OtherSelRow, PathSelRow,
    PredSpec, QuerySpec, TermPlan,
};
pub use path_order::{objective, optimal_order_exhaustive, order_paths, PathCost};
pub use plan::{Atom, AttrPath, Conjunct, Const, IndexKind, JoinOn, Plan, PlanSet, Pred};
