//! # mood-algebra — the MOOD object algebra
//!
//! Section 3.2 of the paper: general operators (`ObjId`, `TypeId`, `Deref`,
//! `isA`, `Bind`), collection operators (`Select`, `IndSel`, `Project`,
//! `Join` with four methods, `Partition`, `Sort`, `DupElim`, `Union`,
//! `Intersection`, `Difference`) and conversion operators (`asSet`,
//! `asList`, `asExtent`, `Unnest`, `Nest`, `Flatten`) — with the
//! return-type rules of Tables 1–7 enforced and encoded as pure functions
//! ([`collection`]).
//!
//! The four join methods compute identical pairs but with the §6 access
//! patterns, which the instrumented storage layer exposes for the cost
//! model benches. [`join_pairs`] is their only implementation: MOODSQL's
//! executor runs it over binding rows, [`join()`] over collections.
//!
//! Every other collection operator with per-element work is one function
//! of an [`ExecutionConfig`]: the input is cut into `parallelism`
//! contiguous chunks, the chunks run on scoped worker threads and their
//! outputs are concatenated in chunk order, so results (and page-access
//! totals) are the same at every parallelism and `parallelism = 1` is the
//! plain loop on the caller's thread. Joins, like `union`, ignore the
//! parallelism.

pub mod collection;
pub mod error;
pub mod join;
pub mod ops;
pub mod restructure;
pub mod setops;

pub use collection::{
    as_extent_return, as_set_list_elements, dupelim_return, join_return, select_return,
    setop_return, unnest_accepts, Collection, Kind, Obj,
};
pub use error::{AlgebraError, Result};
pub use join::{
    join, join_pairs, materialize, materializes_class, members_by_oid, pairs_to_collection,
    scan_class, Bind, Emit, JoinMethod, JoinRhs, JoinRight, LeftObj,
};
pub use mood_storage::exec::ExecutionConfig;
pub use ops::{
    bind, bind_class, deref, ind_sel, is_a, obj_id, select, type_id, IndexType, Predicate,
};
pub use restructure::{
    as_extent, as_list, as_set, flatten, nest, partition, project, sort, unnest,
};
pub use setops::{difference, dup_elim, intersection, union};
