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
//! MOODSQL runs the set-at-a-time operators, each implemented once:
//! [`join_pairs`] (the four §6 join methods, over binding rows or, through
//! [`join()`], collections), [`ind_sel`] (the B+-tree interval walk and the
//! page-ordered, windowed fetch the joins use too) and [`Sorter`] (the
//! budgeted, spilling sort behind ORDER BY and [`sort()`]).
//!
//! Every operator is one loop on the caller's thread. `Select` is
//! [`compact`], the loop MOODSQL's scan, `INDSEL` and WHERE:UNION filter
//! their batches with; an [`ExecutionConfig`] reaches only [`sort()`] (its
//! budget) and [`join()`] (its probe batch size).

pub mod collection;
pub mod error;
pub mod join;
pub mod ops;
pub mod restructure;
pub mod setops;
pub mod slab;
pub mod sort;

pub use collection::{
    as_extent_return, as_set_list_elements, dupelim_return, join_return, select_return,
    setop_return, unnest_accepts, Collection, Kind, Obj,
};
pub use error::{AlgebraError, Result};
pub use join::{
    join, join_pairs, materialize, materializes_class, members_by_oid, pairs_to_collection,
    scan_class, Bind, Emit, JoinMethod, JoinRhs, JoinRight, LeftObj, Window,
};
pub use mood_storage::exec::ExecutionConfig;
pub use ops::{
    bind, bind_class, compact, deref, ind_sel, is_a, obj_id, select, type_id, AttrBounds, Predicate,
};
pub use restructure::{as_extent, as_list, as_set, flatten, nest, partition, project, unnest};
pub use sort::{sort, Sorter};
pub use setops::{difference, dup_elim, intersection, union};
pub use slab::Slab;
