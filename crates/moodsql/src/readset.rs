//! Read sets: for each range variable of a prepared statement, the
//! attributes of its object that the statement can read.
//!
//! The driver decodes nothing else when it binds the variable (scan, index
//! fetch, join probe), so a statement that reads `v.id` and `v.weight`
//! carries two-field tuples through its joins, groups, sort keys and spill
//! records instead of whole objects.
//!
//! A compiled expression looks attributes up by name and reads a name
//! missing from a tuple as NULL (the schema-evolution rule), so an
//! incomplete set would be a silently wrong answer, not an error.
//! Completeness is therefore by
//! construction: the collector walks the very expressions the driver
//! evaluates — the plan predicates' expressions, the join conditions, and the
//! statement's projection, GROUP BY, HAVING and ORDER BY — with an
//! exhaustive match over [`Expr`], and whatever cannot be enumerated as
//! attribute reads (a bare variable, a method invoked on the variable)
//! widens the variable to
//! [`FieldSet::All`]. Evaluators key variables by name, and so do the sets:
//! same-named variables of different DNF terms share one set. A variable's
//! rank among the sets is its slot in a binding row.

use std::collections::BTreeMap;

use mood_datamodel::FieldSet;
use mood_optimizer::{Plan, PlanSet};

use crate::ast::{Expr, PathRef, SelectStmt};
use crate::error::{Result, SqlError};

/// Range variable → the fields of its object the statement reads.
#[derive(Debug, Default)]
pub(crate) struct ReadSets(BTreeMap<String, FieldSet>);

impl ReadSets {
    /// The read sets of `stmt` executed through `plans` (one per AND-term)
    /// whose predicates and keys evaluate `preds`.
    pub fn collect<'p>(
        stmt: &SelectStmt,
        plans: impl IntoIterator<Item = &'p PlanSet>,
        preds: impl IntoIterator<Item = &'p Expr>,
    ) -> ReadSets {
        let mut sets = ReadSets::default();
        for set in plans {
            for plan in set.temps.iter().map(|(_, p)| p).chain([&set.root]) {
                sets.plan(plan);
            }
        }
        for pred in preds {
            sets.expr(pred);
        }
        for e in stmt.projection.iter().chain(&stmt.having) {
            sets.expr(e);
        }
        let order_keys = stmt.order_by.iter().map(|(p, _)| p);
        for p in stmt.group_by.iter().chain(order_keys) {
            sets.path(p);
        }
        sets
    }

    /// The slot of `var` in a [`Row`](crate::Row): its rank among the
    /// statement's variables.
    pub fn slot_of(&self, var: &str) -> Option<usize> {
        self.0.keys().position(|v| v == var)
    }

    /// The slot of a variable a plan binds; every one has a read set, so a
    /// miss is a bug in the collection.
    pub fn slot(&self, var: &str) -> Result<usize> {
        self.slot_of(var)
            .ok_or_else(|| SqlError::Exec(format!("unbound range variable {var}")))
    }

    /// What binding `var` must decode. A variable the collector never met
    /// gets the whole object.
    pub fn of(&self, var: &str) -> &FieldSet {
        self.0.get(var).unwrap_or(&FieldSet::All)
    }

    fn widen(&mut self, var: &str) {
        self.0.insert(var.to_string(), FieldSet::All);
    }

    fn read(&mut self, var: &str, attr: &str) {
        match self.0.get_mut(var) {
            Some(set) => set.insert(attr),
            None => {
                self.0
                    .insert(var.to_string(), FieldSet::Only(vec![attr.to_string()]));
            }
        }
    }

    /// The variables a plan binds, and what its joins read of them: the
    /// chased attribute of the referencing side (the referenced side joins
    /// on its OID, which is no field).
    fn plan(&mut self, plan: &Plan) {
        match plan {
            Plan::Bind { var, .. } | Plan::IndSel { var, .. } => {
                self.0.entry(var.clone()).or_insert(FieldSet::NONE);
            }
            Plan::Join { condition, .. } => self.read(&condition.var, &condition.attr),
            _ => {}
        }
        plan.children().into_iter().for_each(|child| self.plan(child))
    }

    /// A path reads its first attribute off the bound object (the rest is
    /// reached through references, which fetch whole objects); a bare
    /// variable stands for the whole object.
    fn path(&mut self, p: &PathRef) {
        match p.segments.first() {
            Some(attr) => self.read(&p.var, attr),
            None => self.widen(&p.var),
        }
    }

    /// A method body reads whatever it likes of its receiver: the variable
    /// itself must be whole; a receiver reached through a path is fetched
    /// whole by the call.
    fn expr(&mut self, e: &Expr) {
        let _ = e.paths(&mut |p, _| { self.path(p); Ok::<_, ()>(()) });
    }
}

/// One `EXPLAIN` comment line per range variable: `-- Reads: v {id, weight}`
/// or `-- Reads: v *`.
impl std::fmt::Display for ReadSets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (var, fields) in &self.0 {
            writeln!(f, "-- Reads: {var} {fields}")?;
        }
        Ok(())
    }
}
