//! The SELECT tail: everything Figure 7.1 places after WHERE, as one push
//! pipeline.
//!
//! The driver builds a [`Tail`] per execution and every term's root
//! operator pushes its bindings into it batch by batch ([`Sink`]) — a
//! single-variable scan as the `(Oid, Value)` batch it decoded (no [`Row`]
//! is built), anything else as rows. Each clause keeps what it needs of the
//! stream, never the stream:
//!
//! * **WHERE:UNION** (several DNF terms) — the bound-OID tuples let through.
//! * **Project** — nothing; **Distinct** — the encoded output tuples.
//! * **Aggregate** — per group, in first-appearance order, one accumulator
//!   per aggregate call and the first row's value of every other operand of
//!   SELECT/HAVING. Past `sort_budget` *groups*, rows of further groups go
//!   to hash-partition files as `(key, input index, operand inputs)`
//!   records; each file is read once at the end.
//! * **Sort** — `(input index, keys ++ output row)` records: the projection
//!   is evaluated while the object is at hand. Every `sort_budget` records
//!   become one sorted run on disk, k-way merged at the end: the algebra's
//!   [`Sorter`], which the collection `Sort` runs too. Distinct
//!   follows Sort, so a duplicate keeps its first position in sorted order.
//!
//! Expressions are evaluated as the rows stream by, so an evaluation error
//! ends the statement where it occurs; only an aggregate's complaint about
//! its input (`SUM` over a string) waits until that aggregate is read, as
//! HAVING's short-circuit order requires.
//!
//! Every stage owns its work in the execution's [`Ledger`]: a push makes
//! each stage it reaches the owner in turn and hands the moment back to the
//! feeding plan node when it returns, so rows, pages and time accumulate per
//! stage across batches and the node is charged none of them.

use std::collections::{HashMap, HashSet};

use mood_algebra::compact;
use mood_algebra::sort::{decode_indexed_list, spill_corrupt, spill_err, Sorter};
use mood_datamodel::{encode_value_into, Value};
use mood_storage::spill::SpillFile;
use mood_storage::{Metric, Oid, StorageManager};

use crate::analyze::{Ledger, Owner};
use crate::ast::{Expr, SelectStmt};
use crate::compiled::{PreparedExpr, RowView, Scratch};
use crate::error::{Result, SqlError};
use crate::exec::{Executor, PreparedQuery, QueryResult, Row};
use crate::readset::ReadSets;

/// Where a plan node's output goes: the statement's tail, a DML target
/// collector, a join's input, or a plain row vector.
pub(crate) trait Sink {
    /// Consume scanned objects bound to `var`. The slots stay the
    /// caller's: a sink reads the objects in place, and one that keeps an
    /// object takes it out (`mem::replace(v, Value::Null)`). A scan decodes
    /// its next batch into whatever the sink left.
    fn push_objects(&mut self, var: &str, items: &mut [(Oid, Value)]) -> Result<()>;
    fn push_rows(&mut self, rows: Vec<Row>) -> Result<()>;
}

// ----------------------------------------------------------------------
// Stages
// ----------------------------------------------------------------------

/// Stage rows in clause order: an ungrouped ORDER BY reads the bound rows,
/// a grouped one names output columns.
const UNGROUPED: [&str; 4] = ["WHERE:UNION", "ORDER BY", "PROJECT", "DISTINCT"];
const GROUPED: [&str; 6] = [
    "WHERE:UNION",
    "GROUP BY",
    "HAVING",
    "PROJECT",
    "ORDER BY",
    "DISTINCT",
];

/// One pushed batch: scanned objects of one variable, or binding rows.
#[derive(Clone, Copy)]
enum Batch<'b> {
    Objects(&'b str, &'b [(Oid, Value)]),
    Rows(&'b [Row], &'b ReadSets),
}

impl<'b> Batch<'b> {
    fn len(self) -> usize {
        match self {
            Batch::Objects(_, items) => items.len(),
            Batch::Rows(rows, _) => rows.len(),
        }
    }

    fn views(self) -> impl Iterator<Item = RowView<'b>> {
        (0..self.len()).map(move |i| match self {
            Batch::Objects(var, items) => RowView::Object {
                var,
                oid: items[i].0,
                value: &items[i].1,
            },
            Batch::Rows(rows, slots) => RowView::Row(&rows[i], slots),
        })
    }
}

// ----------------------------------------------------------------------
// Aggregate
// ----------------------------------------------------------------------

/// The group-level operands of a grouped statement, in a fixed order: the
/// projection columns, then what HAVING compares or tests (its connectives
/// and comparisons work on groups; anything else is an operand). Each is an
/// aggregate call or an expression read off the group's first row, and
/// each gets one cell per group.
pub(crate) fn group_operands(stmt: &SelectStmt) -> Vec<&Expr> {
    fn having<'s>(e: &'s Expr, out: &mut Vec<&'s Expr>) {
        match e {
            Expr::And(parts) | Expr::Or(parts) => parts.iter().for_each(|p| having(p, out)),
            Expr::Not(inner) => having(inner, out),
            Expr::Compare { left, right, .. } => out.extend([&**left, &**right]),
            other => out.push(other),
        }
    }
    let mut out: Vec<&Expr> = stmt.projection.iter().collect();
    if let Some(h) = &stmt.having {
        having(h, &mut out);
    }
    out
}

/// What an operand evaluates on each row: an aggregate's argument (`None`
/// for `COUNT(*)`), or the expression itself.
pub(crate) fn operand_input(operand: &Expr) -> Option<&Expr> {
    match operand {
        Expr::Agg { arg, .. } => arg.as_deref(),
        other => Some(other),
    }
}

/// One group's state for one operand.
enum Cell {
    Acc(Acc),
    First(Value),
}

/// A group's cell for `operand` before its first row.
fn empty_cell(operand: &Expr) -> Cell {
    match operand {
        Expr::Agg { .. } => Cell::Acc(Acc::new()),
        _ => Cell::First(Value::Null),
    }
}

/// COUNT/SUM/AVG/MIN/MAX state. Values are added in input order, so a
/// float result is the one a left-to-right fold over the group gives.
struct Acc {
    /// Rows seen (`COUNT(*)`) or non-NULL arguments seen.
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
    /// The first non-numeric argument: an error for every function but
    /// COUNT, raised when the aggregate is read.
    bad: Option<Value>,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            // What `Iterator::sum` starts from.
            sum: std::iter::empty::<f64>().sum(),
            min: None,
            max: None,
            bad: None,
        }
    }

    fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        match v.as_f64() {
            Some(x) => {
                self.sum += x;
                self.min = Some(self.min.map_or(x, |m| m.min(x)));
                self.max = Some(self.max.map_or(x, |m| m.max(x)));
            }
            None if self.bad.is_none() => self.bad = Some(v.clone()),
            None => {}
        }
    }
}

/// The value of `operand` for a finished group.
fn cell_value(operand: &Expr, cell: &Cell) -> Result<Value> {
    use crate::ast::AggFunc;
    let (func, arg, acc) = match (operand, cell) {
        (Expr::Agg { func, arg }, Cell::Acc(acc)) => (*func, arg, acc),
        (_, Cell::First(v)) => return Ok(v.clone()),
        _ => {
            return Err(SqlError::Exec(
                "group cell does not match its operand".into(),
            ))
        }
    };
    let float = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
    let value = match func {
        AggFunc::Count => return Ok(Value::Integer(acc.count as i32)),
        AggFunc::Sum => Value::Float(acc.sum),
        AggFunc::Avg if acc.count == 0 => Value::Null,
        AggFunc::Avg => Value::Float(acc.sum / acc.count as f64),
        AggFunc::Min => float(acc.min),
        AggFunc::Max => float(acc.max),
    };
    let name = func.name();
    match &acc.bad {
        _ if arg.is_none() => Err(SqlError::Exec(format!("{name}() requires an argument"))),
        Some(v) => Err(SqlError::Exec(format!(
            "{name}() over non-numeric value {v}"
        ))),
        None => Ok(value),
    }
}

/// Spill files a grouped statement hashes its overflow groups across. A
/// partition's groups are aggregated in memory, whatever their number.
const AGG_PARTITIONS: usize = 64;

/// A group's cells with its first-appearance rank: the position among the
/// groups held in memory, or the input index of a spilled group's first row
/// (every group in memory appeared before any that spilled).
type Group = (usize, Vec<Cell>);

/// Streaming GROUP BY.
#[derive(Default)]
struct Aggregator<'e> {
    operands: Vec<&'e Expr>,
    keys: &'e [PreparedExpr],
    /// What each operand evaluates per row, index-aligned with `operands`.
    inputs: Vec<Option<&'e PreparedExpr>>,
    /// Output columns a (grouped) ORDER BY's keys name.
    sort_columns: Vec<usize>,
    budget: usize,
    index: HashMap<Vec<u8>, usize>,
    groups: Vec<Vec<Cell>>,
    /// Rows of groups that did not fit, hash-partitioned by key.
    parts: Vec<Option<SpillFile>>,
    /// Input rows seen: the index a spilled record carries.
    seen: usize,
    key: Vec<u8>,
    record: Vec<u8>,
}

impl Aggregator<'_> {
    fn add(
        &mut self,
        ctx: &mut Scratch<'_, '_>,
        sm: &StorageManager,
        view: RowView<'_>,
    ) -> Result<()> {
        self.seen += 1;
        // Without GROUP BY there is one group: no key, no lookup.
        let found = match self.keys {
            [] => (!self.groups.is_empty()).then_some(0),
            keys => {
                self.key.clear();
                for k in keys {
                    encode_value_into(&mut self.key, ctx.eval(k, view)?);
                    self.key.push(0xFE);
                }
                self.index.get(self.key.as_slice()).copied()
            }
        };
        let gi = match found {
            Some(gi) => gi,
            None if self.groups.len() < self.budget => {
                let mut cells = Vec::with_capacity(self.operands.len());
                for (operand, input) in self.operands.iter().zip(&self.inputs) {
                    cells.push(match (empty_cell(operand), input) {
                        (Cell::First(_), Some(e)) => Cell::First(ctx.eval(e, view)?.clone()),
                        (cell, _) => cell,
                    });
                }
                self.groups.push(cells);
                if !self.keys.is_empty() {
                    self.index.insert(self.key.clone(), self.groups.len() - 1);
                }
                self.groups.len() - 1
            }
            None => {
                // Memory holds `budget` groups: this row waits in its
                // key's partition with everything its group will need —
                // `[key len u32][key][input index u64][List(inputs)]`.
                let mut inputs = Vec::with_capacity(self.inputs.len());
                for input in self.inputs.iter().flatten() {
                    inputs.push(ctx.eval(input, view)?.clone());
                }
                self.record.clear();
                self.record.extend((self.key.len() as u32).to_le_bytes());
                self.record.extend(&self.key);
                self.record.extend((self.seen as u64 - 1).to_le_bytes());
                encode_value_into(&mut self.record, &Value::List(inputs));
                if self.parts.is_empty() {
                    self.parts.resize_with(AGG_PARTITIONS, || None);
                }
                let file = match &mut self.parts[fnv1a(&self.key) as usize % AGG_PARTITIONS] {
                    Some(f) => f,
                    slot => slot.insert(sm.spill_file().map_err(spill_err)?),
                };
                return Ok(file.write_record(&self.record).map_err(spill_err)?);
            }
        };
        for (input, cell) in self.inputs.iter().zip(&mut self.groups[gi]) {
            if let Cell::Acc(acc) = cell {
                match input {
                    None => acc.count += 1,
                    Some(e) => acc.add(ctx.eval(e, view)?),
                }
            }
        }
        Ok(())
    }

    /// The groups held in memory. Aggregates without GROUP BY form one
    /// group even over no input.
    fn take_memory(&mut self) -> Vec<Group> {
        if self.keys.is_empty() && self.groups.is_empty() {
            self.groups
                .push(self.operands.iter().map(|o| empty_cell(o)).collect());
        }
        self.index = HashMap::new();
        std::mem::take(&mut self.groups)
            .into_iter()
            .enumerate()
            .collect()
    }

    /// Read the next partition file, once, and aggregate it in memory.
    fn next_partition(&mut self, ex: &Executor<'_>) -> Result<Option<Vec<Group>>> {
        let Some(file) = std::iter::from_fn(|| self.parts.pop()).flatten().next() else {
            return Ok(None);
        };
        let sm = ex.catalog.storage();
        sm.registry().add(Metric::AggSpilledPartitions, 1);
        let mut reader = file.into_reader(Some(sm.metrics())).map_err(spill_err)?;
        reader.charge_sequential_read(sm.metrics());
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        while let Some(rec) = reader.next_record().map_err(spill_err)? {
            let len = rec.get(..4).ok_or_else(spill_corrupt)?;
            let len = u32::from_le_bytes(len.try_into().expect("4-byte slice")) as usize;
            let key = rec.get(4..4 + len).ok_or_else(spill_corrupt)?;
            let (at, inputs) = decode_indexed_list(&rec[4 + len..])?;
            let gi = match index.get(key) {
                Some(&gi) => gi,
                None => {
                    index.insert(key.to_vec(), groups.len());
                    groups.push((at, self.operands.iter().map(|o| empty_cell(o)).collect()));
                    groups.len() - 1
                }
            };
            let (first, cells) = &mut groups[gi];
            let mut values = inputs.into_iter();
            for (input, cell) in self.inputs.iter().zip(cells) {
                let value = match input {
                    Some(_) => Some(values.next().ok_or_else(spill_corrupt)?),
                    None => None,
                };
                match (cell, value) {
                    (Cell::Acc(acc), None) => acc.count += 1,
                    (Cell::Acc(acc), Some(v)) => acc.add(&v),
                    (Cell::First(slot), Some(v)) if at == *first => *slot = v,
                    (Cell::First(_), _) => {}
                }
            }
        }
        Ok(Some(groups))
    }

    /// Does a finished group pass HAVING (`e`: the clause or a part of it)?
    fn keeps(&self, e: &Expr, cells: &[Cell]) -> Result<bool> {
        Ok(match e {
            Expr::And(parts) => {
                for p in parts {
                    if !self.keeps(p, cells)? {
                        return Ok(false);
                    }
                }
                true
            }
            Expr::Or(parts) => {
                for p in parts {
                    if self.keeps(p, cells)? {
                        return Ok(true);
                    }
                }
                false
            }
            Expr::Not(inner) => !self.keeps(inner, cells)?,
            Expr::Compare { op, left, right } => {
                let (l, r) = (self.operand(left, cells)?, self.operand(right, cells)?);
                if l.is_null() || r.is_null() {
                    return Ok(false);
                }
                let Some(ord) = l.compare(&r) else {
                    return Err(SqlError::Exec(format!("cannot compare {l} with {r}")));
                };
                op.holds(ord)
            }
            other => matches!(self.operand(other, cells)?, Value::Boolean(true)),
        })
    }

    /// The value of one of HAVING's operands: the cell [`group_operands`]
    /// gave this very expression.
    fn operand(&self, e: &Expr, cells: &[Cell]) -> Result<Value> {
        let at = self.operands.iter().position(|o| std::ptr::eq(*o, e));
        let at = at.ok_or_else(|| SqlError::Exec("HAVING operand without a cell".into()))?;
        cell_value(e, &cells[at])
    }
}

/// FNV-1a over a group key: the partition hash. Any stable hash works
/// (equal keys must land in one partition); FNV keeps it dependency-free
/// and deterministic across runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ----------------------------------------------------------------------
// The tail
// ----------------------------------------------------------------------

/// Set semantics over the union of DNF terms: the FROM-list bindings
/// already let through. A term's plan may also bind the optimizer's path
/// variables, and two terms that reach one object by different paths still
/// answer it once.
struct Union {
    /// The statement's range variables, in FROM order, with their slots.
    vars: Vec<(String, Option<usize>)>,
    seen: HashSet<Vec<Option<Oid>>>,
}

impl Union {
    fn admit(&mut self, row: &Row) -> bool {
        let bound = |slot: Option<usize>| row.get(slot?).and_then(|b| b.oid);
        let key = self.vars.iter().map(|&(_, slot)| bound(slot));
        self.seen.insert(key.collect())
    }

    /// [`Union::admit`] for one object bound to `var` alone.
    fn admit_object(&mut self, var: &str, oid: Oid) -> bool {
        let key = self.vars.iter().map(|(v, _)| (v == var).then_some(oid));
        self.seen.insert(key.collect())
    }
}

pub(crate) struct Tail<'e, 'a> {
    ex: &'e Executor<'a>,
    stmt: &'e SelectStmt,
    /// The column labels, when prepare could render them.
    labels: Option<&'e [String]>,
    /// Registers and a per-batch dereference cache for everything the tail
    /// evaluates: a sub-object shared by many records of a batch is fetched
    /// once.
    scratch: Scratch<'e, 'a>,
    ledger: &'e Ledger<'e>,
    batch: usize,
    /// The row slots of the statement's variables.
    slots: &'e ReadSets,
    union: Option<Union>,
    /// Ungrouped: the projection and the ORDER BY keys.
    cols: &'e [PreparedExpr],
    keys: &'e [PreparedExpr],
    /// Grouped: the aggregation the bindings go through first.
    agg: Option<Aggregator<'e>>,
    sort: Option<Sorter>,
    distinct: Option<HashSet<Vec<u8>>>,
    /// One batch's projected rows on their way to the result, the encoded
    /// row DISTINCT looks up, and the row a binding projects to before
    /// DISTINCT has seen it: kept from batch to batch.
    rows: Vec<Vec<Value>>,
    key: Vec<u8>,
    candidate: Vec<Value>,
    out: Vec<Vec<Value>>,
}

impl<'e, 'a> Tail<'e, 'a> {
    pub fn new(
        ex: &'e Executor<'a>,
        pq: &'e PreparedQuery,
        ledger: &'e Ledger<'e>,
    ) -> Tail<'e, 'a> {
        let stmt = &pq.stmt;
        let budget = ex.config.execution.sort_budget.max(2);
        let mut asc: Vec<bool> = stmt.order_by.iter().map(|(_, asc)| *asc).collect();
        let agg = crate::exec::is_grouped(stmt).then(|| {
            let operands = group_operands(stmt);
            // `pq.cols` holds the inputs of the operands that have one, in
            // operand order.
            let mut inputs = pq.cols.iter();
            let mut input = |operand: &&Expr| operand_input(operand).and_then(|_| inputs.next());
            // A grouped ORDER BY sorts output rows by the columns its keys
            // name; a key naming no column is skipped.
            let label = |e: &Expr| e.render_with(ex.params());
            let column = |key: &PreparedExpr| {
                let key = key.expr.render();
                stmt.projection.iter().position(|e| label(e) == key)
            };
            let sort_columns: Vec<usize> = pq.order_keys.iter().filter_map(column).collect();
            asc.truncate(sort_columns.len());
            Aggregator {
                inputs: operands.iter().map(&mut input).collect(),
                operands,
                keys: &pq.group_keys,
                sort_columns,
                budget,
                ..Aggregator::default()
            }
        });
        let present = |stage: &&str| match *stage {
            "WHERE:UNION" => pq.terms.len() > 1,
            "HAVING" => stmt.having.is_some(),
            "ORDER BY" => !stmt.order_by.is_empty(),
            "DISTINCT" => stmt.distinct,
            _ => true,
        };
        let order: &[&'static str] = if agg.is_some() { &GROUPED } else { &UNGROUPED };
        // Listed in clause order: each is reported even if it never runs.
        for &stage in order.iter().filter(|s| present(s)) {
            ledger.count(Owner::Stage(stage), 0);
        }
        Tail {
            ex,
            stmt,
            labels: pq.labels.as_deref(),
            scratch: Scratch::new(ex),
            ledger,
            batch: ex.config.execution.batch_size.max(1),
            slots: &pq.reads,
            union: (pq.terms.len() > 1).then(|| Union {
                vars: (stmt.from.iter())
                    .map(|item| (item.var.clone(), pq.reads.slot_of(&item.var)))
                    .collect(),
                seen: HashSet::new(),
            }),
            cols: &pq.cols,
            keys: &pq.order_keys,
            agg,
            sort: (!stmt.order_by.is_empty()).then(|| Sorter::new(asc, budget)),
            distinct: stmt.distinct.then(HashSet::new),
            rows: Vec::new(),
            key: Vec::new(),
            candidate: Vec::new(),
            out: Vec::new(),
        }
    }

    fn consume(&mut self, batch: Batch<'_>) -> Result<()> {
        self.scratch.next_batch();
        if let Some(agg) = &mut self.agg {
            self.ledger.switch(Owner::Stage("GROUP BY"));
            for view in batch.views() {
                agg.add(&mut self.scratch, self.ex.catalog.storage(), view)?;
            }
            return Ok(());
        }
        let unsorted = self.sort.is_none();
        if let Some(mut seen) = self.distinct.take_if(|_| unsorted) {
            let done = self.project_distinct(&mut seen, batch);
            self.distinct = Some(seen);
            return done;
        }
        // Each record becomes its sort keys followed by its projected row,
        // both evaluated while the object is at hand.
        self.ledger.switch(Owner::Stage("PROJECT"));
        let width = self.keys.len() + self.cols.len();
        let mut rows = std::mem::take(&mut self.rows);
        rows.reserve(batch.len());
        for view in batch.views() {
            let mut vals = Vec::with_capacity(width);
            for col in self.keys.iter().chain(self.cols) {
                vals.push(self.scratch.eval(col, view)?.clone());
            }
            rows.push(vals);
        }
        self.ledger.count(Owner::Stage("PROJECT"), rows.len() as u64);
        let passed = self.after_project(&mut rows);
        self.rows = rows;
        passed
    }

    /// Ungrouped DISTINCT with no ORDER BY before it: each binding's
    /// projection is encoded into the DISTINCT key from the values its
    /// programs lend, and copied into the one candidate row kept from
    /// binding to binding; only a first occurrence becomes a row of the
    /// result. The lookups share the projection's loop, so PROJECT owns
    /// them; DISTINCT counts the rows it lets through.
    fn project_distinct(&mut self, seen: &mut HashSet<Vec<u8>>, batch: Batch<'_>) -> Result<()> {
        let Tail { scratch, ledger, cols, candidate, key, out, .. } = self;
        ledger.switch(Owner::Stage("PROJECT"));
        candidate.resize(cols.len(), Value::Null);
        let kept = out.len();
        for view in batch.views() {
            key.clear();
            for (col, cell) in cols.iter().zip(candidate.iter_mut()) {
                let value = scratch.eval(col, view)?;
                encode_value_into(key, value);
                cell.clone_from(value);
            }
            if !seen.contains(key.as_slice()) {
                seen.insert(key.clone());
                out.push(candidate.clone());
            }
        }
        ledger.count(Owner::Stage("PROJECT"), batch.len() as u64);
        ledger.count(Owner::Stage("DISTINCT"), (out.len() - kept) as u64);
        Ok(())
    }

    /// Projected rows (behind their sort keys when the statement sorts) go
    /// to the sorter, or on to DISTINCT and the result; `rows` is left
    /// empty.
    fn after_project(&mut self, rows: &mut Vec<Vec<Value>>) -> Result<()> {
        let Some(sorter) = &mut self.sort else {
            self.sink(rows);
            return Ok(());
        };
        self.ledger.switch(Owner::Stage("ORDER BY"));
        self.ledger.count(Owner::Stage("ORDER BY"), rows.len() as u64);
        for vals in rows.drain(..) {
            sorter.push(self.ex.catalog.storage(), vals)?;
        }
        Ok(())
    }

    /// DISTINCT (first occurrence wins), then the result; `rows` is left
    /// empty.
    fn sink(&mut self, rows: &mut Vec<Vec<Value>>) {
        if let Some(seen) = &mut self.distinct {
            self.ledger.switch(Owner::Stage("DISTINCT"));
            let key = &mut self.key;
            rows.retain(|row| {
                key.clear();
                for v in row {
                    encode_value_into(key, v);
                }
                !seen.contains(key) && seen.insert(key.clone())
            });
            self.ledger.count(Owner::Stage("DISTINCT"), rows.len() as u64);
        }
        if self.out.is_empty() {
            std::mem::swap(&mut self.out, rows);
        } else {
            self.out.append(rows);
        }
    }

    /// HAVING and the projection over finished groups; a survivor's row
    /// keeps its group's rank.
    fn finish_groups(
        &mut self,
        agg: &Aggregator<'_>,
        mut groups: Vec<Group>,
    ) -> Result<Vec<(usize, Vec<Value>)>> {
        self.ledger.count(Owner::Stage("GROUP BY"), groups.len() as u64);
        if let Some(h) = &self.stmt.having {
            self.ledger.switch(Owner::Stage("HAVING"));
            let mut verdicts = Vec::with_capacity(groups.len());
            for (_, cells) in &groups {
                verdicts.push(agg.keeps(h, cells)?);
            }
            let mut verdicts = verdicts.into_iter();
            groups.retain(|_| verdicts.next().expect("one verdict per group"));
            self.ledger.count(Owner::Stage("HAVING"), groups.len() as u64);
        }
        self.ledger.switch(Owner::Stage("PROJECT"));
        let ncols = self.stmt.projection.len();
        let mut rows = Vec::with_capacity(groups.len());
        for (rank, cells) in groups {
            let projected = agg.operands[..ncols].iter().zip(&cells);
            let row = projected
                .map(|(o, c)| cell_value(o, c))
                .collect::<Result<Vec<_>>>()?;
            // The sort keys are the columns they name, copied in front.
            let mut vals: Vec<Value> = agg.sort_columns.iter().map(|&c| row[c].clone()).collect();
            vals.extend(row);
            rows.push((rank, vals));
        }
        self.ledger.count(Owner::Stage("PROJECT"), rows.len() as u64);
        Ok(rows)
    }

    /// End of input: finish the groups, drain the sorter, and hand back the
    /// result; the coordinator owns what follows.
    pub fn finish(mut self) -> Result<QueryResult> {
        if let Some(mut agg) = self.agg.take() {
            let strip = |rows: Vec<(usize, Vec<Value>)>| -> Vec<Vec<Value>> {
                rows.into_iter().map(|(_, r)| r).collect()
            };
            self.ledger.switch(Owner::Stage("GROUP BY"));
            let memory = agg.take_memory();
            let rows = self.finish_groups(&agg, memory)?;
            self.after_project(&mut strip(rows))?;
            // Spilled groups come back partition by partition; first
            // appearance orders them across partitions.
            let mut late = Vec::new();
            loop {
                self.ledger.switch(Owner::Stage("GROUP BY"));
                let groups = agg.next_partition(self.ex)?;
                let Some(groups) = groups else { break };
                late.extend(self.finish_groups(&agg, groups)?);
            }
            late.sort_unstable_by_key(|(first, _)| *first);
            self.after_project(&mut strip(late))?;
        }
        if let Some(mut sorter) = self.sort.take() {
            loop {
                self.ledger.switch(Owner::Stage("ORDER BY"));
                let mut rows = sorter.next_batch(self.ex.catalog.storage(), self.batch)?;
                if rows.is_empty() {
                    break;
                }
                self.sink(&mut rows);
            }
        }
        self.ledger.switch(Owner::Coordinator);
        // The trace lists the clauses in Figure 7.1's order, once each.
        for stage in self.ledger.stages() {
            if !matches!(stage.name, "PLAN" | "WHERE:UNION" | "DISTINCT") {
                self.ex.mark(stage.name);
            }
        }
        // The projection as written, so a parameter reads as the literal
        // it stands for.
        let columns = match self.labels {
            Some(labels) => labels.to_vec(),
            None => self.stmt.projection.iter().map(|e| e.render_with(self.ex.params())).collect(),
        };
        Ok(QueryResult { columns, rows: self.out })
    }
}

impl Sink for Tail<'_, '_> {
    fn push_objects(&mut self, var: &str, items: &mut [(Oid, Value)]) -> Result<()> {
        let feeder = self.ledger.owner();
        let mut n = items.len();
        if let Some(union) = &mut self.union {
            self.ledger.switch(Owner::Stage("WHERE:UNION"));
            n = compact(items, |(oid, _)| {
                Ok::<_, SqlError>(union.admit_object(var, *oid))
            })?;
            self.ledger.count(Owner::Stage("WHERE:UNION"), n as u64);
        }
        self.consume(Batch::Objects(var, &items[..n]))?;
        self.ledger.switch(feeder);
        Ok(())
    }

    fn push_rows(&mut self, mut rows: Vec<Row>) -> Result<()> {
        let feeder = self.ledger.owner();
        if let Some(union) = &mut self.union {
            self.ledger.switch(Owner::Stage("WHERE:UNION"));
            rows.retain(|row| union.admit(row));
            self.ledger.count(Owner::Stage("WHERE:UNION"), rows.len() as u64);
        }
        for chunk in rows.chunks(self.batch) {
            self.consume(Batch::Rows(chunk, self.slots))?;
        }
        self.ledger.switch(feeder);
        Ok(())
    }
}
