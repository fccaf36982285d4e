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
//!   become one sorted run on disk, k-way merged at the end. Distinct
//!   follows Sort, so a duplicate keeps its first position in sorted order.
//!
//! Expressions are evaluated as the rows stream by, so an evaluation error
//! ends the statement where it occurs; only an aggregate's complaint about
//! its input (`SUM` over a string) waits until that aggregate is read, as
//! HAVING's short-circuit order requires.
//!
//! Every stage's work runs inside a window of the [`Clock`]: rows, page
//! delta and time accumulate per stage across batches. The windows open
//! while the feeding plan node is still running, so the node subtracts the
//! growth of [`Sink::spent`] from its own window — Σ node exclusives + Σ
//! stage deltas == statement total stays exact.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use mood_datamodel::{decode_value, encode_value_into, Value};
use mood_storage::spill::{SpillFile, SpillReader};
use mood_storage::{DiskMetrics, Metric, MetricsSnapshot, Oid};

use crate::analyze::{StageActual, StageRec};
use crate::ast::{Expr, SelectStmt};
use crate::compiled::{PreparedExpr, RowView, Scratch};
use crate::error::{Result, SqlError};
use crate::exec::{bind_one, Executor, PreparedQuery, QueryResult, Row};

/// Where a plan node's output goes: the statement's tail, a DML target
/// collector, or — for a node feeding a join — a plain row vector.
pub(crate) trait Sink {
    /// Consume scanned objects bound to `var`, leaving `items` empty for
    /// the scan to refill.
    fn push_objects(&mut self, var: &str, items: &mut Vec<(Oid, Value)>) -> Result<()>;
    fn push_rows(&mut self, rows: Vec<Row>) -> Result<()>;
    /// Page delta and time the sink has accounted to stages of its own.
    fn spent(&self) -> (MetricsSnapshot, u64) {
        Default::default()
    }
    /// The nested-loop FROM stage, measured by its driver (the sink's own
    /// windows already subtracted).
    fn record_from(&mut self, _rows: u64, _delta: MetricsSnapshot, _nanos: u64) {}
}

impl Sink for Vec<Row> {
    fn push_objects(&mut self, var: &str, items: &mut Vec<(Oid, Value)>) -> Result<()> {
        self.extend(
            items
                .drain(..)
                .map(|(oid, value)| bind_one(var, oid, value)),
        );
        Ok(())
    }

    fn push_rows(&mut self, mut rows: Vec<Row>) -> Result<()> {
        if self.is_empty() {
            *self = rows;
        } else {
            self.append(&mut rows);
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Stage windows
// ----------------------------------------------------------------------

/// Stage rows in clause order: an ungrouped ORDER BY reads the bound rows,
/// a grouped one names output columns.
const UNGROUPED: [&str; 5] = ["FROM", "WHERE:UNION", "ORDER BY", "PROJECT", "DISTINCT"];
const GROUPED: [&str; MAX_STAGES] = [
    "FROM",
    "WHERE:UNION",
    "GROUP BY",
    "HAVING",
    "PROJECT",
    "ORDER BY",
    "DISTINCT",
];

const MAX_STAGES: usize = 7;

/// Per-stage accumulators (the statement's own stages, in clause order)
/// plus the running total of every window opened.
struct Clock {
    metrics: DiskMetrics,
    stages: [Option<StageActual>; MAX_STAGES],
    spent: (MetricsSnapshot, u64),
}

impl Clock {
    fn start(&self) -> (Instant, MetricsSnapshot) {
        (Instant::now(), self.metrics.snapshot())
    }

    /// Close a window opened by [`Clock::start`]: `rows` more out of `stage`.
    fn stop(&mut self, stage: &str, (start, before): (Instant, MetricsSnapshot), rows: u64) {
        let delta = self.metrics.snapshot().delta(&before);
        let nanos = start.elapsed().as_nanos() as u64;
        self.add(stage, rows, delta, nanos);
        self.spent = (self.spent.0.plus(&delta), self.spent.1 + nanos);
    }

    fn add(&mut self, stage: &str, rows: u64, delta: MetricsSnapshot, nanos: u64) {
        if let Some(s) = self.stages.iter_mut().flatten().find(|s| s.name == stage) {
            s.rows += rows;
            s.delta = s.delta.plus(&delta);
            s.nanos += nanos;
        }
    }
}

/// One pushed batch: scanned objects of one variable, or binding rows.
#[derive(Clone, Copy)]
enum Batch<'b> {
    Objects(&'b str, &'b [(Oid, Value)]),
    Rows(&'b [Row]),
}

impl<'b> Batch<'b> {
    fn len(self) -> usize {
        match self {
            Batch::Objects(_, items) => items.len(),
            Batch::Rows(rows) => rows.len(),
        }
    }

    fn views(self) -> impl Iterator<Item = RowView<'b>> {
        (0..self.len()).map(move |i| match self {
            Batch::Objects(var, items) => RowView::Object {
                var,
                oid: items[i].0,
                value: &items[i].1,
            },
            Batch::Rows(rows) => RowView::Row(&rows[i]),
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
    fn add(&mut self, ctx: &mut Scratch<'_, '_>, view: RowView<'_>) -> Result<()> {
        self.key.clear();
        for k in self.keys {
            encode_value_into(&mut self.key, &ctx.eval(k, view)?);
            self.key.push(0xFE);
        }
        self.seen += 1;
        let gi = match self.index.get(self.key.as_slice()) {
            Some(&gi) => gi,
            None if self.groups.len() < self.budget => {
                let mut cells = Vec::with_capacity(self.operands.len());
                for (operand, input) in self.operands.iter().zip(&self.inputs) {
                    cells.push(match (empty_cell(operand), input) {
                        (Cell::First(_), Some(e)) => Cell::First(ctx.eval(e, view)?),
                        (cell, _) => cell,
                    });
                }
                self.groups.push(cells);
                self.index.insert(self.key.clone(), self.groups.len() - 1);
                self.groups.len() - 1
            }
            None => {
                // Memory holds `budget` groups: this row waits in its
                // key's partition with everything its group will need —
                // `[key len u32][key][input index u64][List(inputs)]`.
                let mut inputs = Vec::with_capacity(self.inputs.len());
                for input in self.inputs.iter().flatten() {
                    inputs.push(ctx.eval(input, view)?);
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
                    slot => slot.insert(SpillFile::create().map_err(spill_err)?),
                };
                return file.write_record(&self.record).map_err(spill_err);
            }
        };
        for (input, cell) in self.inputs.iter().zip(&mut self.groups[gi]) {
            if let Cell::Acc(acc) = cell {
                match input {
                    None => acc.count += 1,
                    Some(e) => acc.add(&ctx.eval(e, view)?),
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

/// `[input index u64][Value::List(values)]` — the tail of a group record
/// and the whole of a sort record.
fn decode_indexed_list(rec: &[u8]) -> Result<(usize, Vec<Value>)> {
    let index = rec.get(..8).ok_or_else(spill_corrupt)?;
    let index = u64::from_le_bytes(index.try_into().expect("8-byte slice")) as usize;
    match decode_value(&rec[8..]) {
        Ok(Value::List(values)) => Ok((index, values)),
        _ => Err(spill_corrupt()),
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

fn spill_err(e: std::io::Error) -> SqlError {
    SqlError::Exec(format!("sort spill i/o: {e}"))
}

fn spill_corrupt() -> SqlError {
    SqlError::Exec("sort spill record corrupt".into())
}

// ----------------------------------------------------------------------
// Sort
// ----------------------------------------------------------------------

/// A sort record: input index and `keys ++ output row`.
type SortRec = (usize, Vec<Value>);

/// Streaming ORDER BY: buffers at most `budget` records; a full buffer is
/// sorted and spilled as one run (charged to the disk metrics in page
/// equivalents, counted in the `sort.*` registry counters). The input index
/// breaks ties, so the order is that of a stable sort whether or not
/// anything spilled.
#[derive(Default)]
struct Sorter {
    /// Direction per key; its length is the number of leading key values.
    asc: Vec<bool>,
    budget: usize,
    buf: Vec<SortRec>,
    runs: Vec<SpillReader>,
    seen: usize,
    /// Output has begun: the buffer is sorted (back to front, so records
    /// pop off its end) or, after a spill, `heads` holds the runs' heads.
    draining: bool,
    heads: Vec<Option<SortRec>>,
}

/// Keys compare by value, a NULL before anything else (a NULL that
/// compared equal to everything would not be an order: the answer would
/// depend on the sort algorithm and on what spilled).
fn cmp_records(asc: &[bool], (ia, a): &SortRec, (ib, b): &SortRec) -> std::cmp::Ordering {
    for (k, asc) in asc.iter().enumerate() {
        let nulls_first = || b[k].is_null().cmp(&a[k].is_null());
        let ord = a[k].compare(&b[k]).unwrap_or_else(nulls_first);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord.is_ne() {
            return ord;
        }
    }
    ia.cmp(ib)
}

impl Sorter {
    fn push(&mut self, ex: &Executor<'_>, vals: Vec<Value>) -> Result<()> {
        if self.buf.len() >= self.budget {
            self.spill_run(ex)?;
        }
        self.buf.push((self.seen, vals));
        self.seen += 1;
        Ok(())
    }

    fn spill_run(&mut self, ex: &Executor<'_>) -> Result<()> {
        self.buf
            .sort_unstable_by(|a, b| cmp_records(&self.asc, a, b));
        let sm = ex.catalog.storage();
        let mut file = SpillFile::create().map_err(spill_err)?;
        let mut record = Vec::new();
        for (index, vals) in self.buf.drain(..) {
            record.clear();
            record.extend((index as u64).to_le_bytes());
            encode_value_into(&mut record, &Value::List(vals));
            file.write_record(&record).map_err(spill_err)?;
        }
        sm.registry().add(Metric::SortSpilledRuns, 1);
        sm.registry().add(Metric::SortSpillBytes, file.bytes());
        let reader = file.into_reader(Some(sm.metrics())).map_err(spill_err)?;
        reader.charge_sequential_read(sm.metrics());
        self.runs.push(reader);
        Ok(())
    }

    /// The next `n` output rows (keys stripped) in order; empty when done.
    fn next_batch(&mut self, ex: &Executor<'_>, n: usize) -> Result<Vec<Vec<Value>>> {
        if !self.draining {
            self.draining = true;
            if self.runs.is_empty() {
                self.buf
                    .sort_unstable_by(|a, b| cmp_records(&self.asc, b, a));
            } else {
                if !self.buf.is_empty() {
                    self.spill_run(ex)?;
                }
                let heads = self.runs.iter_mut().map(next_sort_record);
                self.heads = heads.collect::<Result<_>>()?;
            }
        }
        let mut out = Vec::new();
        while out.len() < n {
            // K-way merge over the run heads (linear min-scan: the run
            // count is input/budget, small by construction); a sort that
            // never spilled has no heads and pops its buffer.
            let mut best: Option<usize> = None;
            for (ri, head) in self.heads.iter().enumerate() {
                let Some(h) = head else { continue };
                let b = best.and_then(|b| self.heads[b].as_ref());
                if b.is_none_or(|b| cmp_records(&self.asc, h, b).is_lt()) {
                    best = Some(ri);
                }
            }
            let next = match best {
                Some(b) => {
                    let refill = next_sort_record(&mut self.runs[b])?;
                    std::mem::replace(&mut self.heads[b], refill)
                }
                None => self.buf.pop(),
            };
            let Some((_, mut vals)) = next else { break };
            vals.drain(..self.asc.len());
            out.push(vals);
        }
        Ok(out)
    }
}

fn next_sort_record(r: &mut SpillReader) -> Result<Option<SortRec>> {
    match r.next_record().map_err(spill_err)? {
        Some(rec) => decode_indexed_list(&rec).map(Some),
        None => Ok(None),
    }
}

// ----------------------------------------------------------------------
// The tail
// ----------------------------------------------------------------------

/// Set semantics over the union of DNF terms: the tuples of bound OIDs
/// already let through.
#[derive(Default)]
struct Union {
    vars: Vec<String>,
    seen: HashSet<Vec<(usize, Option<Oid>)>>,
}

impl Union {
    fn var_id(&mut self, var: &str) -> usize {
        self.vars.iter().position(|v| v == var).unwrap_or_else(|| {
            self.vars.push(var.to_string());
            self.vars.len() - 1
        })
    }

    fn admit(&mut self, row: &Row) -> bool {
        let key = row
            .iter()
            .map(|(var, b)| (self.var_id(var), b.oid))
            .collect();
        self.seen.insert(key)
    }
}

pub(crate) struct Tail<'e, 'a> {
    ex: &'e Executor<'a>,
    stmt: &'e SelectStmt,
    /// Registers and a per-batch dereference cache for everything the tail
    /// evaluates: a sub-object shared by many records of a batch is fetched
    /// once.
    scratch: Scratch<'e, 'a>,
    clock: Clock,
    batch: usize,
    union: Option<Union>,
    /// Ungrouped: the projection and the ORDER BY keys.
    cols: &'e [PreparedExpr],
    keys: &'e [PreparedExpr],
    /// Grouped: the aggregation the bindings go through first.
    agg: Option<Aggregator<'e>>,
    sort: Option<Sorter>,
    distinct: Option<HashSet<Vec<u8>>>,
    out: Vec<Vec<Value>>,
}

impl<'e, 'a> Tail<'e, 'a> {
    pub fn new(ex: &'e Executor<'a>, pq: &'e PreparedQuery) -> Tail<'e, 'a> {
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
            "FROM" => pq.terms.is_empty(),
            "WHERE:UNION" => pq.terms.len() > 1,
            "HAVING" => stmt.having.is_some(),
            "ORDER BY" => !stmt.order_by.is_empty(),
            "DISTINCT" => stmt.distinct,
            _ => true,
        };
        let order: &[&'static str] = if agg.is_some() { &GROUPED } else { &UNGROUPED };
        let mut stages: [Option<StageActual>; MAX_STAGES] = Default::default();
        for (slot, name) in stages
            .iter_mut()
            .zip(order.iter().copied().filter(|s| present(s)))
        {
            let (rows, delta, nanos) = Default::default();
            *slot = Some(StageActual {
                name,
                rows,
                delta,
                nanos,
            });
        }
        Tail {
            ex,
            stmt,
            scratch: Scratch::new(ex),
            clock: Clock {
                metrics: ex.catalog.storage().metrics().clone(),
                stages,
                spent: Default::default(),
            },
            batch: ex.config.execution.batch_size.max(1),
            union: (pq.terms.len() > 1).then(Union::default),
            cols: &pq.cols,
            keys: &pq.order_keys,
            agg,
            sort: (!stmt.order_by.is_empty()).then(|| Sorter {
                asc,
                budget,
                ..Sorter::default()
            }),
            distinct: stmt.distinct.then(HashSet::new),
            out: Vec::new(),
        }
    }

    fn consume(&mut self, batch: Batch<'_>) -> Result<()> {
        self.scratch.next_batch();
        if let Some(agg) = &mut self.agg {
            let window = self.clock.start();
            for view in batch.views() {
                agg.add(&mut self.scratch, view)?;
            }
            self.clock.stop("GROUP BY", window, 0);
            return Ok(());
        }
        // Each record becomes its sort keys followed by its projected row,
        // both evaluated while the object is at hand.
        let window = self.clock.start();
        let width = self.keys.len() + self.cols.len();
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(batch.len());
        for view in batch.views() {
            let mut vals = Vec::with_capacity(width);
            for col in self.keys.iter().chain(self.cols) {
                vals.push(self.scratch.eval(col, view)?);
            }
            rows.push(vals);
        }
        self.clock.stop("PROJECT", window, rows.len() as u64);
        self.after_project(rows)
    }

    /// Projected rows (behind their sort keys when the statement sorts) go
    /// to the sorter, or on to DISTINCT and the result.
    fn after_project(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        let Some(sorter) = &mut self.sort else {
            self.sink(rows);
            return Ok(());
        };
        let window = self.clock.start();
        let n = rows.len() as u64;
        for vals in rows {
            sorter.push(self.ex, vals)?;
        }
        self.clock.stop("ORDER BY", window, n);
        Ok(())
    }

    /// DISTINCT (first occurrence wins), then the result.
    fn sink(&mut self, mut rows: Vec<Vec<Value>>) {
        if let Some(seen) = &mut self.distinct {
            let window = self.clock.start();
            let mut key = Vec::new();
            rows.retain(|row| {
                key.clear();
                for v in row {
                    encode_value_into(&mut key, v);
                }
                !seen.contains(&key) && seen.insert(key.clone())
            });
            self.clock.stop("DISTINCT", window, rows.len() as u64);
        }
        if self.out.is_empty() {
            self.out = rows;
        } else {
            self.out.append(&mut rows);
        }
    }

    /// HAVING and the projection over finished groups; a survivor's row
    /// keeps its group's rank.
    fn finish_groups(
        &mut self,
        agg: &Aggregator<'_>,
        mut groups: Vec<Group>,
    ) -> Result<Vec<(usize, Vec<Value>)>> {
        self.clock
            .add("GROUP BY", groups.len() as u64, Default::default(), 0);
        if let Some(h) = &self.stmt.having {
            let window = self.clock.start();
            let mut verdicts = Vec::with_capacity(groups.len());
            for (_, cells) in &groups {
                verdicts.push(agg.keeps(h, cells)?);
            }
            let mut verdicts = verdicts.into_iter();
            groups.retain(|_| verdicts.next().expect("one verdict per group"));
            self.clock.stop("HAVING", window, groups.len() as u64);
        }
        let window = self.clock.start();
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
        self.clock.stop("PROJECT", window, rows.len() as u64);
        Ok(rows)
    }

    /// End of input: finish the groups, drain the sorter, and hand back the
    /// result — with the stage rows for `stages` when recording.
    pub fn finish(mut self, stages: Option<&StageRec>) -> Result<QueryResult> {
        if let Some(mut agg) = self.agg.take() {
            let strip = |rows: Vec<(usize, Vec<Value>)>| rows.into_iter().map(|(_, r)| r).collect();
            let window = self.clock.start();
            let memory = agg.take_memory();
            self.clock.stop("GROUP BY", window, 0);
            let rows = self.finish_groups(&agg, memory)?;
            self.after_project(strip(rows))?;
            // Spilled groups come back partition by partition; first
            // appearance orders them across partitions.
            let mut late = Vec::new();
            loop {
                let window = self.clock.start();
                let groups = agg.next_partition(self.ex)?;
                self.clock.stop("GROUP BY", window, 0);
                let Some(groups) = groups else { break };
                late.extend(self.finish_groups(&agg, groups)?);
            }
            late.sort_unstable_by_key(|(first, _)| *first);
            self.after_project(strip(late))?;
        }
        if let Some(mut sorter) = self.sort.take() {
            loop {
                let window = self.clock.start();
                let rows = sorter.next_batch(self.ex, self.batch)?;
                self.clock.stop("ORDER BY", window, 0);
                if rows.is_empty() {
                    break;
                }
                self.sink(rows);
            }
        }
        // The trace lists the clauses in Figure 7.1's order, once each.
        for stage in self.clock.stages.iter().flatten() {
            if !matches!(stage.name, "FROM" | "WHERE:UNION" | "DISTINCT") {
                self.ex.mark(stage.name);
            }
        }
        if let Some(stages) = stages {
            stages.extend(self.clock.stages.into_iter().flatten());
        }
        let columns = self.stmt.projection.iter();
        Ok(QueryResult {
            // The projection as written, so a parameter reads as the
            // literal it stands for.
            columns: columns.map(|e| e.render_with(self.ex.params())).collect(),
            rows: self.out,
        })
    }
}

impl Sink for Tail<'_, '_> {
    fn push_objects(&mut self, var: &str, items: &mut Vec<(Oid, Value)>) -> Result<()> {
        if let Some(union) = &mut self.union {
            let window = self.clock.start();
            let id = union.var_id(var);
            items.retain(|(oid, _)| union.seen.insert(vec![(id, Some(*oid))]));
            self.clock.stop("WHERE:UNION", window, items.len() as u64);
        }
        self.consume(Batch::Objects(var, items))?;
        items.clear();
        Ok(())
    }

    fn push_rows(&mut self, mut rows: Vec<Row>) -> Result<()> {
        if let Some(union) = &mut self.union {
            let window = self.clock.start();
            rows.retain(|row| union.admit(row));
            self.clock.stop("WHERE:UNION", window, rows.len() as u64);
        }
        for chunk in rows.chunks(self.batch) {
            self.consume(Batch::Rows(chunk))?;
        }
        Ok(())
    }

    fn spent(&self) -> (MetricsSnapshot, u64) {
        self.clock.spent
    }

    fn record_from(&mut self, rows: u64, delta: MetricsSnapshot, nanos: u64) {
        self.clock.add("FROM", rows, delta, nanos);
    }
}
