//! `Sort(aTupleCollection, sort_method, attribute_list)` — "the only
//! supported sort_method for the time being is heap sort with merging".
//! [`Sorter`] is its one implementation, behind MOODSQL's ORDER BY and the
//! collection operator [`sort()`].

use mood_catalog::Catalog;
use mood_datamodel::{decode_value, encode_value_into, Value};
use mood_storage::exec::ExecutionConfig;
use mood_storage::spill::SpillReader;
use mood_storage::{Metric, StorageManager};

use crate::collection::Collection;
use crate::error::{AlgebraError, Result};
use crate::join::materialize;

/// A sort record: input index and `keys ++ output row`.
type SortRec = (usize, Vec<Value>);

/// Streaming sort: buffers at most `budget` records; a full buffer is
/// sorted and spilled as one run (charged to the disk metrics in page
/// equivalents, counted in the `sort.*` registry counters). The input index
/// breaks ties, so the order is that of a stable sort whether or not
/// anything spilled.
#[derive(Default)]
pub struct Sorter {
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
    /// A sorter on `asc.len()` leading keys (ascending where `true`) that
    /// holds at most `budget` (at least 2) records in memory.
    pub fn new(asc: Vec<bool>, budget: usize) -> Sorter {
        Sorter { asc, budget, ..Sorter::default() }
    }

    /// Add one record: its keys followed by the values it carries.
    pub fn push(&mut self, sm: &StorageManager, vals: Vec<Value>) -> Result<()> {
        if self.buf.len() >= self.budget.max(2) {
            self.spill_run(sm)?;
        }
        self.buf.push((self.seen, vals));
        self.seen += 1;
        Ok(())
    }

    fn spill_run(&mut self, sm: &StorageManager) -> Result<()> {
        self.buf
            .sort_unstable_by(|a, b| cmp_records(&self.asc, a, b));
        let mut file = sm.spill_file().map_err(spill_err)?;
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

    /// The next `n` records (keys stripped) in order; empty when done.
    pub fn next_batch(&mut self, sm: &StorageManager, n: usize) -> Result<Vec<Vec<Value>>> {
        if !self.draining {
            self.draining = true;
            if self.runs.is_empty() {
                self.buf
                    .sort_unstable_by(|a, b| cmp_records(&self.asc, b, a));
            } else {
                if !self.buf.is_empty() {
                    self.spill_run(sm)?;
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

/// `[input index u64][Value::List(values)]` — the whole of a sort record,
/// and the tail of MOODSQL's spilled group record.
pub fn decode_indexed_list(rec: &[u8]) -> Result<(usize, Vec<Value>)> {
    let index = rec.get(..8).ok_or_else(spill_corrupt)?;
    let index = u64::from_le_bytes(index.try_into().expect("8-byte slice")) as usize;
    match decode_value(&rec[8..]) {
        Ok(Value::List(values)) => Ok((index, values)),
        _ => Err(spill_corrupt()),
    }
}

/// A spill file's I/O failure.
pub fn spill_err(e: std::io::Error) -> AlgebraError {
    AlgebraError::Spill(format!("sort spill i/o: {e}"))
}

/// A spilled record that does not decode.
pub fn spill_corrupt() -> AlgebraError {
    AlgebraError::Spill("sort spill record corrupt".into())
}

/// `Sort(arg, heap sort with merging, attributes)` — no duplicate
/// elimination. Each element's attribute values (NULL for a missing one),
/// then its input position, go through one [`Sorter`] with
/// `exec.sort_budget`, so keys compare as ORDER BY compares them and equal
/// keys keep their input order. Sets/lists sort their identifiers by the
/// dereferenced objects' keys into a list; extents sort the objects.
pub fn sort(
    catalog: &Catalog,
    arg: &Collection,
    attributes: &[&str],
    exec: ExecutionConfig,
) -> Result<Collection> {
    let objs = materialize(catalog, arg)?;
    let sm = catalog.storage();
    let mut sorter = Sorter::new(vec![true; attributes.len()], exec.sort_budget);
    for (i, o) in objs.iter().enumerate() {
        let keys = attributes.iter().map(|a| o.value.field(a).cloned().unwrap_or(Value::Null));
        sorter.push(sm, keys.chain([Value::LongInteger(i as i64)]).collect())?;
    }
    let order = sorter.next_batch(sm, objs.len())?;
    let sorted = order.iter().filter_map(|position| match position[..] {
        [Value::LongInteger(i)] => objs.get(i as usize),
        _ => None,
    });
    Ok(match arg {
        Collection::Set(_) | Collection::List(_) => {
            Collection::List(sorted.filter_map(|o| o.oid).collect())
        }
        _ => Collection::Extent(sorted.cloned().collect()),
    })
}
