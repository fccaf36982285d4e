//! Recycled decode slots: how a scan and the ordered fetch hold the objects
//! they decode (DESIGN.md §4m).

use mood_catalog::{CatalogError, ObjectReader};
use mood_datamodel::Value;
use mood_storage::Oid;

/// Decoded objects in slots kept from batch to batch. `slots[..filled]` are
/// the live objects; the slots behind them hold what earlier objects left,
/// and the next decode reuses it ([`ObjectReader::decode_into`]), so an object
/// costs no allocation once the slab has grown to its working size. A
/// consumer reads the live objects in place; one that keeps an object takes
/// it out (`mem::replace(v, Value::Null)`), and that slot decodes afresh.
#[derive(Debug, Default)]
pub struct Slab {
    slots: Vec<(Oid, Value)>,
    filled: usize,
}

impl Slab {
    /// Decode the stored record `bytes` of `oid` by `reader` into the next
    /// slot, which becomes live.
    pub fn decode(
        &mut self,
        reader: &mut ObjectReader<'_>,
        oid: Oid,
        bytes: &[u8],
    ) -> Result<(), CatalogError> {
        if self.filled == self.slots.len() {
            self.slots.push((oid, Value::Null));
        }
        let slot = &mut self.slots[self.filled];
        slot.0 = oid;
        reader.decode_into(oid, bytes, &mut slot.1)?;
        self.filled += 1;
        Ok(())
    }

    /// The number of live objects.
    pub fn len(&self) -> usize {
        self.filled
    }

    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// The live objects, in decode order.
    pub fn objects(&mut self) -> &mut [(Oid, Value)] {
        &mut self.slots[..self.filled]
    }

    /// The first `n` live objects are done with: the rest move to the front
    /// and the freed slots go behind them, to be decoded into again.
    pub fn consume(&mut self, n: usize) {
        self.slots[..self.filled].rotate_left(n);
        self.filled -= n;
    }
}
