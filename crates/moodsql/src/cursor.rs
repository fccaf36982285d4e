//! The cursor mechanism of Section 9.4.
//!
//! "A cursor like mechanism which exists commonly in RDBMSs is designed for
//! displaying objects. … It is also possible to sequence back and forth
//! through the returned objects using the cursor functions provided by the
//! kernel."

use mood_datamodel::Value;

use crate::exec::QueryResult;

/// A bidirectional cursor over a query result.
pub struct Cursor {
    result: QueryResult,
    /// Position: `None` before the first row.
    pos: Option<usize>,
}

impl Cursor {
    pub fn new(result: QueryResult) -> Cursor {
        Cursor { result, pos: None }
    }

    pub fn columns(&self) -> &[String] {
        &self.result.columns
    }

    pub fn len(&self) -> usize {
        self.result.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.result.rows.is_empty()
    }

    /// Advance; returns the new current row or `None` past the end.
    /// (Deliberately named like the paper's cursor function; the cursor is
    /// bidirectional so it is not an `Iterator`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&[Value]> {
        let next = match self.pos {
            None => 0,
            Some(p) => p + 1,
        };
        if next >= self.result.rows.len() {
            self.pos = Some(self.result.rows.len());
            return None;
        }
        self.pos = Some(next);
        Some(&self.result.rows[next])
    }

    /// Step backward; returns the new current row or `None` before the
    /// start.
    pub fn prev(&mut self) -> Option<&[Value]> {
        match self.pos {
            None | Some(0) => {
                self.pos = None;
                None
            }
            Some(p) => {
                let p = p.min(self.result.rows.len()) - 1;
                if p == 0 && self.result.rows.is_empty() {
                    self.pos = None;
                    return None;
                }
                self.pos = Some(p);
                self.result.rows.get(p).map(|r| r.as_slice())
            }
        }
    }

    /// The current row, if positioned on one.
    pub fn current(&self) -> Option<&[Value]> {
        self.pos
            .and_then(|p| self.result.rows.get(p))
            .map(|r| r.as_slice())
    }

    /// Back to before-first.
    pub fn rewind(&mut self) {
        self.pos = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> QueryResult {
        QueryResult {
            columns: vec!["n".into()],
            rows: vec![
                vec![Value::Integer(1)],
                vec![Value::Integer(2)],
                vec![Value::Integer(3)],
            ],
        }
    }

    #[test]
    fn forward_iteration() {
        let mut c = Cursor::new(result());
        assert_eq!(c.current(), None, "before first");
        assert_eq!(c.next().unwrap()[0], Value::Integer(1));
        assert_eq!(c.next().unwrap()[0], Value::Integer(2));
        assert_eq!(c.next().unwrap()[0], Value::Integer(3));
        assert!(c.next().is_none(), "past the end");
        assert!(c.next().is_none(), "stays past the end");
    }

    #[test]
    fn back_and_forth_like_section_9_4() {
        let mut c = Cursor::new(result());
        c.next();
        c.next(); // on row 2
        assert_eq!(c.current().unwrap()[0], Value::Integer(2));
        assert_eq!(c.prev().unwrap()[0], Value::Integer(1));
        assert_eq!(c.next().unwrap()[0], Value::Integer(2));
        // Walk off the front.
        c.prev();
        assert!(c.prev().is_none());
        assert_eq!(c.current(), None);
    }

    #[test]
    fn prev_from_past_end_lands_on_last() {
        let mut c = Cursor::new(result());
        while c.next().is_some() {}
        assert_eq!(c.prev().unwrap()[0], Value::Integer(3));
    }

    #[test]
    fn rewind_resets() {
        let mut c = Cursor::new(result());
        c.next();
        c.rewind();
        assert_eq!(c.current(), None);
        assert_eq!(c.next().unwrap()[0], Value::Integer(1));
    }

    #[test]
    fn empty_result() {
        let mut c = Cursor::new(QueryResult {
            columns: vec![],
            rows: vec![],
        });
        assert!(c.is_empty());
        assert!(c.next().is_none());
        assert!(c.prev().is_none());
    }
}
