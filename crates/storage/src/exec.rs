//! Execution configuration and the chunked worker pool the collection
//! operators run on.
//!
//! The pool is deliberately small: scoped threads over contiguous input
//! chunks, results concatenated in chunk order. Chunk-then-concat is what
//! makes parallel operators *byte-identical* to their sequential versions —
//! every element keeps its input position, so a parallel Select/Project/Join
//! emission differs from the sequential loop only in wall-clock time, never
//! in output. Errors are deterministic too: the error surfaced is the one
//! from the lowest-indexed failing chunk, i.e. the same error a sequential
//! left-to-right scan would have hit first.

/// Default rows per operator batch: large enough to amortize program
/// dispatch and register setup, small enough to stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Default in-memory sort budget (rows per run before spilling to disk).
pub const DEFAULT_SORT_BUDGET: usize = 64 * 1024;

/// Knob threaded from `Mood`/`Session` through the optimizer's config down
/// into the algebra operators. `parallelism = 1` (the default) is the pure
/// sequential path; higher values split operator inputs into that many
/// contiguous chunks executed on scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    pub parallelism: usize,
    /// Rows processed per operator call in the batched pipeline (predicate
    /// evaluation, projection, join probes). Amortizes funcman dispatch,
    /// register setup and catalog deref across the batch.
    pub batch_size: usize,
    /// Maximum rows a sort/group holds in memory before forming a spilled
    /// run: the external merge sort's buffer budget.
    pub sort_budget: usize,
}

impl ExecutionConfig {
    /// A config with the given worker count (clamped to at least 1).
    pub fn with_parallelism(parallelism: usize) -> Self {
        ExecutionConfig {
            parallelism: parallelism.max(1),
            ..ExecutionConfig::default()
        }
    }

    /// The same config with the given operator batch size (clamped ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The same config with the given sort buffer budget (clamped ≥ 2 so a
    /// spill always merges at least two meaningful runs).
    pub fn with_sort_budget(mut self, sort_budget: usize) -> Self {
        self.sort_budget = sort_budget.max(2);
        self
    }

    pub fn is_parallel(&self) -> bool {
        self.parallelism > 1
    }
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            parallelism: 1,
            batch_size: DEFAULT_BATCH_SIZE,
            sort_budget: DEFAULT_SORT_BUDGET,
        }
    }
}

/// Split `len` items into at most `parts` contiguous chunks of near-equal
/// size (first `len % parts` chunks get one extra element). Empty ranges are
/// not produced.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Run `f` over contiguous chunks of `items` on up to `parallelism` scoped
/// threads and concatenate the per-chunk outputs in chunk order.
///
/// `f` receives `(chunk_index, chunk)` so workers can label metrics or seed
/// per-chunk state. With `parallelism <= 1` (or a single-element input) `f`
/// runs inline on the caller's thread — no spawn cost, identical semantics.
pub fn run_chunked<T, R, E, F>(
    parallelism: usize,
    items: &[T],
    f: F,
) -> std::result::Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &[T]) -> std::result::Result<Vec<R>, E> + Sync,
{
    let ranges = chunk_ranges(items.len(), parallelism);
    if ranges.len() <= 1 {
        return f(0, items);
    }
    let chunk_results: Vec<std::result::Result<Vec<R>, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let f = &f;
                scope.spawn(move || f(i, &items[r]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for r in chunk_results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_input_contiguously() {
        for len in [0usize, 1, 5, 16, 17, 100] {
            for parts in [1usize, 2, 4, 8] {
                let ranges = chunk_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} parts={parts}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn chunked_run_preserves_order() {
        let items: Vec<u32> = (0..103).collect();
        for par in [1usize, 2, 4, 8] {
            let doubled = run_chunked(par, &items, |_, chunk| {
                Ok::<_, ()>(chunk.iter().map(|x| x * 2).collect())
            })
            .unwrap();
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn first_chunk_error_wins() {
        let items: Vec<u32> = (0..100).collect();
        let err = run_chunked(4, &items, |_, chunk| {
            // Every chunk fails, reporting its first element; the error
            // surfaced must be the one from the earliest input position.
            Err::<Vec<u32>, u32>(chunk[0])
        })
        .unwrap_err();
        assert_eq!(err, 0);
    }

    #[test]
    fn sequential_fallback_runs_inline() {
        let tid = std::thread::current().id();
        let items = [1, 2, 3];
        let seen = run_chunked(1, &items, |_, chunk| {
            assert_eq!(std::thread::current().id(), tid);
            Ok::<_, ()>(chunk.to_vec())
        })
        .unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
