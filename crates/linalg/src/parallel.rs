//! Work splitting for the blocked kernels, on the process-wide worker pool.
//!
//! The kernels in this crate parallelise by partitioning the *output* rows into
//! contiguous bands and submitting each band as one task of a scoped batch on
//! [`nnbo_pool::WorkerPool::global`] (the same pool `nnbo-core` trains
//! ensembles on and `nnbo-serve` multiplexes sessions over, so the process's
//! thread count is bounded once, not per call site).  Each band is a disjoint
//! `&mut [f64]` slice of the output buffer, so no synchronisation is needed,
//! and because every band computes exactly what the sequential loop would, the
//! results are bit-for-bit identical to a single-threaded run.

/// Number of parallel bands to use for a kernel touching `rows` output rows
/// with roughly `flops` floating-point operations in total.
///
/// Returns 1 (sequential) for small problems where batch-submission overhead
/// would dominate.
pub(crate) fn plan_threads(rows: usize, flops: usize) -> usize {
    // Submitting a scoped batch costs on the order of microseconds per task;
    // only fan out once there are a few milliseconds of arithmetic to share.
    const MIN_FLOPS: usize = 4 << 20;
    const MIN_ROWS_PER_THREAD: usize = 8;
    if flops < MIN_FLOPS {
        return 1;
    }
    nnbo_pool::WorkerPool::global()
        .fan_out()
        .min(rows / MIN_ROWS_PER_THREAD)
        .max(1)
}

/// Runs `body(first_row, band)` over contiguous row bands of `data`
/// (`rows × cols`, row-major), as one scoped batch of `threads` tasks on the
/// global worker pool.
///
/// `body` must compute each row independently of the rest of `data`; every
/// invocation sees the absolute index of its first row plus the mutable band
/// slice.  With `threads <= 1` the body runs inline on the whole buffer.
pub(crate) fn for_each_row_band<F>(
    data: &mut [f64],
    rows: usize,
    cols: usize,
    threads: usize,
    body: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(data.len(), rows * cols);
    if threads <= 1 || rows == 0 {
        body(0, data);
        return;
    }
    let threads = threads.min(rows);
    let band_rows = rows.div_ceil(threads);
    let body = &body;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
    let mut rest = data;
    let mut first_row = 0;
    while first_row < rows {
        let take = band_rows.min(rows - first_row);
        let (band, tail) = rest.split_at_mut(take * cols);
        rest = tail;
        let start = first_row;
        tasks.push(Box::new(move || body(start, band)));
        first_row += take;
    }
    nnbo_pool::WorkerPool::global().run_batch(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_every_row_exactly_once() {
        let rows = 13;
        let cols = 3;
        let mut data = vec![0.0; rows * cols];
        for_each_row_band(&mut data, rows, cols, 4, |first_row, band| {
            for (r, row) in band.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (first_row + r) as f64 + 1.0;
                }
            }
        });
        for (i, chunk) in data.chunks_exact(cols).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f64 + 1.0), "row {i}");
        }
    }

    #[test]
    fn sequential_fallback_matches() {
        let body = |first_row: usize, band: &mut [f64]| {
            for (r, row) in band.chunks_exact_mut(3).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v += ((first_row + r) * 3 + c) as f64;
                }
            }
        };
        let mut a = vec![1.0; 12];
        let mut b = vec![1.0; 12];
        for_each_row_band(&mut a, 4, 3, 1, body);
        for_each_row_band(&mut b, 4, 3, 3, body);
        assert_eq!(a, b);
    }

    #[test]
    fn small_problems_stay_sequential() {
        assert_eq!(plan_threads(1000, 1000), 1);
        assert!(plan_threads(1000, 64 << 20) >= 1);
        assert_eq!(plan_threads(4, usize::MAX), 1);
    }
}
