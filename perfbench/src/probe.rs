//! Process-level probes read around a measurement window: process CPU time,
//! hypervisor steal, and the peak live heap (through a counting allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ticks per second of the `/proc` CPU counters (`USER_HZ`, fixed by the
/// Linux ABI).
const USER_HZ: f64 = 100.0;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the counters
// are statistics that never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` obligations pass straight through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Restarts the high-water mark at the current live heap.
fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak_heap`], in MB (10⁶ bytes).
fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// User + system CPU seconds of this process, all threads included.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the numeric fields follow its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // Fields 14 (utime) and 15 (stime) of proc(5), counted from the state
    // field (3) at index 0.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Machine-wide CPU seconds stolen by the hypervisor since boot (the
/// `steal` column of `/proc/stat`'s aggregate line).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Wall clock, CPU, steal and heap read at the start of a measurement
/// window.
pub struct Window {
    wall: std::time::Instant,
    cpu_s: f64,
    steal_s: f64,
}

/// What a closed [`Window`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    pub run_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
    pub peak_heap_mb: f64,
}

impl Window {
    /// Opens a window; also restarts the heap high-water mark.
    pub fn open() -> Self {
        reset_peak_heap();
        Window {
            wall: std::time::Instant::now(),
            cpu_s: process_cpu_s(),
            steal_s: steal_s(),
        }
    }

    /// Closes the window.
    pub fn close(self) -> WindowStats {
        WindowStats {
            run_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
            steal_s: steal_s() - self.steal_s,
            peak_heap_mb: peak_heap_mb(),
        }
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_and_steal_counters_are_readable_and_monotone() {
        let cpu = process_cpu_s();
        assert!(cpu.is_finite() && cpu >= 0.0);
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= cpu);
        assert!(steal_s() >= 0.0);
    }
}
