//! Std-only process probes (`/proc`), an allocation-counting global
//! allocator, and the small statistics the workloads share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// The system allocator with a per-thread allocation counter: counting
/// touches no shared cache line, so engine threads pay no contention.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialized `Cell` has no destructor and never allocates;
    // during thread teardown the count is simply skipped.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting only
// updates a thread-local integer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made so far by the
/// calling thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `/proc/<pid>/stat` reports CPU time in clock ticks of this length.
const TICK_NS: u64 = 10_000_000;

/// User + system CPU time of process `pid` (`"self"` for this one), in
/// nanoseconds, including threads that have already exited.
pub fn cpu_ns(pid: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * TICK_NS)
}

/// On-CPU nanoseconds of process `pid`'s live threads, summed from
/// `/proc/<pid>/task/*/schedstat` (threads that already exited are lost).
pub fn threads_cpu_ns(pid: &str) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// One `Name:  value kB` field of `/proc/<pid>/status`, as a number.
fn status_field(pid: &str, name: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    status_field(pid, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Live thread count of process `pid`.
pub fn threads(pid: &str) -> Option<u64> {
    status_field(pid, "Threads:")
}

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The quartile of repeated timings nearest the machine's undisturbed
/// speed: the lower quartile of costs, or the upper one of rates when
/// `higher_is_better`. The machine is shared, and bursts of interference
/// from its other tenants can slow up to half of a run's repetitions;
/// this quartile stays in the undisturbed cluster where the median does not.
pub fn undisturbed(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Accumulated wall time of repeated calls into one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Total nanoseconds.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    /// Time `f`, add it to the span, and return its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Nanoseconds per `units` (per call when `units` is the call count).
    pub fn per(&self, units: u64) -> f64 {
        self.ns as f64 / units.max(1) as f64
    }
}
