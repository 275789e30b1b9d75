//! Performance observability: cost counters and hierarchical span
//! profiling.
//!
//! Two complementary instruments, both zero-dependency and both safe to
//! leave compiled into the hot path:
//!
//! * **Cost counters** ([`Cost`], [`count`], [`snapshot`]) — monotonic
//!   tallies of *work done*: events popped off the simulator queue,
//!   packets simulated, link-queue operations, RNG draws, estimator
//!   steps, heap allocations, and the per-simulation totals each
//!   simulator adds once as it is dropped (simulated time, packets
//!   injected, delivered and lost) and the executor's job count. They
//!   are the run's one count model: `ABW_PROF=1` prints them and a run
//!   manifest reports them. They are wall-clock-free, which is what
//!   makes them legal inside `core`/`netsim` under lint rule D1 — the
//!   simulation may count its own work, it may not read real time.
//!   Counts accumulate in plain thread-local cells (no atomics on the
//!   hot path) and are folded into process-wide totals by
//!   [`flush_thread`] / [`snapshot`]. Every count is a sum over
//!   independent simulations and jobs, so the totals are the same at
//!   any worker count.
//! * **Spans** ([`span`], [`SpanGuard`], [`Profile`]) — RAII scoped
//!   timers forming a tree (a thread-local span stack). The clock is
//!   *injected* by the harness via [`enable`]: until then every guard
//!   is inert and costs one relaxed atomic load. Because only
//!   `exec`/`bench` ever call [`enable`] (passing a wall-clock
//!   function), wall time stays confined to the crates D1 allows it
//!   in, while the instrumentation points themselves live anywhere.
//!
//! Per-thread profiles are folded into the process-wide [`Profile`] by
//! [`flush_thread`], which the executor calls as each worker retires, so
//! a parallel run aggregates to the same tree a serial run produces
//! (identical counts; wall times sum).
//!
//! Neither instrument touches simulation state, RNG streams, or event
//! ordering — golden outputs are byte-identical with profiling on or
//! off.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------
// Cost counters
// ---------------------------------------------------------------------

/// A category of counted work. Counting is wall-clock-free, so every
/// crate may tally these (D1 only restricts *time* reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Events popped off the simulator's event queue.
    EventsPopped = 0,
    /// Packets that entered the simulated path (arrivals handled).
    PacketsSimulated = 1,
    /// Link-queue operations (packet enqueues and dequeues).
    QueueOps = 2,
    /// Random draws consumed by the impairment pipeline.
    RngDraws = 3,
    /// Estimator state-machine steps (`Estimator::next` calls).
    ToolSteps = 4,
    /// Heap allocations (counted only when the `alloc-count` feature's
    /// `CountingAlloc` is installed as the global allocator).
    HeapAllocs = 5,
    /// Heap bytes requested (same caveat as [`Cost::HeapAllocs`]).
    HeapBytes = 6,
    /// Eventless windows the calendar event queue skipped in bulk
    /// (cursor jumps of more than one bucket — the "fluid fast-forward"
    /// over provably idle simulated time).
    FfSkips = 7,
    /// Packets that bypassed the event queue entirely through the
    /// simulator's fluid burst path (still counted in
    /// [`Cost::PacketsSimulated`]).
    FluidPackets = 8,
    /// Simulated nanoseconds, summed over simulators as they are
    /// dropped.
    SimTimeNs = 9,
    /// Packets agents injected (`SimCounters::injected`), added per
    /// simulator as it is dropped, like the five totals below.
    Injected = 10,
    /// Packets handed to destination agents.
    Delivered = 11,
    /// Packets discarded because their TTL reached zero.
    TtlExpired = 12,
    /// ICMP time-exceeded packets generated by routers.
    IcmpGenerated = 13,
    /// Packets dropped at the tail of a full link queue, over all links.
    LinkDropped = 14,
    /// Packets lost to injected impairments, over all links.
    LinkImpaired = 15,
    /// Jobs run by the parallel executor, nested runs included.
    ExecJobs = 16,
    /// Fluid windows the simulator opened (each one's packets count in
    /// [`Cost::FluidPackets`]).
    FluidWindows = 17,
}

/// Number of [`Cost`] categories.
const COSTS: usize = 18;

/// Every category, in display order.
pub const ALL_COSTS: [Cost; COSTS] = [
    Cost::EventsPopped,
    Cost::PacketsSimulated,
    Cost::QueueOps,
    Cost::RngDraws,
    Cost::ToolSteps,
    Cost::HeapAllocs,
    Cost::HeapBytes,
    Cost::FfSkips,
    Cost::FluidPackets,
    Cost::FluidWindows,
    Cost::SimTimeNs,
    Cost::Injected,
    Cost::Delivered,
    Cost::TtlExpired,
    Cost::IcmpGenerated,
    Cost::LinkDropped,
    Cost::LinkImpaired,
    Cost::ExecJobs,
];

impl Cost {
    /// Stable name, used in reports and run manifests.
    pub fn name(self) -> &'static str {
        match self {
            Cost::EventsPopped => "events_popped",
            Cost::PacketsSimulated => "packets_simulated",
            Cost::QueueOps => "queue_ops",
            Cost::RngDraws => "rng_draws",
            Cost::ToolSteps => "tool_steps",
            Cost::HeapAllocs => "heap_allocs",
            Cost::HeapBytes => "heap_bytes",
            Cost::FfSkips => "ff_skips",
            Cost::FluidPackets => "fluid_packets",
            Cost::SimTimeNs => "sim_time_ns",
            Cost::Injected => "injected",
            Cost::Delivered => "delivered",
            Cost::TtlExpired => "ttl_expired",
            Cost::IcmpGenerated => "icmp_generated",
            Cost::LinkDropped => "link_dropped",
            Cost::LinkImpaired => "link_impaired",
            Cost::ExecJobs => "exec.jobs",
            Cost::FluidWindows => "fluid_windows",
        }
    }
}

/// Process-wide totals, fed by [`flush_thread`] (and directly by the
/// counting allocator, which cannot use thread-locals).
static GLOBAL_COSTS: [AtomicU64; COSTS] = [const { AtomicU64::new(0) }; COSTS];

thread_local! {
    /// Per-thread tallies: plain cells, no synchronization on the hot
    /// path. Flushed to [`GLOBAL_COSTS`] by [`flush_thread`].
    static LOCAL_COSTS: [Cell<u64>; COSTS] = const { [const { Cell::new(0) }; COSTS] };
}

/// Tallies one unit of `cost` on the calling thread.
#[inline]
pub fn count(cost: Cost) {
    count_n(cost, 1);
}

/// Tallies `n` units of `cost` on the calling thread.
#[inline]
pub fn count_n(cost: Cost, n: u64) {
    LOCAL_COSTS.with(|cells| {
        let cell = &cells[cost as usize];
        cell.set(cell.get().saturating_add(n));
    });
}

/// Drains the calling thread's cost cells into the process totals.
fn flush_costs() {
    LOCAL_COSTS.with(|cells| {
        for (i, cell) in cells.iter().enumerate() {
            let v = cell.replace(0);
            if v != 0 {
                GLOBAL_COSTS[i].fetch_add(v, Ordering::Relaxed);
            }
        }
    });
}

/// A point-in-time reading of the process-wide cost totals.
///
/// Totals only ever grow; measure a workload by taking a snapshot
/// before and after and calling [`CostSnapshot::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    values: [u64; COSTS],
}

impl CostSnapshot {
    /// The total for one category.
    pub fn get(&self, cost: Cost) -> u64 {
        self.values[cost as usize]
    }

    /// Per-category difference `self − earlier` (saturating, so a
    /// mismatched pair degrades to zeros instead of wrapping).
    pub fn delta(&self, earlier: &CostSnapshot) -> CostSnapshot {
        let mut values = [0u64; COSTS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CostSnapshot { values }
    }

    /// `(name, value)` pairs in [`ALL_COSTS`] order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        ALL_COSTS.iter().map(|&c| (c.name(), self.get(c))).collect()
    }
}

/// Reads the process-wide cost totals, flushing the calling thread's
/// cells first. (Other threads' unflushed tallies are not visible until
/// they call [`flush_thread`] — the executor does so as each worker
/// retires.)
pub fn snapshot() -> CostSnapshot {
    flush_costs();
    let mut values = [0u64; COSTS];
    for (i, v) in values.iter_mut().enumerate() {
        *v = GLOBAL_COSTS[i].load(Ordering::Relaxed);
    }
    CostSnapshot { values }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Whether span timing is live. Off by default: a disabled [`span`]
/// call is one relaxed load and no clock read.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The injected nanosecond clock. Set once by [`enable`]; the profiling
/// module itself never reads time, which is what keeps `abw-obs` (and
/// every instrumented crate) clean under lint rule D1.
static CLOCK: OnceLock<fn() -> u64> = OnceLock::new();

/// Process-wide merged profile, fed by [`flush_thread`].
static GLOBAL_PROFILE: Mutex<Profile> = Mutex::new(Profile { nodes: Vec::new() });

/// Turns span timing on, injecting the nanosecond clock to use. Only
/// `exec`/`bench` call this (with a wall clock); simulation crates just
/// place [`span`] markers, which stay inert until a harness enables
/// them. The first injected clock wins for the process lifetime.
pub fn enable(clock: fn() -> u64) {
    let _ = CLOCK.set(clock);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span timing back off (guards become inert again; accumulated
/// profiles are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True when [`enable`] has been called and not since disabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One node of a [`Profile`] tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    /// Span name (`""` for the root).
    name: String,
    /// Index of the parent node (the root points at itself).
    parent: usize,
    /// Times this span was entered (or externally recorded units).
    count: u64,
    /// Total nanoseconds spent inside, children included.
    total_ns: u64,
    /// Child node indices, in first-seen order.
    children: Vec<usize>,
}

/// A tree of named spans with call counts and inclusive wall time.
///
/// Built implicitly by [`span`] guards on each thread; folded across
/// threads by [`flush_thread`] via [`Profile::merge_from`]. Merging
/// matches children *by name*, so the merged tree is independent of
/// which worker finished first: counts are deterministic, times sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Arena of nodes; index 0 is the unnamed root (when non-empty).
    nodes: Vec<Node>,
}

impl Default for Profile {
    fn default() -> Self {
        Profile::new()
    }
}

impl Profile {
    /// An empty profile (just the root).
    pub fn new() -> Self {
        Profile {
            nodes: vec![Node {
                name: String::new(),
                parent: 0,
                count: 0,
                total_ns: 0,
                children: Vec::new(),
            }],
        }
    }

    fn ensure_root(&mut self) {
        if self.nodes.is_empty() {
            *self = Profile::new();
        }
    }

    /// Index of `parent`'s child named `name`, creating it if absent.
    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            parent,
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Adds `count` entries and `total_ns` nanoseconds at the node
    /// addressed by `path` (root-relative), creating nodes as needed —
    /// the direct-construction path for external measurements (e.g. the
    /// executor's per-worker idle totals) and for tests.
    pub fn record_path(&mut self, path: &[&str], count: u64, total_ns: u64) {
        self.ensure_root();
        let mut at = 0usize;
        for name in path {
            at = self.child_of(at, name);
        }
        let node = &mut self.nodes[at];
        node.count = node.count.saturating_add(count);
        node.total_ns = node.total_ns.saturating_add(total_ns);
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// `(count, total_ns)` at `path`, or `None` if the node does not
    /// exist.
    pub fn node_stats(&self, path: &[&str]) -> Option<(u64, u64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut at = 0usize;
        for name in path {
            at = *self.nodes[at]
                .children
                .iter()
                .find(|&&c| self.nodes[c].name == *name)?;
        }
        Some((self.nodes[at].count, self.nodes[at].total_ns))
    }

    /// Folds `other` into `self`, matching children by name at every
    /// level: counts and times sum, unseen subtrees are grafted in.
    pub fn merge_from(&mut self, other: &Profile) {
        if other.nodes.is_empty() {
            return;
        }
        self.ensure_root();
        // (self node, other node) pairs still to merge
        let mut work = vec![(0usize, 0usize)];
        while let Some((into, from)) = work.pop() {
            let node = &mut self.nodes[into];
            node.count = node.count.saturating_add(other.nodes[from].count);
            node.total_ns = node.total_ns.saturating_add(other.nodes[from].total_ns);
            for &child in &other.nodes[from].children {
                let name = other.nodes[child].name.clone();
                let self_child = self.child_of(into, &name);
                work.push((self_child, child));
            }
        }
    }

    /// Children of `idx` sorted for reporting: by total time
    /// descending, name as the tie-break.
    fn sorted_children(&self, idx: usize) -> Vec<usize> {
        let mut kids = self.nodes[idx].children.clone();
        kids.sort_by(|&a, &b| {
            self.nodes[b]
                .total_ns
                .cmp(&self.nodes[a].total_ns)
                .then_with(|| self.nodes[a].name.cmp(&self.nodes[b].name))
        });
        kids
    }

    /// Renders the tree as an indented human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("span profile (inclusive wall time; workers merged):\n");
        if self.is_empty() {
            out.push_str("  (no spans recorded)\n");
            return out;
        }
        let root_total: u64 = self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum();
        for &child in &self.sorted_children(0) {
            self.render_node(child, 1, root_total, &mut out);
        }
        out
    }

    fn render_node(&self, idx: usize, depth: usize, parent_total: u64, out: &mut String) {
        let node = &self.nodes[idx];
        let ms = node.total_ns as f64 / 1e6;
        let avg_us = if node.count > 0 {
            node.total_ns as f64 / node.count as f64 / 1e3
        } else {
            0.0
        };
        let pct = if parent_total > 0 {
            100.0 * node.total_ns as f64 / parent_total as f64
        } else {
            0.0
        };
        let label = format!("{}{}", "  ".repeat(depth), node.name);
        out.push_str(&format!(
            "{label:<34} {ms:>10.3} ms {:>9} calls {avg_us:>10.1} us {pct:>5.1}%\n",
            node.count
        ));
        for &child in &self.sorted_children(idx) {
            self.render_node(child, depth + 1, node.total_ns, out);
        }
    }
}

/// Per-thread span stack state.
struct SpanState {
    profile: Profile,
    /// Arena index of the innermost open span (0 = root).
    current: usize,
}

thread_local! {
    static SPANS: RefCell<SpanState> = RefCell::new(SpanState {
        profile: Profile::new(),
        current: 0,
    });
}

/// RAII guard returned by [`span`]; closing it (drop) attributes the
/// elapsed time to the span's node and pops the thread-local stack.
#[must_use = "a span guard times the scope it lives in; dropping it immediately records nothing"]
pub struct SpanGuard {
    start_ns: u64,
    node: usize,
    prev: usize,
    active: bool,
    /// Guards index into thread-local state: keep them on one thread.
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` under the innermost open span of this
/// thread. Inert (near-zero cost) until a harness calls [`enable`].
pub fn span(name: &'static str) -> SpanGuard {
    let inert = SpanGuard {
        start_ns: 0,
        node: 0,
        prev: 0,
        active: false,
        _not_send: PhantomData,
    };
    if !ENABLED.load(Ordering::Relaxed) {
        return inert;
    }
    let Some(clock) = CLOCK.get().copied() else {
        return inert;
    };
    let (node, prev) = SPANS.with(|state| {
        let mut state = state.borrow_mut();
        state.profile.ensure_root();
        let prev = state.current;
        let node = state.profile.child_of(prev, name);
        state.current = node;
        (node, prev)
    });
    SpanGuard {
        start_ns: clock(),
        node,
        prev,
        active: true,
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = CLOCK.get().map(|clock| clock()).unwrap_or(self.start_ns);
        let elapsed = end.saturating_sub(self.start_ns);
        SPANS.with(|state| {
            let mut state = state.borrow_mut();
            if let Some(node) = state.profile.nodes.get_mut(self.node) {
                node.count = node.count.saturating_add(1);
                node.total_ns = node.total_ns.saturating_add(elapsed);
            }
            state.current = self.prev;
        });
    }
}

/// Records an externally measured leaf under the innermost open span —
/// how the executor reports per-worker idle time it timed itself
/// (with its own, D1-legal clock). No-op while profiling is disabled.
pub fn record(name: &'static str, count: u64, total_ns: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    SPANS.with(|state| {
        let mut state = state.borrow_mut();
        state.profile.ensure_root();
        let current = state.current;
        let node = state.profile.child_of(current, name);
        let node = &mut state.profile.nodes[node];
        node.count = node.count.saturating_add(count);
        node.total_ns = node.total_ns.saturating_add(total_ns);
    });
}

/// Folds the calling thread's profile and cost tallies into the process
/// totals and resets the thread state. The executor calls this as each
/// worker retires; [`snapshot`] / [`take_profile`] call it for the
/// main thread. Open spans (an active [`SpanGuard`]) keep the span part
/// of the flush deferred until they close.
pub fn flush_thread() {
    flush_costs();
    let local = SPANS.with(|state| {
        let mut state = state.borrow_mut();
        if state.current != 0 || state.profile.is_empty() {
            // spans still open: their guards hold arena indices, so the
            // profile must stay in place until they close
            return None;
        }
        Some(std::mem::take(&mut state.profile))
    });
    if let Some(local) = local {
        if let Ok(mut global) = GLOBAL_PROFILE.lock() {
            global.merge_from(&local);
        }
    }
}

/// Takes the process-wide merged profile, leaving it empty — the
/// harness-side reset between workloads.
pub fn take_profile() -> Profile {
    flush_thread();
    GLOBAL_PROFILE
        .lock()
        .map(|mut p| std::mem::take(&mut *p))
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// Counting allocator (feature-gated; installed only by the benchmark)
// ---------------------------------------------------------------------

/// A global allocator that tallies [`Cost::HeapAllocs`] /
/// [`Cost::HeapBytes`] while delegating to the system allocator.
///
/// Behind the `alloc-count` feature and wrapped only by the `perfbench`
/// benchmark's `#[global_allocator]`; library crates never pay for
/// it. Counts go straight to the process totals — the allocator runs
/// under conditions (thread teardown, TLS init) where thread-locals are
/// off-limits.
#[cfg(feature = "alloc-count")]
pub struct CountingAlloc;

#[cfg(feature = "alloc-count")]
// SAFETY: delegates allocation verbatim to `std::alloc::System`; the
// added atomic counting has no effect on the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        GLOBAL_COSTS[Cost::HeapAllocs as usize].fetch_add(1, Ordering::Relaxed);
        GLOBAL_COSTS[Cost::HeapBytes as usize].fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        GLOBAL_COSTS[Cost::HeapAllocs as usize].fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size());
        GLOBAL_COSTS[Cost::HeapBytes as usize].fetch_add(grown as u64, Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_counters_flush_into_snapshot_deltas() {
        let before = snapshot();
        count(Cost::EventsPopped);
        count_n(Cost::PacketsSimulated, 41);
        count(Cost::PacketsSimulated);
        let after = snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.get(Cost::EventsPopped), 1);
        assert_eq!(delta.get(Cost::PacketsSimulated), 42);
        assert_eq!(delta.get(Cost::QueueOps), 0);
    }

    #[test]
    fn snapshot_entries_cover_every_cost_in_order() {
        let names: Vec<&str> = snapshot().entries().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "events_popped",
                "packets_simulated",
                "queue_ops",
                "rng_draws",
                "tool_steps",
                "heap_allocs",
                "heap_bytes",
                "ff_skips",
                "fluid_packets",
                "fluid_windows",
                "sim_time_ns",
                "injected",
                "delivered",
                "ttl_expired",
                "icmp_generated",
                "link_dropped",
                "link_impaired",
                "exec.jobs",
            ]
        );
    }

    #[test]
    fn span_guard_is_inert_until_enabled() {
        // profiling defaults off; guards must not record anything
        {
            let _g = span("never");
        }
        SPANS.with(|state| {
            let state = state.borrow();
            assert!(state.profile.node_stats(&["never"]).is_none());
        });
    }

    /// Deterministic fake clock: each read advances 100 ns.
    fn fake_clock() -> u64 {
        static TICK: AtomicU64 = AtomicU64::new(0);
        TICK.fetch_add(100, Ordering::Relaxed)
    }

    #[test]
    fn spans_build_a_tree_and_flush_through_the_global() {
        // the one test that exercises the global profile end-to-end
        // (tests run on their own threads, so the local stack is ours)
        enable(fake_clock);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
            record("measured", 3, 900);
        }
        disable();
        flush_thread();
        let profile = take_profile();
        let (outer_count, outer_ns) = profile.node_stats(&["outer"]).expect("outer span");
        assert_eq!(outer_count, 1);
        assert!(outer_ns >= 200, "outer wraps two inner spans");
        let (inner_count, inner_ns) = profile.node_stats(&["outer", "inner"]).expect("inner");
        assert_eq!(inner_count, 2);
        assert!(inner_ns >= 200, "two inner entries, 100 ns each");
        assert_eq!(
            profile.node_stats(&["outer", "measured"]),
            Some((3, 900)),
            "record() attaches under the open span"
        );
        let report = profile.render();
        assert!(report.contains("outer"));
        assert!(report.contains("  inner") || report.contains("inner"));
    }

    #[test]
    fn profiles_merge_by_name() {
        let mut a = Profile::new();
        a.record_path(&["drive"], 2, 1000);
        a.record_path(&["drive", "pathload"], 2, 800);
        let mut b = Profile::new();
        b.record_path(&["drive"], 1, 500);
        b.record_path(&["drive", "spruce"], 1, 450);
        a.merge_from(&b);
        assert_eq!(a.node_stats(&["drive"]), Some((3, 1500)));
        assert_eq!(a.node_stats(&["drive", "pathload"]), Some((2, 800)));
        assert_eq!(a.node_stats(&["drive", "spruce"]), Some((1, 450)));
    }

    #[test]
    fn merge_is_insensitive_to_worker_order() {
        let mut w0 = Profile::new();
        w0.record_path(&["job", "x"], 1, 10);
        let mut w1 = Profile::new();
        w1.record_path(&["job", "y"], 1, 20);
        let mut forward = Profile::new();
        forward.merge_from(&w0);
        forward.merge_from(&w1);
        let mut backward = Profile::new();
        backward.merge_from(&w1);
        backward.merge_from(&w0);
        assert_eq!(
            forward.node_stats(&["job", "x"]),
            backward.node_stats(&["job", "x"])
        );
        assert_eq!(
            forward.node_stats(&["job", "y"]),
            backward.node_stats(&["job", "y"])
        );
        // rendering sorts children, so the reports agree byte-for-byte
        assert_eq!(forward.render(), backward.render());
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let p = Profile::new();
        assert!(p.is_empty());
        assert!(p.render().contains("no spans recorded"));
    }
}
