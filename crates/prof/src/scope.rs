//! The thread-local scope profiler: RAII guards over a span stack.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use crate::report::{ProfNode, ProfReport};

/// Configuration for [`start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfOptions {
    /// Clock override returning monotonic nanoseconds. `None` uses the
    /// process-monotonic default; tests inject a deterministic counter so
    /// report JSON is byte-stable.
    pub clock: Option<fn() -> u64>,
}

/// One tree node while profiling is live (indices into `State::nodes`).
struct NodeData {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
    allocs: u64,
}

/// One live stack frame (an open scope).
struct Frame {
    node: usize,
    start_ns: u64,
    start_allocs: u64,
}

struct State {
    clock: fn() -> u64,
    /// `nodes[0]` is the virtual root (empty name, never reported itself).
    nodes: Vec<NodeData>,
    stack: Vec<Frame>,
}

thread_local! {
    /// Mirrors `STATE.is_some()`: the one-branch fast path for [`scope`].
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Monotonic nanoseconds since the first call in this process.
fn mono_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(feature = "count-alloc")]
fn alloc_count() -> u64 {
    crate::alloc::allocations()
}

#[cfg(not(feature = "count-alloc"))]
fn alloc_count() -> u64 {
    0
}

/// True if the current thread is profiling. The engine hoists this out of
/// its event loop; instrumented leaf code just calls [`scope`], which
/// performs the same check internally.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Starts (or restarts, discarding any live state) profiling on this
/// thread.
pub fn start(opts: ProfOptions) {
    let clock = opts.clock.unwrap_or(mono_ns);
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            clock,
            nodes: vec![NodeData {
                name: "",
                children: Vec::new(),
                calls: 0,
                total_ns: 0,
                allocs: 0,
            }],
            stack: Vec::new(),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops profiling on this thread and returns the report (`None` if the
/// profiler was not running). Scopes still open when `stop` is called are
/// ignored: their time was never accumulated, so drop every guard before
/// stopping.
pub fn stop() -> Option<ProfReport> {
    ENABLED.with(|e| e.set(false));
    let state = STATE.with(|s| s.borrow_mut().take())?;
    Some(build_report(state))
}

/// Opens a profiling scope. The returned RAII guard closes it on drop,
/// attributing the elapsed wall time (and allocation delta, with the
/// `count-alloc` feature) to the tree node addressed by the current stack
/// of scope names. When profiling is off this is a single branch and the
/// guard is inert.
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: false };
    }
    enter(name);
    ScopeGuard { active: true }
}

fn enter(name: &'static str) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let st = match st.as_mut() {
            Some(st) => st,
            None => return,
        };
        let parent = st.stack.last().map_or(0, |f| f.node);
        // Linear scan: real trees have a handful of children per node, and
        // `&'static str` pointer equality short-circuits most probes.
        let node = st.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| std::ptr::eq(st.nodes[c].name, name) || st.nodes[c].name == name);
        let node = match node {
            Some(n) => n,
            None => {
                let n = st.nodes.len();
                st.nodes.push(NodeData {
                    name,
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                    allocs: 0,
                });
                st.nodes[parent].children.push(n);
                n
            }
        };
        let start_ns = (st.clock)();
        st.stack.push(Frame {
            node,
            start_ns,
            start_allocs: alloc_count(),
        });
    });
}

fn exit() {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let st = match st.as_mut() {
            Some(st) => st,
            None => return, // stopped while the guard was live
        };
        let frame = match st.stack.pop() {
            Some(f) => f,
            None => return,
        };
        let end_ns = (st.clock)();
        let node = &mut st.nodes[frame.node];
        node.calls += 1;
        node.total_ns += end_ns.saturating_sub(frame.start_ns);
        node.allocs += alloc_count().saturating_sub(frame.start_allocs);
    });
}

/// RAII handle returned by [`scope`]; closes the scope on drop.
#[must_use = "dropping the guard immediately closes the scope"]
pub struct ScopeGuard {
    active: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.active {
            exit();
        }
    }
}

/// Converts live state into the immutable, deterministically-ordered
/// report tree (children sorted by name; self = total − Σ children).
fn build_report(state: State) -> ProfReport {
    fn convert(nodes: &[NodeData], idx: usize) -> ProfNode {
        let n = &nodes[idx];
        let mut children: Vec<ProfNode> = n.children.iter().map(|&c| convert(nodes, c)).collect();
        children.sort_by(|a, b| a.name.cmp(&b.name));
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        let child_allocs: u64 = children.iter().map(|c| c.allocs).sum();
        ProfNode {
            name: n.name.to_string(),
            calls: n.calls,
            total_ns: n.total_ns,
            self_ns: n.total_ns.saturating_sub(child_total),
            allocs: n.allocs,
            self_allocs: n.allocs.saturating_sub(child_allocs),
            children,
        }
    }
    ProfReport {
        roots: convert(&state.nodes, 0).children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Per thread, so tests running in parallel do not reset or
        /// advance each other's clock.
        static TICKS: Cell<u64> = const { Cell::new(0) };
    }

    /// Deterministic clock: each read advances 1000 ns.
    fn tick() -> u64 {
        TICKS.with(|t| {
            let n = t.get();
            t.set(n + 1);
            n * 1000
        })
    }

    fn fresh() -> ProfOptions {
        TICKS.with(|t| t.set(0));
        ProfOptions { clock: Some(tick) }
    }

    #[test]
    fn disabled_scope_is_inert() {
        assert!(!enabled());
        let g = scope("anything");
        drop(g);
        assert!(stop().is_none());
    }

    #[test]
    fn nesting_builds_paths() {
        start(fresh());
        {
            let _a = scope("a");
            {
                let _b = scope("b");
            }
            {
                let _b = scope("b");
            }
            let _c = scope("c");
        }
        let report = stop().unwrap();
        assert_eq!(report.roots.len(), 1);
        let a = &report.roots[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.calls, 1);
        let names: Vec<&str> = a.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"], "children sorted by name");
        assert_eq!(a.children[0].calls, 2, "same path accumulates");
    }

    #[test]
    fn reentrancy_nests_instead_of_merging() {
        fn recurse(depth: u32) {
            let _g = scope("rec");
            if depth > 0 {
                recurse(depth - 1);
            }
        }
        start(fresh());
        recurse(2);
        let report = stop().unwrap();
        // rec → rec → rec: three distinct path nodes, one call each.
        let mut node = &report.roots[0];
        for _ in 0..2 {
            assert_eq!(node.name, "rec");
            assert_eq!(node.calls, 1);
            node = &node.children[0];
        }
        assert_eq!(node.calls, 1);
        assert!(node.children.is_empty());
    }

    #[test]
    fn self_plus_children_equals_total_exactly() {
        start(fresh());
        {
            let _a = scope("a");
            {
                let _b = scope("b");
                let _c = scope("c");
            }
            {
                let _d = scope("d");
            }
        }
        let report = stop().unwrap();
        fn check(n: &ProfNode) {
            let child_total: u64 = n.children.iter().map(|c| c.total_ns).sum();
            assert_eq!(
                n.self_ns + child_total,
                n.total_ns,
                "self + Σchildren must tile total for {}",
                n.name
            );
            n.children.iter().for_each(check);
        }
        report.roots.iter().for_each(check);
        // With the ticking clock, every quantity is exact and non-zero.
        assert!(report.roots[0].total_ns > 0);
        assert!(report.roots[0].self_ns > 0);
    }

    #[test]
    fn report_json_is_byte_stable() {
        let run = || {
            start(fresh());
            {
                let _a = scope("a");
                let _b = scope("b");
            }
            stop().unwrap().to_json()
        };
        let (x, y) = (run(), run());
        assert_eq!(x, y, "same scopes + deterministic clock → same bytes");
        assert!(cbp_telemetry::json::is_valid(&x));
        assert!(x.starts_with("{\"schema\":\"cbp-prof\",\"version\":2,"));
    }

    #[test]
    fn restart_discards_previous_state() {
        start(fresh());
        {
            let _a = scope("first");
        }
        start(fresh());
        {
            let _b = scope("second");
        }
        let report = stop().unwrap();
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "second");
        assert!(stop().is_none(), "stop is one-shot");
    }
}
