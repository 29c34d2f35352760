//! The immutable profiling report: a deterministic tree, rendered as text
//! or byte-stable JSON.

use cbp_telemetry::json;
use std::fmt::Write as _;

/// Schema tag stamped into every report JSON document.
pub const PROF_SCHEMA: &str = "cbp-prof";
/// Schema version stamped into every report JSON document.
pub const PROF_VERSION: u32 = 2;

/// One node in the report tree: a distinct *path* of scope names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Scope name (the last component of the path).
    pub name: String,
    /// Times this exact path was entered and exited.
    pub calls: u64,
    /// Wall time spent inside this path, children included.
    pub total_ns: u64,
    /// Wall time spent inside this path, children excluded
    /// (`total_ns − Σ children.total_ns`, saturating).
    pub self_ns: u64,
    /// Allocations attributed to this path, children included (always 0
    /// without the `count-alloc` feature).
    pub allocs: u64,
    /// Allocations excluding children (saturating).
    pub self_allocs: u64,
    /// Child paths, sorted by name.
    pub children: Vec<ProfNode>,
}

/// A flattened scope path, ranked by [`ProfReport::top_self`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatScope {
    /// Slash-joined path of scope names from the root (`run/event/io`).
    pub path: String,
    /// Times the path was entered.
    pub calls: u64,
    /// Wall time excluding children.
    pub self_ns: u64,
    /// Wall time including children.
    pub total_ns: u64,
}

/// What [`crate::stop`] returns: everything the profiler measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfReport {
    /// Top-level scope paths, sorted by name.
    pub roots: Vec<ProfNode>,
}

impl ProfReport {
    /// Serializes the tree as compact, byte-stable JSON. Field order is
    /// fixed (`schema`, `version`, `roots`; within a node
    /// `name`, `calls`, `total_ns`, `self_ns`, `allocs`, `self_allocs`,
    /// `children`) so identical measurements yield identical bytes.
    pub fn to_json(&self) -> String {
        fn push_node(out: &mut String, n: &ProfNode) {
            out.push('{');
            json::push_key(out, "name");
            json::push_str_escaped(out, &n.name);
            out.push(',');
            json::push_key(out, "calls");
            json::push_u64(out, n.calls);
            out.push(',');
            json::push_key(out, "total_ns");
            json::push_u64(out, n.total_ns);
            out.push(',');
            json::push_key(out, "self_ns");
            json::push_u64(out, n.self_ns);
            out.push(',');
            json::push_key(out, "allocs");
            json::push_u64(out, n.allocs);
            out.push(',');
            json::push_key(out, "self_allocs");
            json::push_u64(out, n.self_allocs);
            out.push(',');
            json::push_key(out, "children");
            out.push('[');
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_node(out, c);
            }
            out.push_str("]}");
        }

        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "schema");
        json::push_str_escaped(&mut out, PROF_SCHEMA);
        out.push(',');
        json::push_key(&mut out, "version");
        json::push_u64(&mut out, PROF_VERSION as u64);
        out.push(',');
        json::push_key(&mut out, "roots");
        out.push('[');
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_node(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// Renders the tree as an indented plain-text table (one line per
    /// path; durations in milliseconds).
    pub fn render(&self) -> String {
        fn line(out: &mut String, n: &ProfNode, depth: usize) {
            let _ = writeln!(
                out,
                "{:indent$}{:<32} calls {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                "",
                n.name,
                n.calls,
                n.total_ns as f64 / 1e6,
                n.self_ns as f64 / 1e6,
                indent = depth * 2,
            );
            for c in &n.children {
                line(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            line(&mut out, r, 0);
        }
        out
    }

    /// The `k` hottest paths by self time, descending (path as tie-break,
    /// so the ranking is deterministic).
    pub fn top_self(&self, k: usize) -> Vec<FlatScope> {
        fn walk(nodes: &[ProfNode], prefix: &str, out: &mut Vec<FlatScope>) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.clone()
                } else {
                    format!("{prefix}/{}", n.name)
                };
                out.push(FlatScope {
                    path: path.clone(),
                    calls: n.calls,
                    self_ns: n.self_ns,
                    total_ns: n.total_ns,
                });
                walk(&n.children, &path, out);
            }
        }
        let mut flat = Vec::new();
        walk(&self.roots, "", &mut flat);
        flat.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        flat.truncate(k);
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, calls: u64, total: u64) -> ProfNode {
        ProfNode {
            name: name.to_string(),
            calls,
            total_ns: total,
            self_ns: total,
            allocs: 0,
            self_allocs: 0,
            children: Vec::new(),
        }
    }

    fn sample() -> ProfReport {
        let mut run = leaf("run", 1, 10_000);
        run.children = vec![leaf("event", 7, 6_000), leaf("io", 2, 1_000)];
        run.self_ns = 3_000;
        ProfReport { roots: vec![run] }
    }

    #[test]
    fn json_shape_and_stability() {
        let r = sample();
        let j = r.to_json();
        assert!(cbp_telemetry::json::is_valid(&j));
        assert!(j.starts_with("{\"schema\":\"cbp-prof\",\"version\":2,"));
        assert_eq!(j, r.to_json());
    }

    #[test]
    fn top_self_ranks_and_tiebreaks() {
        let top = sample().top_self(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].path, "run/event");
        assert_eq!(top[0].self_ns, 6_000);
        assert_eq!(top[1].path, "run");
    }

    #[test]
    fn render_mentions_every_path() {
        let text = sample().render();
        for name in ["run", "event", "io"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
