//! Graphviz DOT export for topologies and placements.
//!
//! Operators debugging a placement want to *see* it: `to_dot` renders the
//! graph with per-link utilization shading, and `placement_to_dot`
//! overlays role colors plus the chosen offload routes — pipe the output
//! through `dot -Tsvg` and the Fig. 4-style picture falls out.

use crate::graph::Graph;
use crate::paths::Path;
use std::fmt::Write as _;

/// Per-node decoration for [`to_dot`].
#[derive(Debug, Clone, Default)]
pub struct NodeStyle {
    /// Extra label line under the node id (e.g. `"87.5%"`).
    pub label: Option<String>,
    /// Graphviz fill color (e.g. `"tomato"`, `"#ffcc00"`).
    pub fill: Option<String>,
}

/// Render the graph as an undirected Graphviz document.
///
/// `styles` may be empty (no decoration) or hold one entry per node.
/// Edge grey level encodes utilization (darker = busier) and the edge
/// label shows `capacity-utilization%`.
///
/// # Panics
/// Panics if `styles` is non-empty but not one per node.
pub fn to_dot(g: &Graph, name: &str, styles: &[NodeStyle]) -> String {
    assert!(
        styles.is_empty() || styles.len() == g.node_count(),
        "styles must be empty or one per node"
    );
    let mut out = String::new();
    let _ = writeln!(out, "graph {} {{", sanitize(name));
    let _ = writeln!(out, "  layout=neato; overlap=false; node [shape=circle];");
    for n in g.nodes() {
        let style = styles.get(n.index());
        let mut attrs = Vec::new();
        if let Some(s) = style {
            let label = match &s.label {
                Some(l) => format!("n{}\\n{}", n.0, l),
                None => format!("n{}", n.0),
            };
            attrs.push(format!("label=\"{label}\""));
            if let Some(f) = &s.fill {
                attrs.push(format!("style=filled, fillcolor=\"{f}\""));
            }
        }
        let _ = writeln!(out, "  n{} [{}];", n.0, attrs.join(", "));
    }
    for e in g.edges() {
        // darker grey for higher utilization: grey90 (idle) … grey20 (full)
        let grey = 90.0 - e.link.utilization * 70.0;
        let _ = writeln!(
            out,
            "  n{} -- n{} [color=grey{}, label=\"{:.0}% of {:.0}M\"];",
            e.a.0,
            e.b.0,
            grey.round() as i64,
            e.link.utilization * 100.0,
            e.link.capacity_mbps,
        );
    }
    out.push_str("}\n");
    out
}

/// Render a placement overlay: the base graph plus bold red directed
/// arrows along each offload route.
pub fn placement_to_dot(g: &Graph, name: &str, styles: &[NodeStyle], routes: &[Path]) -> String {
    let mut out = to_dot(g, name, styles);
    // re-open the document to append route edges
    out.truncate(out.len() - 2); // drop "}\n"
    for (i, r) in routes.iter().enumerate() {
        for w in r.nodes.windows(2) {
            let _ = writeln!(
                out,
                "  n{} -- n{} [color=red, penwidth=2.5, label=\"route {}\", fontcolor=red, dir=forward];",
                w[0].0, w[1].0, i
            );
        }
    }
    out.push_str("}\n");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String =
        name.chars().map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if cleaned.is_empty() || cleaned.chars().next().unwrap().is_numeric() {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Link, NodeId};
    use crate::topologies::example7;

    #[test]
    fn dot_contains_every_node_and_edge() {
        let g = example7(Link::new(10_000.0, 0.5));
        let dot = to_dot(&g, "fig4", &[]);
        assert!(dot.starts_with("graph fig4 {"));
        for n in 0..7 {
            assert!(dot.contains(&format!("n{n} [")), "missing node {n}");
        }
        assert_eq!(dot.matches(" -- ").count(), 7, "one line per edge");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn styles_render_labels_and_fills() {
        let g = example7(Link::new(10_000.0, 0.5));
        let mut styles = vec![NodeStyle::default(); 7];
        styles[0] = NodeStyle { label: Some("92%".into()), fill: Some("tomato".into()) };
        let dot = to_dot(&g, "styled", &styles);
        assert!(dot.contains("n0\\n92%"));
        assert!(dot.contains("fillcolor=\"tomato\""));
    }

    #[test]
    fn utilization_darkens_edges() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), Link::new(1000.0, 0.9));
        let dot = to_dot(&g, "dark", &[]);
        assert!(dot.contains("grey27"), "90% utilization → grey27: {dot}");
    }

    #[test]
    fn placement_overlay_draws_routes() {
        let g = example7(Link::new(10_000.0, 0.5));
        let (_, route) =
            crate::paths::min_inv_lu_enumerated(&g, NodeId(0), NodeId(1), Some(2)).unwrap();
        let dot = placement_to_dot(&g, "overlay", &[], &[route]);
        assert!(dot.contains("color=red"));
        assert!(dot.contains("route 0"));
        assert!(dot.ends_with("}\n"));
        // base edges still present
        assert!(dot.matches(" -- ").count() > 7);
    }

    #[test]
    fn names_are_sanitized() {
        let g = example7(Link::new(10_000.0, 0.5));
        assert!(to_dot(&g, "4-k fat tree!", &[]).starts_with("graph g_4_k_fat_tree_ {"));
    }

    #[test]
    #[should_panic(expected = "one per node")]
    fn style_arity_checked() {
        let g = example7(Link::new(10_000.0, 0.5));
        to_dot(&g, "bad", &[NodeStyle::default()]);
    }

    use crate::graph::Graph;
}
