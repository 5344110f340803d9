//! The `dustctl` network-state file format.
//!
//! A line-based plain-text description of a network snapshot — the NMDB a
//! DUST-Manager would hold — easy to emit from scripts and diff in git:
//!
//! ```text
//! # comments and blank lines are ignored
//! node <id> <utilization%> <data_mb> [nooffload]
//! edge <a> <b> <capacity_mbps> <utilization 0..1>
//! ```
//!
//! Node ids must be dense `0..n` (any order). Every referenced endpoint
//! must be declared. Parse errors carry the offending line number.

use dust::prelude::*;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Parse a network-state file into an [`Nmdb`].
pub fn parse_nmdb(input: &str) -> Result<Nmdb, ParseError> {
    struct NodeDecl {
        utilization: f64,
        data_mb: f64,
        capable: bool,
    }
    let mut nodes: Vec<Option<NodeDecl>> = Vec::new();
    let mut edges: Vec<(u32, u32, f64, f64)> = Vec::new();
    let line_count = input.lines().count();

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("node") => {
                let fields: Vec<&str> = parts.collect();
                if fields.len() < 3 || fields.len() > 4 {
                    return Err(err(
                        lineno,
                        "expected: node <id> <utilization%> <data_mb> [nooffload]",
                    ));
                }
                let id: usize = fields[0]
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid node id {:?}", fields[0])))?;
                // dense ids need one line each and must fit a `NodeId`:
                // refuse any other before the table is sized by it
                if id >= line_count || id > u32::MAX as usize {
                    return Err(err(
                        lineno,
                        format!("node id {id} cannot be dense in a {line_count}-line file"),
                    ));
                }
                let utilization: f64 = fields[1]
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid utilization {:?}", fields[1])))?;
                if !(0.0..=100.0).contains(&utilization) {
                    return Err(err(lineno, format!("utilization {utilization} outside [0,100]")));
                }
                let data_mb: f64 = fields[2]
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid data_mb {:?}", fields[2])))?;
                if !(data_mb.is_finite() && data_mb >= 0.0) {
                    return Err(err(lineno, format!("data_mb {data_mb} must be >= 0")));
                }
                let capable = match fields.get(3) {
                    None => true,
                    Some(&"nooffload") => false,
                    Some(other) => return Err(err(lineno, format!("unknown node flag {other:?}"))),
                };
                if nodes.len() <= id {
                    nodes.resize_with(id + 1, || None);
                }
                if nodes[id].is_some() {
                    return Err(err(lineno, format!("duplicate node {id}")));
                }
                nodes[id] = Some(NodeDecl { utilization, data_mb, capable });
            }
            Some("edge") => {
                let fields: Vec<&str> = parts.collect();
                if fields.len() != 4 {
                    return Err(err(
                        lineno,
                        "expected: edge <a> <b> <capacity_mbps> <utilization 0..1>",
                    ));
                }
                let a: u32 = fields[0]
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid endpoint {:?}", fields[0])))?;
                let b: u32 = fields[1]
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid endpoint {:?}", fields[1])))?;
                if a == b {
                    return Err(err(lineno, "self-loop edges are not allowed"));
                }
                let cap: f64 = fields[2]
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid capacity {:?}", fields[2])))?;
                if !(cap.is_finite() && cap > 0.0) {
                    return Err(err(lineno, format!("capacity {cap} must be positive")));
                }
                let util: f64 = fields[3].parse().map_err(|_| {
                    err(lineno, format!("invalid link utilization {:?}", fields[3]))
                })?;
                if !(0.0..=1.0).contains(&util) {
                    return Err(err(lineno, format!("link utilization {util} outside [0,1]")));
                }
                edges.push((a, b, cap, util));
            }
            Some(other) => {
                return Err(err(lineno, format!("unknown directive {other:?}")));
            }
            None => unreachable!("empty lines skipped above"),
        }
    }

    // dense-ids check
    let mut states = Vec::with_capacity(nodes.len());
    for (id, decl) in nodes.iter().enumerate() {
        match decl {
            Some(d) => {
                let s = NodeState::new(d.utilization, d.data_mb);
                states.push(if d.capable { s } else { s.non_offloading() });
            }
            None => return Err(err(0, format!("node ids must be dense: node {id} is missing"))),
        }
    }
    if states.is_empty() {
        return Err(err(0, "no nodes declared"));
    }
    let mut g = Graph::with_nodes(states.len());
    for (a, b, cap, util) in edges {
        if a as usize >= states.len() || b as usize >= states.len() {
            return Err(err(0, format!("edge {a}-{b} references an undeclared node")));
        }
        g.add_edge(NodeId(a), NodeId(b), Link::new(cap, util));
    }
    Ok(Nmdb::new(g, states))
}

/// Render an [`Nmdb`] back into the file format (round-trippable).
pub fn render_nmdb(nmdb: &Nmdb) -> String {
    let mut out = String::from("# DUST network state\n");
    for n in nmdb.graph.nodes() {
        let s = nmdb.state(n);
        out.push_str(&format!(
            "node {} {} {}{}\n",
            n.0,
            s.utilization,
            s.data_mb,
            if s.offload_capable { "" } else { " nooffload" }
        ));
    }
    for e in nmdb.graph.edges() {
        out.push_str(&format!(
            "edge {} {} {} {}\n",
            e.a.0, e.b.0, e.link.capacity_mbps, e.link.utilization
        ));
    }
    out
}

/// Render chaos-run results as an aligned table (`dustctl sim`): one row
/// per loss rate with delivery counters, retry work, convergence time,
/// and the two invariant columns.
pub fn render_chaos(rows: &[ChaosResult]) -> String {
    let mut out = String::from(
        "loss%   sent  dropped  dup  retries  abandoned  transfers  reps  first-offload  agents  ledgers\n",
    );
    for r in rows {
        let first = match r.first_transfer_ms {
            Some(ms) => format!("{:.1}s", ms as f64 / 1000.0),
            None => "never".to_string(),
        };
        out.push_str(&format!(
            "{:>5.1} {:>6} {:>8} {:>4} {:>8} {:>10} {:>10} {:>5} {:>14} {:>4}/{:<2} {:>8}\n",
            r.loss * 100.0,
            r.msgs_sent,
            r.msgs_dropped,
            r.msgs_duplicated,
            r.offer_retries,
            r.offers_abandoned,
            r.transfers,
            r.replicas,
            first,
            r.agents_present,
            r.agents_expected,
            if r.ledgers_consistent { "ok" } else { "DIVERGED" },
        ));
    }
    out
}

/// A documented sample file (the Fig. 4 topology) for `dustctl example`.
pub fn example_file() -> String {
    "# DUST network state — the paper's Fig. 4 example\n\
     # node <id> <utilization%> <data_mb> [nooffload]\n\
     node 0 92 150        # S1: Busy (over C_max = 80)\n\
     node 1 25 10         # S2: Offload-candidate\n\
     node 2 65 10         # S3: relay\n\
     node 3 65 10         # S4: relay\n\
     node 4 65 10         # S5: relay\n\
     node 5 25 10         # S6: Offload-candidate\n\
     node 6 65 10         # S7: standalone management node (no links in Fig. 4's route list)\n\
     # edge <a> <b> <capacity_mbps> <utilization 0..1>\n\
     edge 0 2 10000 0.5   # e1\n\
     edge 2 1 10000 0.5   # e2\n\
     edge 2 3 10000 0.5   # e3\n\
     edge 3 1 10000 0.5   # e4\n\
     edge 3 4 10000 0.5   # e5\n\
     edge 4 5 10000 0.5   # e6\n\
     edge 2 5 10000 0.5   # e7\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_parses_and_roundtrips() {
        let nmdb = parse_nmdb(&example_file()).unwrap();
        assert_eq!(nmdb.graph.node_count(), 7);
        assert_eq!(nmdb.graph.edge_count(), 7);
        assert_eq!(nmdb.state(NodeId(0)).utilization, 92.0);
        // round trip
        let rendered = render_nmdb(&nmdb);
        let again = parse_nmdb(&rendered).unwrap();
        assert_eq!(again.states, nmdb.states);
        assert_eq!(again.graph.edge_count(), nmdb.graph.edge_count());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let nmdb = parse_nmdb(
            "\n# hi\nnode 0 10 1\n  # indented comment\nnode 1 20 1\nedge 0 1 100 0.5\n",
        )
        .unwrap();
        assert_eq!(nmdb.graph.node_count(), 2);
    }

    #[test]
    fn nooffload_flag() {
        let nmdb = parse_nmdb("node 0 10 1 nooffload\n").unwrap();
        assert!(!nmdb.state(NodeId(0)).offload_capable);
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse_nmdb("node 0 10 1\nnode 1 999 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("outside [0,100]"), "{e}");
    }

    #[test]
    fn rejects_sparse_ids() {
        let e = parse_nmdb("node 0 10 1\nnode 2 10 1\n").unwrap_err();
        assert!(e.message.contains("dense"), "{e}");
    }

    #[test]
    fn rejects_duplicates_and_unknowns() {
        assert!(parse_nmdb("node 0 10 1\nnode 0 20 1\n")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse_nmdb("nde 0 10 1\n").unwrap_err().message.contains("unknown directive"));
        assert!(parse_nmdb("node 0 10 1 wat\n").unwrap_err().message.contains("unknown node flag"));
    }

    #[test]
    fn rejects_bad_edges() {
        let base = "node 0 10 1\nnode 1 10 1\n";
        assert!(parse_nmdb(&format!("{base}edge 0 0 100 0.5\n"))
            .unwrap_err()
            .message
            .contains("self-loop"));
        assert!(parse_nmdb(&format!("{base}edge 0 5 100 0.5\n"))
            .unwrap_err()
            .message
            .contains("undeclared"));
        assert!(parse_nmdb(&format!("{base}edge 0 1 -3 0.5\n"))
            .unwrap_err()
            .message
            .contains("positive"));
        assert!(parse_nmdb(&format!("{base}edge 0 1 100 1.5\n"))
            .unwrap_err()
            .message
            .contains("outside [0,1]"));
        assert!(parse_nmdb(&format!("{base}edge 0 1 100\n"))
            .unwrap_err()
            .message
            .contains("expected: edge"));
    }

    #[test]
    fn rejects_ids_that_cannot_be_dense_before_sizing_by_them() {
        for id in [u64::MAX, 4_000_000_000, u64::from(u32::MAX) + 1] {
            let e = parse_nmdb(&format!("node {id} 50 1\n")).unwrap_err();
            assert_eq!(e, err(1, format!("node id {id} cannot be dense in a 1-line file")));
        }
        // the last id a file can hold is one below its line count
        assert!(parse_nmdb("node 1 50 1\nnode 0 50 1\n").is_ok());
        assert!(parse_nmdb("node 2 50 1\nnode 0 50 1\n").unwrap_err().message.contains("dense"));
    }

    #[test]
    fn rejects_empty() {
        assert!(parse_nmdb("# only a comment\n").unwrap_err().message.contains("no nodes"));
    }
}
