//! Plain edge-list text I/O.
//!
//! Format: one `u v` pair per line, `#`-prefixed comment lines ignored,
//! whitespace-separated. Vertex count is `max id + 1` unless a `# n <N>`
//! header overrides it (used to preserve trailing isolated vertices).

use std::io::{BufRead, Write};

use crate::graph::{Graph, GraphBuilder, VertexId};

/// Errors returned by the edge-list parser.
#[derive(Debug)]
pub enum ParseError {
    /// An I/O failure from the underlying reader.
    Io(std::io::Error),
    /// A malformed line, reported with its 1-based line number.
    Malformed { line: usize, content: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, content } => {
                write!(f, "malformed edge list at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses an edge list from a reader.
///
/// Returns [`ParseError::Malformed`] for a line that is not a `u v` pair,
/// a `# n` header below max id + 1 or beyond the `u32` vertex range, and
/// a vertex id that would need more than `u32::MAX` vertices.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, ParseError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut n_override: Option<usize> = None;
    // Vertex count the edges so far need (max id + 1).
    let mut needed: usize = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let malformed = || ParseError::Malformed {
            line: idx + 1,
            content: line.clone(),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let mut toks = rest.split_whitespace();
            if toks.next() == Some("n") {
                if let Some(Ok(n)) = toks.next().map(str::parse::<u64>) {
                    if n > u32::MAX as u64 || (n as usize) < needed {
                        return Err(malformed());
                    }
                    n_override = Some(n as usize);
                }
            }
            continue;
        }
        let mut toks = trimmed.split_whitespace();
        let (u, v) = match (toks.next(), toks.next()) {
            (Some(a), Some(b)) => match (a.parse::<VertexId>(), b.parse::<VertexId>()) {
                (Ok(u), Ok(v)) => (u, v),
                _ => return Err(malformed()),
            },
            _ => return Err(malformed()),
        };
        let top = u.max(v);
        // Ids index vertices 0..n with n itself a u32.
        if top == VertexId::MAX || n_override.is_some_and(|n| top as usize >= n) {
            return Err(malformed());
        }
        needed = needed.max(top as usize + 1);
        edges.push((u, v));
    }
    let n = n_override.unwrap_or(needed);
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Parses an edge list from a string.
pub fn parse_edge_list(s: &str) -> Result<Graph, ParseError> {
    read_edge_list(s.as_bytes())
}

/// Writes a graph as an edge list (with an `# n` header to preserve isolated
/// vertices on round-trip).
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# n {}", g.num_vertices())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Serializes a graph to an edge-list string.
pub fn to_edge_list_string(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_edge_list(g, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("edge list is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_list_with_comments() {
        let g = parse_edge_list("# a comment\n0 1\n1 2\n\n2 0\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn honors_n_header() {
        let g = parse_edge_list("# n 10\n0 1\n").unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_edge_list("0 1\nnope\n").unwrap_err();
        match err {
            ParseError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_single_token_lines() {
        assert!(parse_edge_list("42\n").is_err());
    }

    #[test]
    fn rejects_header_below_max_id() {
        // Header first: the out-of-range edge line is reported.
        let err = parse_edge_list("# n 2\n0 1\n0 5\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 3, .. }),
            "{err:?}"
        );
        // Header after the edges: the header line is reported.
        let err = parse_edge_list("0 5\n# n 2\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 2, .. }),
            "{err:?}"
        );
        // A header of exactly max id + 1 is fine.
        assert_eq!(parse_edge_list("# n 6\n0 5\n").unwrap().num_vertices(), 6);
    }

    #[test]
    fn rejects_header_beyond_u32_range() {
        let err = parse_edge_list("0 1\n# n 4294967296\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_vertex_id_needing_more_than_u32_vertices() {
        let err = parse_edge_list("0 1\n0 4294967295\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn round_trips() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5), (1, 2)]);
        let s = to_edge_list_string(&g);
        let g2 = parse_edge_list(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
