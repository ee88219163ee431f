//! Graph serialization: whitespace edge-list text and a compact binary
//! format.
//!
//! The text format accepts the conventions of SNAP / Network Repository /
//! Matrix Market-ish exports that the paper's datasets ship in: one edge
//! per line, `#`/`%`-prefixed comment lines, whitespace or comma
//! separators, arbitrary vertex labels remapped densely on load.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::CsrGraph;
use crate::error::GraphError;

/// Magic bytes of the binary format (`NUCG` + version 1).
const MAGIC: [u8; 4] = *b"NUCG";
const VERSION: u32 = 1;

/// Reads an edge-list from any reader.
///
/// Vertex labels may be arbitrary non-negative integers; they are
/// remapped to a dense `0..n` range in first-seen order. Returns the
/// graph; self-loops and duplicates are removed.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut remap: HashMap<u64, u32> = HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let intern = |label: u64, remap: &mut HashMap<u64, u32>| -> u32 {
        let next = remap.len() as u32;
        *remap.entry(label).or_insert(next)
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty());
        let parse = |tok: Option<&str>| -> Result<u64, GraphError> {
            tok.and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| GraphError::Parse {
                    line: lineno + 1,
                    content: trimmed.chars().take(80).collect(),
                })
        };
        let a = parse(parts.next())?;
        let b = parse(parts.next())?;
        // Extra columns (weights, timestamps) are ignored.
        let u = intern(a, &mut remap);
        let v = intern(b, &mut remap);
        edges.push((u, v));
    }
    let n = remap.len();
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Reads an edge-list file from `path`. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes `g` as a plain edge list (one `u v` pair per line).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nucleus-hierarchy edge list: n={} m={}", g.n(), g.m())?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` in the compact binary format (little-endian u32s).
pub fn write_binary<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(g.n() as u64).to_le_bytes())?;
    w.write_all(&(g.m() as u64).to_le_bytes())?;
    for (_, u, v) in g.edges() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph produced by [`write_binary`].
pub fn read_binary<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(GraphError::Format("bad magic".into()));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    if u32::from_le_bytes(buf4) != VERSION {
        return Err(GraphError::Format("unsupported version".into()));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8);
    // Vertex ids are u32: no graph names more than 2^32 vertices.
    if n > 1 << 32 {
        return Err(GraphError::Format(format!(
            "vertex count {n} exceeds u32 vertex ids"
        )));
    }
    let n = n as usize;
    r.read_exact(&mut buf8)?;
    let m = u64::from_le_bytes(buf8);
    // The header's edge count is untrusted: grow as edges arrive, so a
    // short file ends in an EOF error rather than a huge allocation.
    let mut edges = Vec::new();
    for _ in 0..m {
        r.read_exact(&mut buf4)?;
        let u = u32::from_le_bytes(buf4);
        r.read_exact(&mut buf4)?;
        let v = u32::from_le_bytes(buf4);
        if u as usize >= n || v as usize >= n {
            return Err(GraphError::Format("edge endpoint out of range".into()));
        }
        edges.push((u, v));
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_text_with_comments_and_commas() {
        let text = "# comment\n% another\n10 20\n20,30 999\n\n10 30\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3); // labels 10, 20, 30 remapped
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list("1 banana\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn text_round_trip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
    }

    #[test]
    fn binary_round_trip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        for (_, u, v) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_binary(buf.as_slice()).is_err());
        let mut short = Vec::new();
        write_binary(&g, &mut short).unwrap();
        short.truncate(short.len() - 2);
        assert!(read_binary(short.as_slice()).is_err());
    }

    /// A bare 24-byte header with the given vertex and edge counts.
    fn header(n: u64, m: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&m.to_le_bytes());
        bytes
    }

    #[test]
    fn binary_rejects_headers_the_body_cannot_back() {
        // u64::MAX edges announced, none present: EOF, not an allocation
        let err = read_binary(header(4, u64::MAX).as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
        // more vertices than u32 ids can name
        let err = read_binary(header((1 << 32) + 1, 0).as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
        // an edge on an empty vertex set
        let mut bytes = header(0, 1);
        bytes.extend_from_slice(&[0; 8]);
        let err = read_binary(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
    }
}
