//! Graph serialization: a simple text edge-list format and a compact
//! binary format.
//!
//! The text format is the interchange format of most graph tooling (one
//! `src dst [type]` triple per line, `#` comments); the binary format is a
//! little-endian dump with a magic header for fast reloads of generated
//! datasets.

use crate::graph::Graph;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the binary format.
const MAGIC: &[u8; 8] = b"WGGRAPH1";

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// [`Graph::new`] for arrays read from a file: a vertex count beyond the
/// `u32` id space, an endpoint `>= v` or a type `>= t` is `InvalidData`
/// instead of a panic (or, for the vertex count, an allocation of two
/// degree arrays that long).
fn checked_graph(
    v: usize,
    t: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    ety: Vec<u32>,
) -> io::Result<Graph> {
    if u32::try_from(v).is_err() {
        return Err(invalid(format!("{v} vertices exceed the u32 id space")));
    }
    let ids = src.iter().zip(&dst).zip(&ety).enumerate();
    for (e, ((&s, &d), &ty)) in ids {
        if s as usize >= v || d as usize >= v {
            return Err(invalid(format!("edge {e} ({s} -> {d}) leaves the {v} vertices")));
        }
        if ty as usize >= t.max(1) {
            return Err(invalid(format!("edge {e} has type {ty}, beyond the {t} types")));
        }
    }
    Ok(Graph::new(v, t, src, dst, ety))
}

/// Writes the graph as a text edge list: a header comment, then one
/// `src dst type` line per edge.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_edge_list<W: Write>(g: &Graph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "# wisegraph edge list: {} vertices, {} edges, {} edge types",
        g.num_vertices(),
        g.num_edges(),
        g.num_edge_types()
    )?;
    writeln!(w, "# vertices {}", g.num_vertices())?;
    writeln!(w, "# edge-types {}", g.num_edge_types())?;
    for e in 0..g.num_edges() {
        writeln!(w, "{} {} {}", g.src()[e], g.dst()[e], g.etype()[e])?;
    }
    w.flush()
}

/// Reads a text edge list written by [`write_edge_list`] (or any
/// whitespace-separated `src dst [type]` file; vertex count defaults to
/// `max id + 1` when no header is present).
///
/// # Errors
///
/// Returns `InvalidData` for malformed lines and for a vertex count
/// (header or `max id + 1`) beyond the `u32` id space.
pub fn read_edge_list<R: Read>(r: R) -> io::Result<Graph> {
    let r = BufReader::new(r);
    let mut num_vertices: Option<usize> = None;
    let mut num_types: Option<usize> = None;
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut ety = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next()) {
                (Some("vertices"), Some(n)) => num_vertices = n.parse().ok(),
                (Some("edge-types"), Some(n)) => num_types = n.parse().ok(),
                _ => {}
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u32> {
            tok.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: missing field", lineno + 1),
                )
            })?
            .parse()
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })
        };
        src.push(parse(it.next())?);
        dst.push(parse(it.next())?);
        ety.push(match it.next() {
            Some(tok) => tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })?,
            None => 0,
        });
    }
    let max_v = src
        .iter()
        .chain(dst.iter())
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let n = num_vertices.unwrap_or(max_v).max(max_v);
    let t = num_types
        .unwrap_or_else(|| ety.iter().copied().max().map_or(0, |m| m as usize + 1));
    let t = t.max(ety.iter().copied().max().map_or(1, |m| m as usize + 1));
    checked_graph(n.max(1), t, src, dst, ety)
}

/// Writes the graph in the compact binary format.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_binary<W: Write>(g: &Graph, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    let header = [
        g.num_vertices() as u64,
        g.num_edges() as u64,
        g.num_edge_types() as u64,
    ];
    for v in header {
        w.write_all(&v.to_le_bytes())?;
    }
    let dump = |w: &mut BufWriter<W>, xs: &[u32]| -> io::Result<()> {
        for &x in xs {
            w.write_all(&x.to_le_bytes())?;
        }
        Ok(())
    };
    dump(&mut w, g.src())?;
    dump(&mut w, g.dst())?;
    dump(&mut w, g.etype())?;
    w.flush()
}

/// Reads a graph from the compact binary format.
///
/// # Errors
///
/// Returns `InvalidData` if the magic is wrong, the payload does not hold
/// exactly the edges the header counts, or an id or type is out of the
/// header's range; a header cut short is `UnexpectedEof`.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Graph> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic: not a wisegraph binary graph",
        ));
    }
    let read_u64 = |r: &mut R| -> io::Result<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    };
    let field = |x: u64| usize::try_from(x).map_err(|_| invalid(format!("size {x} overflows")));
    let v = field(read_u64(&mut r)?)?;
    let e = read_u64(&mut r)?;
    let t = field(read_u64(&mut r)?)?;
    // Sized by the bytes actually present, never by the header: one byte
    // past the claimed payload tells a longer file from an exact one.
    let want = e.checked_mul(12).ok_or_else(|| invalid(format!("{e} edges overflow")))?;
    let mut payload = Vec::new();
    r.take(want.saturating_add(1)).read_to_end(&mut payload)?;
    if payload.len() as u64 != want {
        return Err(invalid(format!(
            "header counts {e} edges ({want} bytes), the payload holds {} bytes",
            payload.len()
        )));
    }
    let mut words = payload
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    let n = payload.len() / 12;
    let src = words.by_ref().take(n).collect();
    let dst = words.by_ref().take(n).collect();
    let ety = words.collect();
    checked_graph(v, t, src, dst, ety)
}

/// Convenience: saves a graph to a path, choosing the format by extension
/// (`.bin` → binary, anything else → text edge list).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save<P: AsRef<Path>>(g: &Graph, path: P) -> io::Result<()> {
    let f = std::fs::File::create(&path)?;
    if path.as_ref().extension().is_some_and(|x| x == "bin") {
        write_binary(g, f)
    } else {
        write_edge_list(g, f)
    }
}

/// Convenience: loads a graph from a path, choosing the format by
/// extension.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let f = std::fs::File::open(&path)?;
    if path.as_ref().extension().is_some_and(|x| x == "bin") {
        read_binary(f)
    } else {
        read_edge_list(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatParams};

    fn sample() -> Graph {
        rmat(&RmatParams::standard(200, 1500, 77).with_edge_types(5))
    }

    fn graphs_equal(a: &Graph, b: &Graph) -> bool {
        a.num_vertices() == b.num_vertices()
            && a.num_edge_types() == b.num_edge_types()
            && a.src() == b.src()
            && a.dst() == b.dst()
            && a.etype() == b.etype()
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert!(graphs_equal(&g, &back));
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert!(graphs_equal(&g, &back));
        // Fixed-size records: 8 magic + 24 header + 12 bytes per edge.
        assert_eq!(buf.len(), 8 + 24 + 12 * g.num_edges());
    }

    #[test]
    fn reads_untyped_third_party_edge_lists() {
        let data = "0 1\n1 2\n2 0\n";
        let g = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.etype().iter().all(|&t| t == 0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edge_list("0 banana\n".as_bytes()).is_err());
        assert!(read_binary(&b"NOTMAGIC"[..]).is_err());
        assert!(read_binary(&b"WGGRAPH1\x01"[..]).is_err()); // truncated
    }

    /// The bytes of `g` in the binary format, with `patch` applied.
    fn binary_with(g: &Graph, patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        patch(&mut buf);
        buf
    }

    #[test]
    fn corrupt_binary_files_are_invalid_data_not_panics() {
        let g = sample();
        let e = g.num_edges();
        let set_u32 = |buf: &mut Vec<u8>, word: usize, x: u32| {
            buf[32 + 4 * word..36 + 4 * word].copy_from_slice(&x.to_le_bytes());
        };
        let set_header = |buf: &mut Vec<u8>, field: usize, x: u64| {
            buf[8 + 8 * field..16 + 8 * field].copy_from_slice(&x.to_le_bytes());
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("src out of range", binary_with(&g, |b| set_u32(b, 3, 200))),
            ("dst out of range", binary_with(&g, |b| set_u32(b, e + 3, u32::MAX))),
            ("type out of range", binary_with(&g, |b| set_u32(b, 2 * e + 3, 5))),
            ("truncated payload", binary_with(&g, |b| b.truncate(b.len() - 5))),
            ("trailing bytes", binary_with(&g, |b| b.push(0))),
            ("edge count 2^60", binary_with(&g, |b| set_header(b, 1, 1 << 60))),
            ("edge count 2^63", binary_with(&g, |b| set_header(b, 1, 1 << 63))),
            ("vertex count 2^40", binary_with(&g, |b| set_header(b, 0, 1 << 40))),
        ];
        for (what, bytes) in cases {
            let err = read_binary(&bytes[..]).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn text_vertex_count_beyond_u32_is_invalid_data() {
        for data in ["# vertices 1099511627776\n0 1\n", "0 4294967295\n"] {
            let err = read_edge_list(data.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{data:?}: {err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let data = "# a comment\n\n0 1 2\n# another\n1 0 1\n";
        let g = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_edge_types(), 3);
    }
}
