//! Result serialization: CSV writers/readers for Above-θ entries and
//! Row-Top-k lists.
//!
//! The formats are deliberately trivial — line-oriented, comma-separated,
//! with a header — so downstream analysis (spreadsheets, pandas, gnuplot)
//! can consume retrieval output directly. Scores are written with
//! round-trippable precision (`{:?}`-style shortest representation that
//! parses back to the same `f64`), and the readers reject malformed input
//! with positioned error messages instead of silently skipping lines.
//!
//! ```
//! use lemp_baselines::export::{read_entries_csv, write_entries_csv};
//! use lemp_baselines::types::Entry;
//!
//! let entries = vec![Entry { query: 0, probe: 3, value: 1.25 }];
//! let mut buf = Vec::new();
//! write_entries_csv(&mut buf, &entries).unwrap();
//! let back = read_entries_csv(&buf[..]).unwrap();
//! assert_eq!(back, entries);
//! ```

use std::io::{self, BufRead, BufReader, Read, Write};

use lemp_linalg::ScoredItem;

use crate::types::{Entry, TopKLists};

/// Errors raised by result parsing.
#[derive(Debug)]
pub enum ExportError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Malformed content, with 1-based line number.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "io error: {e}"),
            ExportError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<io::Error> for ExportError {
    fn from(e: io::Error) -> Self {
        ExportError::Io(e)
    }
}

const ENTRY_HEADER: &str = "query,probe,value";
const TOPK_HEADER: &str = "query,rank,probe,score";

/// Writes Above-θ entries as `query,probe,value` CSV with a header.
pub fn write_entries_csv<W: Write>(writer: W, entries: &[Entry]) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    writeln!(w, "{ENTRY_HEADER}")?;
    write_entry_rows(&mut w, entries)?;
    w.flush()
}

/// Appends entries as header-less `query,probe,value` rows — the streaming
/// form of [`write_entries_csv`]: write the header once with
/// `write_entries_csv(&mut w, &[])`, then the rows block by block.
pub fn write_entry_rows<W: Write>(mut w: W, entries: &[Entry]) -> io::Result<()> {
    for e in entries {
        writeln!(w, "{},{},{:?}", e.query, e.probe, e.value)?;
    }
    Ok(())
}

/// Reads entries written by [`write_entries_csv`].
///
/// # Errors
/// [`ExportError::Parse`] on a missing/mismatched header, wrong field
/// count, or unparseable numbers; [`ExportError::Io`] on read failure.
pub fn read_entries_csv<R: Read>(reader: R) -> Result<Vec<Entry>, ExportError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    if header.trim() != ENTRY_HEADER {
        return Err(ExportError::Parse {
            line: 1,
            message: format!("expected header `{ENTRY_HEADER}`, found `{header}`"),
        });
    }
    let mut entries = Vec::new();
    for (idx, line) in lines.enumerate() {
        let line = line?;
        let lineno = idx + 2;
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let (q, p, v) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(q), Some(p), Some(v), None) => (q, p, v),
            _ => {
                return Err(ExportError::Parse {
                    line: lineno,
                    message: format!("expected 3 fields, found `{line}`"),
                })
            }
        };
        entries.push(Entry {
            query: parse(q, lineno, "query")?,
            probe: parse(p, lineno, "probe")?,
            value: parse(v, lineno, "value")?,
        });
    }
    Ok(entries)
}

/// Writes Row-Top-k lists as `query,rank,probe,score` CSV with a header;
/// ranks are 1-based per query.
pub fn write_topk_csv<W: Write>(writer: W, lists: &TopKLists) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    writeln!(w, "{TOPK_HEADER}")?;
    write_topk_rows(&mut w, 0, lists)?;
    w.flush()
}

/// Appends lists as header-less `query,rank,probe,score` rows, list `i`
/// answering query `first_query + i` — the streaming form of
/// [`write_topk_csv`] (header once via `write_topk_csv(&mut w, &vec![])`).
pub fn write_topk_rows<W: Write>(
    mut w: W,
    first_query: usize,
    lists: &[Vec<ScoredItem>],
) -> io::Result<()> {
    for (i, list) in lists.iter().enumerate() {
        for (rank, item) in list.iter().enumerate() {
            writeln!(w, "{},{},{},{:?}", first_query + i, rank + 1, item.id, item.score)?;
        }
    }
    Ok(())
}

/// Reads lists written by [`write_topk_csv`].
///
/// Queries with no rows come back as empty lists; the result length covers
/// the largest query id present (callers that know the query count can
/// resize). Rows must be grouped by query with ranks `1, 2, …` in order.
///
/// # Errors
/// [`ExportError::Parse`] on header/field/number problems or out-of-order
/// ranks; [`ExportError::Io`] on read failure.
pub fn read_topk_csv<R: Read>(reader: R) -> Result<TopKLists, ExportError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    if header.trim() != TOPK_HEADER {
        return Err(ExportError::Parse {
            line: 1,
            message: format!("expected header `{TOPK_HEADER}`, found `{header}`"),
        });
    }
    let mut lists: TopKLists = Vec::new();
    for (idx, line) in lines.enumerate() {
        let line = line?;
        let lineno = idx + 2;
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let (q, r, p, s) =
            match (fields.next(), fields.next(), fields.next(), fields.next(), fields.next()) {
                (Some(q), Some(r), Some(p), Some(s), None) => (q, r, p, s),
                _ => {
                    return Err(ExportError::Parse {
                        line: lineno,
                        message: format!("expected 4 fields, found `{line}`"),
                    })
                }
            };
        let query: usize = parse(q, lineno, "query")?;
        let rank: usize = parse(r, lineno, "rank")?;
        let probe: usize = parse(p, lineno, "probe")?;
        let score: f64 = parse(s, lineno, "score")?;
        if query >= lists.len() {
            lists.resize_with(query + 1, Vec::new);
        }
        if rank != lists[query].len() + 1 {
            return Err(ExportError::Parse {
                line: lineno,
                message: format!(
                    "query {query}: expected rank {}, found {rank}",
                    lists[query].len() + 1
                ),
            });
        }
        lists[query].push(ScoredItem { id: probe, score });
    }
    Ok(lists)
}

fn parse<T: std::str::FromStr>(field: &str, line: usize, name: &str) -> Result<T, ExportError> {
    field
        .trim()
        .parse()
        .map_err(|_| ExportError::Parse { line, message: format!("invalid {name}: `{field}`") })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<Entry> {
        vec![
            Entry { query: 0, probe: 3, value: 1.25 },
            Entry { query: 0, probe: 7, value: -0.5 },
            Entry { query: 2, probe: 1, value: 1e-300 },
            Entry { query: 4, probe: 0, value: 0.1 + 0.2 }, // non-representable decimal
        ]
    }

    #[test]
    fn entries_roundtrip_bit_exact() {
        let original = entries();
        let mut buf = Vec::new();
        write_entries_csv(&mut buf, &original).unwrap();
        let back = read_entries_csv(&buf[..]).unwrap();
        assert_eq!(back.len(), original.len());
        for (a, b) in back.iter().zip(&original) {
            assert_eq!((a.query, a.probe), (b.query, b.probe));
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "score not bit-exact");
        }
    }

    #[test]
    fn empty_entries_roundtrip() {
        let mut buf = Vec::new();
        write_entries_csv(&mut buf, &[]).unwrap();
        assert_eq!(std::str::from_utf8(&buf).unwrap().trim(), ENTRY_HEADER);
        assert!(read_entries_csv(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn entries_reject_bad_header_and_fields() {
        assert!(matches!(
            read_entries_csv("probe,query,value\n".as_bytes()),
            Err(ExportError::Parse { line: 1, .. })
        ));
        let bad = format!("{ENTRY_HEADER}\n1,2\n");
        assert!(matches!(
            read_entries_csv(bad.as_bytes()),
            Err(ExportError::Parse { line: 2, .. })
        ));
        let bad = format!("{ENTRY_HEADER}\n1,2,3,4\n");
        assert!(read_entries_csv(bad.as_bytes()).is_err());
        let bad = format!("{ENTRY_HEADER}\nx,2,0.5\n");
        let err = read_entries_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("invalid query"));
    }

    #[test]
    fn entries_skip_blank_lines() {
        let text = format!("{ENTRY_HEADER}\n\n1,2,0.5\n\n");
        let got = read_entries_csv(text.as_bytes()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].probe, 2);
    }

    fn lists() -> TopKLists {
        vec![
            vec![ScoredItem { id: 5, score: 2.5 }, ScoredItem { id: 1, score: 2.0 }],
            vec![],
            vec![ScoredItem { id: 0, score: 0.75 }],
        ]
    }

    #[test]
    fn topk_roundtrips_with_empty_lists() {
        let original = lists();
        let mut buf = Vec::new();
        write_topk_csv(&mut buf, &original).unwrap();
        let back = read_topk_csv(&buf[..]).unwrap();
        // trailing empty lists are unrepresentable; here query 2 has rows,
        // so the middle empty list survives
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].len(), 2);
        assert!(back[1].is_empty());
        assert_eq!(back[2][0].id, 0);
        for (la, lb) in back.iter().zip(&original) {
            for (a, b) in la.iter().zip(lb) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn topk_rejects_out_of_order_ranks() {
        let text = format!("{TOPK_HEADER}\n0,2,5,1.0\n");
        let err = read_topk_csv(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected rank 1"));
    }

    #[test]
    fn topk_rejects_wrong_field_count() {
        let text = format!("{TOPK_HEADER}\n0,1,5\n");
        assert!(matches!(read_topk_csv(text.as_bytes()), Err(ExportError::Parse { line: 2, .. })));
    }

    #[test]
    fn io_errors_propagate() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        assert!(matches!(read_entries_csv(Failing), Err(ExportError::Io(_))));
        let display = ExportError::Io(io::Error::other("disk on fire")).to_string();
        assert!(display.contains("disk on fire"));
    }
}
