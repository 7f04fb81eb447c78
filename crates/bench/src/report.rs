//! Experiment reports: tabular results with CSV export, plus the unified
//! `BENCH_*.json` machine-readable artifact emitter.
//!
//! Every `BENCH_*.json` file shares one envelope (see
//! [`bench_json_envelope`]):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "experiment": "<id>",
//!   "git_commit": "<hex, with \"-dirty\" on an uncommitted tree, or \"unknown\">",
//!   "results": { ...experiment-specific... }
//! }
//! ```
//!
//! so downstream tooling can key on `schema_version`/`experiment` without
//! per-experiment parsers. The JSON values come from [`fpm_serve::json`],
//! whose writer renders floats shortest-round-trip.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use fpm_serve::json::Json;

/// Version of the shared `BENCH_*.json` envelope. Bump when the envelope
/// (not an experiment's `results` payload) changes shape.
///
/// History: 2 — bumped for a payload change of the since-retired
/// `bench_serve` experiment; 1 — initial envelope.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// A tabular experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `fig22a`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected shape, paper comparison).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len(), "row arity must match header");
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// CSV rendering (RFC-4180-ish; quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// The current git commit, with `-dirty` appended when tracked files
/// differ from it (`git diff --quiet HEAD` fails), so that a record written
/// on an uncommitted tree does not name its parent as if it were that
/// tree; `"unknown"` outside a repository or without git on PATH.
pub fn git_commit() -> String {
    let git = |args: &[&str]| Command::new("git").args(args).output().ok();
    let head = git(&["rev-parse", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty());
    match head {
        None => "unknown".to_owned(),
        Some(head) if git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| !o.status.success()) => {
            format!("{head}-dirty")
        }
        Some(head) => head,
    }
}

/// Wraps an experiment's results in the shared envelope.
pub fn bench_json_envelope(experiment: &str, results: Json) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::uint(BENCH_SCHEMA_VERSION)),
        ("experiment".into(), Json::str(experiment)),
        ("git_commit".into(), Json::str(git_commit())),
        ("results".into(), results),
    ])
}

/// Writes `BENCH_<experiment>.json` (envelope + payload) into the current
/// directory and returns its path.
pub fn write_bench_json(experiment: &str, results: Json) -> io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{experiment}.json"));
    let mut body = bench_json_envelope(experiment, results).to_string();
    body.push('\n');
    fs::write(&path, body)?;
    Ok(path)
}

/// Formats a float with the given precision, trimming `-0`.
pub fn fnum(v: f64, precision: usize) -> String {
    let s = format!("{v:.precision$}");
    if s.starts_with("-0.") && s[3..].chars().all(|c| c == '0') {
        s[1..].to_owned()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("t", "demo", &["a", "b"]);
        r.push_row(vec!["1".into(), "x,y".into()]);
        r.note("hello");
        r
    }

    #[test]
    fn text_contains_everything() {
        let t = sample().to_text();
        assert!(t.contains("demo"));
        assert!(t.contains("x,y"));
        assert!(t.contains("hello"));
    }

    #[test]
    fn csv_quotes_separators() {
        let c = sample().to_csv();
        assert!(c.contains("\"x,y\""));
        assert!(c.starts_with("a,b\n"));
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("fpm_bench_test_reports");
        sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(content.contains("x,y"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnum_trims_negative_zero() {
        assert_eq!(fnum(-0.0001, 2), "0.00");
        assert_eq!(fnum(1.236, 2), "1.24");
    }

    #[test]
    fn bench_envelope_has_version_commit_and_payload() {
        let payload = Json::Obj(vec![("x".into(), Json::uint(7))]);
        let env = bench_json_envelope("demo", payload);
        assert_eq!(
            env.get("schema_version").and_then(Json::as_u64),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert_eq!(env.get("experiment").and_then(Json::as_str), Some("demo"));
        let commit = env.get("git_commit").and_then(Json::as_str).unwrap();
        assert!(!commit.is_empty());
        assert_eq!(
            env.get("results").and_then(|r| r.get("x")).and_then(Json::as_u64),
            Some(7)
        );
        // The rendered envelope must parse back.
        let round = Json::parse(&env.to_string()).unwrap();
        assert_eq!(round.get("experiment").and_then(Json::as_str), Some("demo"));
    }

    #[test]
    fn git_commit_is_hex_or_unknown() {
        let c = git_commit();
        let hex = c.strip_suffix("-dirty").unwrap_or(&c);
        assert!(
            c == "unknown" || (hex.len() == 40 && hex.chars().all(|ch| ch.is_ascii_hexdigit())),
            "{c}"
        );
    }
}
