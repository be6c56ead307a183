//! Aligned-text tables and CSV output for the experiment harness.
//!
//! Deliberately tiny: the evaluation's presentation layer is plain text
//! (to the caller's writer) plus CSV files under `target/experiments/`
//! that external plotting tools can consume.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience: appends a row of displayable values.
    pub fn push<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            out.push_str(&escaped.join(","));
            out.push('\n');
        }
        out
    }
}

/// Directory experiment outputs are written to.
pub fn output_dir() -> PathBuf {
    let dir = Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir).expect("failed to create target/experiments");
    dir
}

/// Prints `table` to `out`, then [`write_csv`]: how an experiment reports
/// a table.
pub fn write_table(out: &mut dyn Write, table: &Table, name: &str) -> io::Result<()> {
    writeln!(out, "{}", table.render())?;
    write_csv(out, table, name)
}

/// Writes a table's CSV form to `target/experiments/<name>.csv` and prints
/// `wrote <path>` to `out`.
pub fn write_csv(out: &mut dyn Write, table: &Table, name: &str) -> io::Result<()> {
    let path = output_dir().join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    writeln!(out, "wrote {}", path.display())
}

/// Renders an [`lg_core::IntrospectionSnapshot`] as a table: concurrency gauges,
/// then registered metrics, then counters, then per-task profiles — the
/// standard "state of the world" block report writers embed.
pub fn snapshot_table(snap: &lg_core::IntrospectionSnapshot) -> Table {
    let mut t = Table::new(
        format!(
            "Snapshot @ {:.6}s (seq {})",
            snap.t_ns as f64 / 1e9,
            snap.seq
        ),
        &["kind", "name", "value"],
    );
    for (name, value) in [
        ("active_tasks", snap.active_tasks.to_string()),
        ("online_workers", snap.online_workers.to_string()),
        ("peak_tasks", snap.peak_tasks.to_string()),
        ("total_completed", snap.total_completed.to_string()),
    ] {
        t.push(&["gauge".to_string(), name.into(), value]);
    }
    for (name, value) in snap.metrics() {
        let v = value.map_or_else(|| "-".into(), fmt_f);
        t.push(&["metric".to_string(), name.to_string(), v]);
    }
    for (name, value) in snap.counters() {
        t.push(&["counter".to_string(), name.to_string(), value.to_string()]);
    }
    for p in snap.profiles() {
        t.push(&[
            "profile".to_string(),
            p.name.clone(),
            format!("count={} mean={}ns", p.count, fmt_f(p.mean_ns)),
        ]);
    }
    t
}

/// Formats a float with engineering-style precision for tables.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(&["a", "1"]);
        t.push(&["longer", "22"]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("name"));
        let lines: Vec<&str> = r.lines().collect();
        // All data lines the same width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn fmt_f_ranges() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.6), "1235");
        assert_eq!(fmt_f(42.25), "42.2");
        assert_eq!(fmt_f(1.5), "1.500");
        assert_eq!(fmt_f(0.0001), "1.00e-4");
    }

    #[test]
    fn write_csv_creates_file() {
        let mut t = Table::new("w", &["c"]);
        t.push(&[7]);
        let mut out = Vec::new();
        write_csv(&mut out, &t, "unit_test_report").unwrap();
        let p = Path::new("target/experiments/unit_test_report.csv");
        assert_eq!(out, format!("wrote {}\n", p.display()).as_bytes());
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "c\n7\n");
    }
}
