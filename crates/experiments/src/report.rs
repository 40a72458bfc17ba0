//! Small text-table formatting helpers for experiment reports, shared
//! result types, the `results/` export helper and the exports' committed
//! digests.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use event_sim::Fnv64;

/// Response-time percentiles in seconds over a set of jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median response.
    pub p50: f64,
    /// 95th-percentile response.
    pub p95: f64,
    /// 99th-percentile response.
    pub p99: f64,
}

impl Percentiles {
    /// The `(p50, p95, p99)` tuple (the shape
    /// [`RunMetrics::response_percentiles`](smp_kernel::RunMetrics::response_percentiles)
    /// returns).
    pub fn as_tuple(self) -> (f64, f64, f64) {
        (self.p50, self.p95, self.p99)
    }
}

impl From<(f64, f64, f64)> for Percentiles {
    fn from((p50, p95, p99): (f64, f64, f64)) -> Self {
        Percentiles { p50, p95, p99 }
    }
}

/// Writes experiment artefacts under `dir`, creating it if needed, and
/// prints one `wrote <path> (<size>)` line per file — the boilerplate
/// every example used to repeat inline.
///
/// Returns the written paths in input order.
///
/// # Examples
///
/// ```no_run
/// use experiments::report::export;
/// let paths = export("results", &[("demo.txt", "hello\n")]).unwrap();
/// assert_eq!(paths[0], std::path::Path::new("results/demo.txt"));
/// ```
pub fn export(dir: impl AsRef<Path>, files: &[(&str, &str)]) -> io::Result<Vec<PathBuf>> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        let bytes = contents.len();
        let size = if bytes >= 10 * 1024 {
            format!("{} KiB", bytes / 1024)
        } else {
            format!("{bytes} B")
        };
        println!("wrote {} ({size})", path.display());
        paths.push(path);
    }
    Ok(paths)
}

/// Checks an export's bytes against its committed digest: one
/// `name length fnv64` line per export in
/// `crates/experiments/tests/goldens/export_digests.txt`, sorted by
/// name. The determinism tests call this for every export they produce,
/// so any changed byte fails them. With `GOLDEN_REGEN` set it rewrites
/// `name`'s line instead; do that only for an intentional change to
/// what a run exports.
///
/// # Panics
///
/// Panics if the export's length or FNV-64 differs from the committed
/// line, or if no line is committed for `name`.
pub fn check_export_digest(name: &str, export: &str) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/export_digests.txt"
    );
    let mut h = Fnv64::new();
    h.write_bytes(export.as_bytes());
    let actual = format!("{name} {} {:016x}", export.len(), h.finish());
    let is_name = |line: &&str| line.split(' ').next() == Some(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        // Tests in one binary run in parallel: one rewrite at a time.
        static REGEN: Mutex<()> = Mutex::new(());
        let _one_writer = REGEN
            .lock()
            .expect("no test panics while rewriting the digests");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let mut lines: Vec<&str> = text.lines().filter(|l| !is_name(l)).collect();
        lines.push(&actual);
        lines.sort_unstable();
        std::fs::write(path, lines.join("\n") + "\n").expect("write the export digests");
        return;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path}: {e} (run with GOLDEN_REGEN=1)"));
    assert_eq!(
        text.lines().find(is_name),
        Some(actual.as_str()),
        "export {name} differs from its committed digest (name, length, FNV-64)"
    );
}

/// Renders a table: header row plus data rows, columns padded to fit.
///
/// # Examples
///
/// ```
/// use experiments::report::render_table;
/// let t = render_table(
///     &["scheme", "resp"],
///     &[vec!["SMP".into(), "100".into()], vec!["PIso".into(), "99".into()]],
/// );
/// assert!(t.contains("SMP"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<w$} ", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a normalized response-time value the way the paper's figures
/// label their bars (SMP balanced = 100).
pub fn norm(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline * 100.0
    }
}

/// `"123"`-style rounded label for a normalized bar.
pub fn bar_label(value: f64) -> String {
    format!("{:.0}", value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lines_align() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn norm_scales_to_hundred() {
        assert_eq!(norm(2.0, 2.0), 100.0);
        assert_eq!(norm(3.0, 2.0), 150.0);
        assert_eq!(norm(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
