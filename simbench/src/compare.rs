//! `--compare`: medians, quartiles and a verdict per workload and
//! end-to-end metric across two sets of result files, with the bounds
//! and directions declared in `BENCHMARK.json`.
//!
//! There is no JSON dependency in this repository, so both files are
//! read with a hand-rolled scan, as the `core` bench reads its baseline.
//! The scan relies only on what this benchmark writes: flat objects,
//! and no `{`, `}`, `[`, `]` or `"` inside the declared strings.

use std::fmt::Write;

use crate::stats::quartiles;

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` this benchmark reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Benchmark {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// The raw text of `"key": <value>` in `text`: a string's contents or a
/// scalar's characters.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = text[start..].trim_start().strip_prefix(':')?.trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}', ']']).next().map(str::trim),
    }
}

/// A number field.
pub fn number(text: &str, key: &str) -> Option<f64> {
    field(text, key)?.parse().ok()
}

/// The `{...}` objects of the array under `key`.
fn objects<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let Some(at) = text.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let array = &text[at..];
    let array = &array[..array.find(']').unwrap_or(array.len())];
    array
        .split('{')
        .skip(1)
        .filter_map(|o| o.split('}').next())
        .collect()
}

fn declared(text: &str, key: &str) -> Option<Vec<Declared>> {
    objects(text, key)
        .into_iter()
        .map(|o| {
            Some(Declared {
                name: field(o, "name")?.to_string(),
                unit: field(o, "unit")?.to_string(),
                higher_is_better: field(o, "better")? == "higher",
                bound: number(o, "bound"),
            })
        })
        .collect()
}

/// Reads the parts of `BENCHMARK.json` this benchmark uses.
pub fn parse_benchmark(text: &str) -> Option<Benchmark> {
    Some(Benchmark {
        run_seconds: field(text, "run_seconds")?.parse().ok()?,
        workloads: objects(text, "workloads")
            .into_iter()
            .map(|o| field(o, "name").map(str::to_string))
            .collect::<Option<_>>()?,
        end_to_end: declared(text, "end_to_end")?,
        per_layer: declared(text, "per_layer")?,
    })
}

/// The value of metric `name` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\":{{"))?;
    number(&line[at + name.len() + 3..], "value")
}

/// Comparison of one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base `(q1, median, q3)`.
    pub base: (f64, f64, f64),
    /// Head `(q1, median, q3)`.
    pub head: (f64, f64, f64),
    /// Head median relative to base, positive when worse.
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, relative to median.
    pub spread: f64,
    /// `better`, `worse`, `unchanged` or `unresolved`.
    pub verdict: &'static str,
}

/// Runs per side below which a comparison gives no verdict.
pub const MIN_RUNS: usize = 5;

/// Judges head against base for one metric. A metric is unresolved with
/// fewer than [`MIN_RUNS`] runs a side, or when either side's quartile
/// spread exceeds the bound, unless every head run beats every base run.
pub fn judge(
    base: &[f64],
    head: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Option<(f64, f64, &'static str)> {
    let (bq1, bm, bq3) = quartiles(base)?;
    let (hq1, hm, hq3) = quartiles(head)?;
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (hm - bm) / bm;
    let spread = ((bq3 - bq1) / bm).max((hq3 - hq1) / hm);
    let beats = |h: f64, b: f64| sign * (h - b) < 0.0;
    let all_better = head.iter().all(|&h| base.iter().all(|&b| beats(h, b)));
    let verdict = if base.len() < MIN_RUNS || head.len() < MIN_RUNS {
        "unresolved"
    } else if all_better {
        "better"
    } else if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "unchanged"
    };
    Some((worse_by, spread, verdict))
}

/// Compares two sets of result lines (one line per workload and run).
pub fn compare(bench: &Benchmark, base: &[String], head: &[String]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &bench.workloads {
        let of = |lines: &[String]| -> Vec<String> {
            lines
                .iter()
                .filter(|l| field(l, "workload") == Some(w.as_str()))
                .cloned()
                .collect()
        };
        let (b, h) = (of(base), of(head));
        for m in &bench.end_to_end {
            let values = |lines: &[String]| -> Vec<f64> {
                lines
                    .iter()
                    .filter_map(|l| metric_value(l, &m.name))
                    .collect()
            };
            let (bv, hv) = (values(&b), values(&h));
            let bound = m.bound.unwrap_or(0.0);
            if let Some((worse_by, spread, verdict)) = judge(&bv, &hv, m.higher_is_better, bound) {
                rows.push(Row {
                    workload: w.clone(),
                    metric: m.name.clone(),
                    base: quartiles(&bv).expect("judged"),
                    head: quartiles(&hv).expect("judged"),
                    worse_by,
                    spread,
                    verdict,
                });
            }
        }
    }
    rows
}

/// The printed comparison table.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<18} {:>34} {:>34} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base q1 / median / q3", "head q1 / median / q3", "worse", "spread"
    );
    let q = |(a, b, c): (f64, f64, f64)| format!("{a:.4} / {b:.4} / {c:.4}");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<17} {:<18} {:>34} {:>34} {:>7.2}% {:>6.2}%  {}",
            r.workload,
            r.metric,
            q(r.base),
            q(r.head),
            100.0 * r.worse_by,
            100.0 * r.spread,
            r.verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_and_metric_values_scan() {
        let line = r#"{"workload":"disk_mix","correct":true,"metrics":{"a":{"value":1.5,"unit":"ms"},"b":{"value":2e-3,"unit":"s"}}}"#;
        assert_eq!(field(line, "workload"), Some("disk_mix"));
        assert_eq!(field(line, "correct"), Some("true"));
        assert_eq!(metric_value(line, "a"), Some(1.5));
        assert_eq!(metric_value(line, "b"), Some(0.002));
        assert_eq!(metric_value(line, "c"), None);
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Every head run beats every base run: better even inside the bound.
        assert_eq!(
            judge(&base, &[9.5, 9.6, 9.4, 9.5, 9.55], false, 0.1)
                .unwrap()
                .2,
            "better"
        );
        assert_eq!(
            judge(&base, &[10.0, 10.1, 9.9, 10.0, 10.05], false, 0.1)
                .unwrap()
                .2,
            "unchanged"
        );
        assert_eq!(
            judge(&base, &[12.0, 12.1, 11.9, 12.0, 12.05], false, 0.1)
                .unwrap()
                .2,
            "worse"
        );
        // Higher is better: the same drop is a regression.
        assert_eq!(
            judge(&base, &[8.0, 8.1, 7.9, 8.0, 8.05], true, 0.1)
                .unwrap()
                .2,
            "worse"
        );
        // Too few runs, or a spread wider than the bound, leave it open.
        assert_eq!(
            judge(&base[..4], &[1.0; 4], false, 0.1).unwrap().2,
            "unresolved"
        );
        assert_eq!(
            judge(&base, &[5.0, 15.0, 10.0, 20.0, 1.0], false, 0.1)
                .unwrap()
                .2,
            "unresolved"
        );
    }
}
