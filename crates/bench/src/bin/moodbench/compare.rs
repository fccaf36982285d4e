//! `moodbench compare A.json B.json`: per (workload, end-to-end metric),
//! how much worse B's median is than A's, against the bound fixed in
//! `BENCHMARK.json`.
//!
//! A pair whose own run-to-run spread (on either side) exceeds the bound
//! is reported `unresolved`, not `ok`: the runs cannot tell a regression
//! of that size from noise. The exit code is non-zero on a violation or
//! when B failed more statements than A.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::run::median;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so spreads computed here agree with
/// the driver's.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let m = v.len();
    let at = |i: usize| {
        let pos = i * (m + 1);
        let j = (pos / 4).clamp(1, m - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; `None` below four runs.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[derive(Default)]
struct Side {
    /// (workload, metric) → one value per untraced run.
    e2e: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, metric) → one value per traced run, `count` metrics only.
    counts: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for run in doc.get("runs").map(Json::as_arr).unwrap_or_default() {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        *side.failed.entry(workload.clone()).or_default() +=
            run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let key = (workload.clone(), name.clone());
            if !traced {
                side.e2e.entry(key).or_default().push(value);
            } else if m.get("unit").and_then(Json::as_str) == Some("count") {
                side.counts.entry(key).or_default().push(value);
            }
        }
    }
    Ok(side)
}

/// Returns the report and whether B is acceptable against A.
pub fn compare(a_path: &str, b_path: &str, bench_path: &str) -> Result<(String, bool), String> {
    let bench_text =
        std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = Json::parse(&bench_text).map_err(|e| format!("{bench_path}: {e}"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut out = String::new();
    let mut ok = true;
    out.push_str(&format!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>6} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr"
    ));
    for metric in bench
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        let name = metric.get("name").and_then(Json::as_str).unwrap_or("?");
        let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
        for w in bench.get("workloads").map(Json::as_arr).unwrap_or_default() {
            let workload = w.get("name").and_then(Json::as_str).unwrap_or("?");
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.e2e.get(&key), b.e2e.get(&key)) else {
                out.push_str(&format!("{workload:<14} {name:<12} missing on one side\n"));
                ok = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = if lower {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (spread(va), spread(vb));
            let noisy = sa.is_some_and(|s| s > bound) || sb.is_some_and(|s| s > bound);
            let verdict = if noisy {
                "unresolved"
            } else if worse > bound {
                ok = false;
                "VIOLATION"
            } else {
                "ok"
            };
            let pct =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
            out.push_str(&format!(
                "{workload:<14} {name:<12} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>5.0}% {:>7} {:>7}  {verdict}\n",
                worse * 100.0,
                bound * 100.0,
                pct(sa),
                pct(sb),
            ));
        }
    }
    // With one client and no parallel workers, counters repeat exactly.
    for (key, va) in &a.counts {
        if key.0 == "traverse_cold" {
            continue;
        }
        if let Some(vb) = b.counts.get(key) {
            let (ma, mb) = (median(va), median(vb));
            if ma != mb {
                out.push_str(&format!(
                    "count differs: {} {} {ma} vs {mb}\n",
                    key.0, key.1
                ));
            }
        }
    }
    for (workload, fa) in &a.failed {
        let fb = b.failed.get(workload).copied().unwrap_or(0.0);
        if fb > *fa {
            out.push_str(&format!(
                "{workload}: failed statements rose from {fa} to {fb}\n"
            ));
            ok = false;
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), Some((12.5, 70.0)));
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0]), None);
    }

    fn results(dir: &std::path::Path, name: &str, lat: &[f64], failed: u32) -> String {
        let runs: Vec<String> = lat
            .iter()
            .map(|v| {
                format!(
                    r#"{{"workload": "hit", "trace": 0, "failed": {failed}, "metrics": {{"lat_us": {{"value": {v}, "unit": "us"}}}}}}"#
                )
            })
            .collect();
        let path = dir.join(name);
        std::fs::write(&path, format!(r#"{{"runs": [{}]}}"#, runs.join(", "))).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn verdicts() {
        let dir = crate::run::scratch_dir("compare");
        let bench = dir.join("bench.json");
        std::fs::write(
            &bench,
            r#"{"workloads": [{"name": "hit", "why": "x"}],
                "end_to_end": [{"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let bench = bench.to_string_lossy().into_owned();
        let base = results(&dir, "a.json", &[100.0, 101.0, 99.0, 100.0, 100.5], 0);
        let same = results(&dir, "b.json", &[104.0, 103.0, 105.0, 104.0, 104.5], 0);
        let slow = results(&dir, "c.json", &[120.0, 121.0, 119.0, 120.0, 120.5], 0);
        let noisy = results(&dir, "d.json", &[80.0, 140.0, 100.0, 160.0, 120.0], 0);
        let wrong = results(&dir, "e.json", &[100.0, 101.0, 99.0, 100.0, 100.5], 2);
        let verdict = |b: &str| compare(&base, b, &bench).unwrap();
        assert!(verdict(&same).1);
        let (report, ok) = verdict(&slow);
        assert!(!ok && report.contains("VIOLATION"), "{report}");
        let (report, ok) = verdict(&noisy);
        assert!(ok && report.contains("unresolved"), "{report}");
        let (report, ok) = verdict(&wrong);
        assert!(!ok && report.contains("failed statements rose"), "{report}");
        crate::run::remove_scratch(&dir);
    }
}
