//! `compare A.json B.json`: is B no worse than A?
//!
//! For every workload × end-to-end metric the bound in `BENCHMARK.json`
//! is applied to the medians of the two files' untraced runs
//! (choosing-metrics §6.5): `ok` when B's median is no worse than A's by
//! more than the bound, `regressed` when it is, and `unresolved` when the
//! run-to-run spread of either side is wider than the bound — unless
//! every run of B reads better than every run of A. Counts declared exact
//! must be identical in the traced runs of both files that share a seed.

use crate::json::Value;
use crate::metrics::PER_LAYER;
use crate::report::sig;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One line of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    /// Rendered detail: medians with their bases, worsening, spread.
    pub detail: String,
}

/// The untraced or traced runs of `workload` in a result file.
fn runs<'a>(file: &'a Value, workload: &str, trace: bool) -> Vec<&'a Value> {
    file.get("runs")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(trace))
        .collect()
}

fn metric_of<'a>(run: &'a Value, metric: &str) -> Option<&'a Value> {
    run.get("metrics")?.get(metric)
}

/// Run-to-run spread (inter-quartile distance over the median) of one
/// side; with a single run, the spread over that run's segments.
fn spread_of(runs: &[&Value], metric: &str, values: &[f64]) -> Option<f64> {
    if values.len() >= 2 {
        return stats::spread(values);
    }
    let m = metric_of(runs.first()?, metric)?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    let value = m.get("value")?.as_f64()?;
    (value != 0.0).then(|| (q3 - q1) / value.abs())
}

/// Compares two result files under the bounds of `manifest`
/// (`BENCHMARK.json`). Rows come in manifest order.
pub fn compare(manifest: &Value, a: &Value, b: &Value) -> Vec<Row> {
    let names = |key: &str| -> Vec<&Value> {
        manifest
            .get(key)
            .map(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .collect()
    };
    let mut rows = Vec::new();
    for w in names("workloads") {
        let workload = w.get("name").and_then(Value::as_str).unwrap_or_default();
        let (runs_a, runs_b) = (runs(a, workload, false), runs(b, workload, false));
        if !runs_a.is_empty() && !runs_b.is_empty() {
            for m in names("end_to_end") {
                rows.push(end_to_end_row(workload, m, &runs_a, &runs_b));
            }
        }
        rows.extend(exact_rows(
            workload,
            &runs(a, workload, true),
            &runs(b, workload, true),
        ));
    }
    rows
}

fn end_to_end_row(workload: &str, declared: &Value, runs_a: &[&Value], runs_b: &[&Value]) -> Row {
    let metric = declared
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or_default();
    let unit = declared
        .get("unit")
        .and_then(Value::as_str)
        .unwrap_or_default();
    let bound = declared.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
    let higher = declared.get("better").and_then(Value::as_str) == Some("higher");
    let values = |runs: &[&Value]| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| metric_of(r, metric)?.get("value")?.as_f64())
            .collect()
    };
    let (va, vb) = (values(runs_a), values(runs_b));
    let row = |verdict, detail: String| Row {
        workload: workload.to_owned(),
        metric: metric.to_owned(),
        verdict,
        detail,
    };
    if va.is_empty() || vb.is_empty() {
        return row(Verdict::Unresolved, "missing from one file".into());
    }
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    // Relative worsening of B against A's median as the base.
    let worse = if ma == 0.0 {
        0.0
    } else if higher {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = [
        spread_of(runs_a, metric, &va),
        spread_of(runs_b, metric, &vb),
    ]
    .into_iter()
    .flatten()
    .fold(0.0, f64::max);
    let all_better = va
        .iter()
        .all(|&x| vb.iter().all(|&y| if higher { y > x } else { y < x }));
    let verdict = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    row(
        verdict,
        format!(
            "A {} {unit} (n={}) → B {} {unit} (n={}); {:+.2}% of A ({} is better), bound {:.2}%, spread {:.2}%",
            sig(ma),
            va.len(),
            sig(mb),
            vb.len(),
            if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() * 100.0 },
            if higher { "higher" } else { "lower" },
            bound * 100.0,
            spread * 100.0,
        ),
    )
}

/// Exact counts must repeat: every traced run of `workload` on one seed,
/// in either file, must report the same value.
fn exact_rows(workload: &str, runs_a: &[&Value], runs_b: &[&Value]) -> Vec<Row> {
    let seed = |r: &Value| r.get("seed").and_then(Value::as_f64);
    let mut rows = Vec::new();
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        let mut mismatch = None;
        let mut compared = 0;
        for ra in runs_a {
            for rb in runs_b.iter().filter(|rb| seed(rb) == seed(ra)) {
                let value = |r: &Value| {
                    metric_of(r, m.name)
                        .and_then(|v| v.get("value"))
                        .and_then(Value::as_f64)
                };
                let (va, vb) = (value(ra), value(rb));
                if va.is_none() && vb.is_none() {
                    continue;
                }
                compared += 1;
                if va != vb {
                    mismatch = Some(format!("A {va:?} ≠ B {vb:?} on seed {:?}", seed(ra)));
                }
            }
        }
        if compared > 0 {
            rows.push(Row {
                workload: workload.to_owned(),
                metric: m.name.to_owned(),
                verdict: if mismatch.is_some() {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                },
                detail: mismatch.unwrap_or_else(|| format!("identical in {compared} run pair(s)")),
            });
        }
    }
    rows
}

/// Prints the rows; `true` when nothing regressed.
pub fn print(rows: &[Row]) -> bool {
    for r in rows {
        println!(
            "{:<10} {:<11} {:<26} {}",
            r.verdict.name(),
            r.workload,
            r.metric,
            r.detail
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    count(Verdict::Regressed) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn manifest() -> Value {
        parse(
            r#"{"workloads": [{"name": "w", "why": ""}],
                "end_to_end": [
                  {"name": "lat_us", "unit": "us", "better": "lower", "bound": 0.10},
                  {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.10}]}"#,
        )
        .unwrap()
    }

    /// A result file with one untraced run per `(lat_us, qps)` pair and
    /// one traced run holding `supersteps`.
    fn file(runs: &[(f64, f64)], supersteps: f64) -> Value {
        let mut all: Vec<Value> = runs
            .iter()
            .map(|(lat, qps)| {
                parse(&format!(
                    r#"{{"workload": "w", "seed": 1, "trace": false, "metrics": {{
                        "lat_us": {{"value": {lat}, "q1": {lat}, "q3": {lat}}}, "qps": {{"value": {qps}}}}}}}"#
                ))
                .unwrap()
            })
            .collect();
        all.push(
            parse(&format!(
                r#"{{"workload": "w", "seed": 1, "trace": true, "metrics": {{"vcs.supersteps": {{"value": {supersteps}}}}}}}"#
            ))
            .unwrap(),
        );
        Value::obj([("runs", Value::Arr(all))])
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<(String, Verdict)> {
        compare(&manifest(), a, b)
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn same_numbers_are_ok_and_counts_must_match() {
        let a = file(&[(100.0, 1000.0), (101.0, 1010.0), (99.0, 990.0)], 578.0);
        let v = verdicts(&a, &a);
        assert_eq!(
            v,
            vec![
                ("lat_us".to_owned(), Verdict::Ok),
                ("qps".to_owned(), Verdict::Ok),
                ("vcs.supersteps".to_owned(), Verdict::Ok)
            ]
        );
        let b = file(&[(100.0, 1000.0), (101.0, 1010.0), (99.0, 990.0)], 579.0);
        assert_eq!(verdicts(&a, &b)[2].1, Verdict::Regressed);
        assert!(!print(&compare(&manifest(), &a, &b)));
        assert!(print(&compare(&manifest(), &a, &a)));
    }

    #[test]
    fn worsening_past_the_bound_regresses_in_the_metrics_own_direction() {
        let a = file(&[(100.0, 1000.0), (101.0, 1010.0), (99.0, 990.0)], 1.0);
        // Latency up 20 %, throughput up 20 %: only latency regressed.
        let b = file(&[(120.0, 1200.0), (121.0, 1210.0), (119.0, 1190.0)], 1.0);
        let v = verdicts(&a, &b);
        assert_eq!((v[0].1, v[1].1), (Verdict::Regressed, Verdict::Ok));
        // And the mirror image.
        let v = verdicts(&b, &a);
        assert_eq!((v[0].1, v[1].1), (Verdict::Ok, Verdict::Regressed));
        // 5 % worse is inside the 10 % bound.
        let c = file(&[(105.0, 950.0), (106.0, 960.0), (104.0, 940.0)], 1.0);
        let v = verdicts(&a, &c);
        assert_eq!((v[0].1, v[1].1), (Verdict::Ok, Verdict::Ok));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = file(
            &[
                (60.0, 1000.0),
                (100.0, 1000.0),
                (140.0, 1000.0),
                (180.0, 1000.0),
            ],
            1.0,
        );
        let shifted = file(
            &[
                (70.0, 1000.0),
                (110.0, 1000.0),
                (150.0, 1000.0),
                (190.0, 1000.0),
            ],
            1.0,
        );
        assert_eq!(verdicts(&noisy, &shifted)[0].1, Verdict::Unresolved);
        // Every run of B below every run of A: better, whatever the spread.
        let better = file(
            &[
                (10.0, 1000.0),
                (20.0, 1000.0),
                (30.0, 1000.0),
                (40.0, 1000.0),
            ],
            1.0,
        );
        assert_eq!(verdicts(&noisy, &better)[0].1, Verdict::Ok);
        // A single run falls back to its segment quartiles (none wide here).
        let one_a = file(&[(100.0, 1000.0)], 1.0);
        let one_b = file(&[(150.0, 1000.0)], 1.0);
        assert_eq!(verdicts(&one_a, &one_b)[0].1, Verdict::Regressed);
    }
}
