//! Rendering one run: the driver's result line, the record kept in a
//! result file, and the table printed for people.

use crate::common::{Cfg, Outcome};
use crate::json::Value;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::Summary;

pub fn summary_json(s: &Summary) -> Value {
    Value::obj([
        ("value", Value::Num(s.value)),
        ("q1", Value::opt(s.q1)),
        ("q3", Value::opt(s.q3)),
        ("segments", Value::Num(s.segments as f64)),
        ("samples", Value::Num(s.samples as f64)),
    ])
}

/// The names a run of this kind must print, in declared order.
fn declared(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// End-to-end metrics a run failed to measure (every workload owes every
/// one of them). A per-layer metric may be missing: the workload does not
/// exercise that layer, and it prints as 0.
pub fn unmeasured(out: &Outcome, trace: bool) -> Vec<&'static str> {
    if trace {
        return Vec::new();
    }
    declared(false)
        .into_iter()
        .filter(|n| out.metrics.get(n).is_none())
        .collect()
}

/// The single line the driver reads: `correct`, `attempted`, `failed`
/// and every end-to-end (untraced) or per-layer (traced) metric.
pub fn driver_line(out: &Outcome, trace: bool) -> Value {
    let metrics = declared(trace).into_iter().map(|name| {
        let unit = metrics::unit_of(name).expect("declared");
        (
            name,
            Value::obj([
                ("value", Value::Num(out.metrics.value(name))),
                ("unit", Value::str(unit)),
            ]),
        )
    });
    Value::obj([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
}

/// Everything a result file keeps of one run.
pub fn record(workload: &str, cfg: &Cfg, out: &Outcome) -> Value {
    let metrics = declared(cfg.trace).into_iter().map(|name| {
        let mut fields = vec![(
            "unit".to_owned(),
            Value::str(metrics::unit_of(name).expect("declared")),
        )];
        match out.metrics.get(name) {
            Some(s) => fields.extend(summary_json(s).as_obj().iter().cloned()),
            // Not exercised by this workload.
            None => fields.push(("value".to_owned(), Value::Num(0.0))),
        }
        (name, Value::Obj(fields))
    });
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("engine_threads", Value::Num(cfg.engine_threads as f64)),
        ("serve_workers", Value::Num(cfg.workers as f64)),
        ("client_connections", Value::Num(cfg.clients as f64)),
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "gates",
            Value::obj(out.gates.iter().map(|(name, ok)| (*name, Value::Bool(*ok)))),
        ),
        ("notes", Value::obj(out.notes.iter().cloned())),
        ("metrics", Value::obj(metrics)),
    ])
}

/// One run of a result file as a table: every metric by name with its
/// unit, quartiles over segments and the sample count.
pub fn print_table(rec: &Value) {
    let text = |key: &str| {
        rec.get(key)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let num = |key: &str| rec.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let traced = rec.get("trace").and_then(Value::as_bool).unwrap_or(false);
    println!(
        "\n== {} · seed {} · {} s · {} · attempted {} · failed {} · {}",
        text("workload"),
        num("seed"),
        num("seconds"),
        if traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        num("attempted"),
        num("failed"),
        if rec.get("correct").and_then(Value::as_bool) == Some(true) {
            "correct"
        } else {
            "INCORRECT"
        },
    );
    println!(
        "{:<30} {:>16} {:<6} {:>14} {:>14} {:>4} {:>9}",
        "metric", "value", "unit", "q1", "q3", "seg", "samples"
    );
    let metrics = rec.get("metrics").map(Value::as_obj).unwrap_or(&[]);
    for (name, m) in metrics {
        let f = |key: &str| m.get(key).and_then(Value::as_f64);
        let cell = |v: Option<f64>| v.map_or("-".to_owned(), sig);
        println!(
            "{:<30} {:>16} {:<6} {:>14} {:>14} {:>4} {:>9}",
            name,
            cell(f("value")),
            m.get("unit").and_then(Value::as_str).unwrap_or(""),
            cell(f("q1")),
            cell(f("q3")),
            cell(f("segments")),
            cell(f("samples")),
        );
    }
    for (gate, ok) in rec.get("gates").map(Value::as_obj).unwrap_or(&[]) {
        println!(
            "  gate {:<70} {}",
            gate,
            if ok.as_bool() == Some(true) {
                "ok"
            } else {
                "FAILED"
            }
        );
    }
    for (key, value) in rec.get("notes").map(Value::as_obj).unwrap_or(&[]) {
        println!("  note {key}: {value}");
    }
}

/// Six significant digits, no exponent for the magnitudes metrics have.
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return "0".into();
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    let s = format!("{v:.digits$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.metrics.set_value("setup_s", 0.8127);
        out.count(10, 0);
        out.gate("g", true);
        let line = driver_line(&out, false);
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].0, "setup_s");
        assert_eq!(
            metrics[0].1.to_string(),
            "{\"value\": 0.8127, \"unit\": \"s\"}"
        );
        assert_eq!(unmeasured(&out, false).len(), END_TO_END.len() - 1);
        assert_eq!(
            driver_line(&out, true)
                .get("metrics")
                .unwrap()
                .as_obj()
                .len(),
            PER_LAYER.len()
        );
        assert!(unmeasured(&out, true).is_empty());
    }

    #[test]
    fn sig_keeps_six_digits() {
        assert_eq!(sig(1234567.0), "1234567");
        assert_eq!(sig(0.000123456789), "0.000123457");
        assert_eq!(sig(52.50), "52.5");
        assert_eq!(sig(0.0), "0");
    }
}
