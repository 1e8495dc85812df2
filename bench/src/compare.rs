//! `err-ledger compare a.json b.json`: is run B worse than run A?
//!
//! Per end-to-end metric: B's value against A's, as a share of A's, in
//! the metric's "worse" direction. Past the metric's bound it is a
//! regression — unless either run's own spread already exceeds the
//! bound, in which case the pair cannot tell and the metric is
//! "unresolved". A higher share of failed operations is a regression
//! whatever the timings say.
//!
//! A run's spread is what its report says its value is good to (`spread`:
//! the distance between the order statistics a standard error of the
//! rank either side of the reported quantile, as a share of the value).

use crate::json::Value;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

pub struct Row {
    pub name: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Positive = B worse, as a share of A.
    pub worsening: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

pub fn compare(a: &Value, b: &Value) -> Result<(Vec<Row>, bool), String> {
    for key in ["workload", "trace"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "reports differ in '{key}': {:?} vs {:?}",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let metrics_b = b.get("metrics").ok_or("B has no metrics")?;
    let mut rows = Vec::new();
    for (name, ma) in a.get("metrics").ok_or("A has no metrics")?.entries() {
        if ma.get("kind").and_then(Value::as_str) != Some("end_to_end") {
            continue;
        }
        let mb = metrics_b
            .get(name)
            .ok_or_else(|| format!("B lacks metric {name}"))?;
        let (va, vb, bound) = (num(ma, "value")?, num(mb, "value")?, num(ma, "bound")?);
        let lower_is_better = ma.get("better").and_then(Value::as_str) == Some("lower");
        let worsening = if va == 0.0 {
            0.0
        } else if lower_is_better {
            (vb - va) / va
        } else {
            (va - vb) / va
        };
        let spread = num(ma, "spread")?.max(num(mb, "spread")?);
        let verdict = if spread > bound {
            Verdict::Unresolved
        } else if worsening > bound {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        rows.push(Row {
            name: name.clone(),
            unit: ma
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            a: va,
            b: vb,
            worsening,
            spread,
            bound,
            verdict,
        });
    }
    let share = |r: &Value| -> Result<f64, String> {
        Ok(num(r, "ops_failed")? / num(r, "ops_attempted")?.max(1.0))
    };
    let failures_rose = share(b)? > share(a)?;
    Ok((rows, failures_rose))
}

/// Prints the table; true when B is acceptable (no regression, no rise
/// in failures).
pub fn print(rows: &[Row], failures_rose: bool) -> bool {
    println!(
        "{:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "metric", "A", "B", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<20} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>5.0}%  {}",
            format!("{} [{}]", r.name, r.unit),
            r.a,
            r.b,
            r.worsening * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        );
    }
    if failures_rose {
        println!("ops_failed share rose: REGRESSION");
    }
    !failures_rose && rows.iter().all(|r| r.verdict != Verdict::Regression)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn report(fps: f64, spread: f64, lat: f64, failed: u64) -> Value {
        let metric = |v: f64, spread: f64, better: &str, kind: &str| {
            obj([
                ("value", v.into()),
                ("unit", "x".into()),
                ("better", better.into()),
                ("kind", kind.into()),
                ("bound", 0.1.into()),
                ("spread", spread.into()),
            ])
        };
        obj([
            ("workload", "runtime_sync".into()),
            ("trace", false.into()),
            ("ops_attempted", 1000u64.into()),
            ("ops_failed", failed.into()),
            (
                "metrics",
                obj([
                    ("flits_per_s", metric(fps, spread, "higher", "end_to_end")),
                    ("paced_latency_us", metric(lat, 0.0, "lower", "end_to_end")),
                    (
                        "err-sched.enqueue_ns",
                        metric(1.0, 9.0, "lower", "per_layer"),
                    ),
                ]),
            ),
        ])
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<Verdict> {
        compare(a, b)
            .unwrap()
            .0
            .into_iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn within_bound_is_ok_and_per_layer_is_ignored() {
        let a = report(100.0, 0.01, 50.0, 0);
        let b = report(95.0, 0.01, 54.0, 0);
        assert_eq!(verdicts(&a, &b), [Verdict::Ok, Verdict::Ok]);
        let (rows, rose) = compare(&a, &b).unwrap();
        assert!(print(&rows, rose));
        assert!(
            (rows[0].worsening - 0.05).abs() < 1e-12,
            "higher-is-better drops count as worse"
        );
    }

    #[test]
    fn past_bound_is_a_regression_in_either_direction() {
        let a = report(100.0, 0.01, 50.0, 0);
        assert_eq!(
            verdicts(&a, &report(85.0, 0.01, 50.0, 0)),
            [Verdict::Regression, Verdict::Ok]
        );
        assert_eq!(
            verdicts(&a, &report(100.0, 0.01, 56.0, 0)),
            [Verdict::Ok, Verdict::Regression]
        );
        // Improvements never regress.
        assert_eq!(
            verdicts(&a, &report(150.0, 0.01, 20.0, 0)),
            [Verdict::Ok, Verdict::Ok]
        );
        let (rows, rose) = compare(&a, &report(85.0, 0.01, 50.0, 0)).unwrap();
        assert!(!print(&rows, rose));
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // A's value is good to 11 %, past the 10 % bound.
        let a = report(100.0, 0.11, 50.0, 0);
        let b = report(80.0, 0.01, 50.0, 0);
        assert_eq!(verdicts(&a, &b)[0], Verdict::Unresolved);
    }

    #[test]
    fn a_rise_in_failed_share_fails_the_comparison() {
        let a = report(100.0, 0.01, 50.0, 0);
        let b = report(100.0, 0.01, 50.0, 2);
        let (rows, rose) = compare(&a, &b).unwrap();
        assert!(rose && !print(&rows, rose));
        assert!(!compare(&b, &b).unwrap().1, "equal share is not a rise");
    }

    #[test]
    fn different_workloads_do_not_compare() {
        let a = report(100.0, 0.01, 50.0, 0);
        let mut b = a.clone();
        if let Value::Obj(pairs) = &mut b {
            pairs[0].1 = "fabric_mesh".into();
        }
        assert!(compare(&a, &b).is_err());
    }
}
