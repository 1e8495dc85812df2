//! One run's results: samples per metric, correctness checks, host
//! shape. Rendered twice — a full report (every metric with unit, sample
//! count, value and quartiles; what `compare` reads) and the one-line
//! result the driver reads.

use crate::catalog::{Kind, Summary, CATALOG};
use crate::host::{self, ThreadStat};
use crate::json::{obj, Value};
use crate::stats::quartiles;

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeats: u64,
    /// The CPU the whole process is confined to, if the host allowed it.
    pub pinned_cpu: Option<u64>,
    metrics: Vec<(&'static str, Vec<f64>)>,
    checks: Vec<(String, bool, String)>,
    /// Packets handed to the program under test and accepted by it.
    pub attempted: u64,
    /// Accepted packets that never reached the sink / ledger.
    pub undelivered: u64,
    /// Free-form per-workload detail (per-size rates, check inputs).
    detail: Vec<(String, Value)>,
    threads: Vec<ThreadStat>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool, repeats: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            repeats,
            pinned_cpu: None,
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            undelivered: 0,
            detail: Vec::new(),
            threads: Vec::new(),
        }
    }

    /// Adds one sample of a catalogued metric (one per repeat; a metric
    /// measured once has one sample).
    pub fn sample(&mut self, name: &'static str, x: f64) {
        assert!(
            crate::catalog::metric(name).is_some(),
            "uncatalogued metric {name}"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some((_, xs)) => xs.push(x),
            None => self.metrics.push((name, vec![x])),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("err-ledger: CHECK FAILED {name}: {detail}");
        }
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn detail(&mut self, key: &str, v: Value) {
        self.detail.push((key.to_string(), v));
    }

    /// Records the live threads' CPU and context switches (host shape);
    /// called before teardown, while the runtime's threads still exist.
    pub fn snapshot_threads(&mut self) {
        self.threads = host::threads();
    }

    /// The run's one value of a metric: its samples summarised as the
    /// catalogue says (median, or the good tail of the windows).
    pub fn value(&self, name: &str) -> Option<f64> {
        let def = crate::catalog::metric(name)?;
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, xs)| def.summarise(xs))
    }

    fn kind(&self) -> Kind {
        if self.trace {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        }
    }

    /// Closes the report: every end-to-end metric must have been
    /// measured (and be non-zero) on an untraced run; per-layer metrics
    /// a workload never touches read 0, meaning "not on this path".
    pub fn finish(&mut self) {
        let kind = self.kind();
        for m in CATALOG.iter().filter(|m| m.kind == kind) {
            match (m.kind, self.value(m.name)) {
                (Kind::EndToEnd, Some(v)) if v > 0.0 && v.is_finite() => {}
                (Kind::EndToEnd, v) => self.check(
                    &format!("metric:{}", m.name),
                    false,
                    format!("measured {v:?}"),
                ),
                (Kind::PerLayer, Some(_)) => {}
                (Kind::PerLayer, None) => self.sample(m.name, 0.0),
            }
        }
    }

    pub fn failed_checks(&self) -> u64 {
        self.checks.iter().filter(|c| !c.1).count() as u64
    }

    pub fn ops_failed(&self) -> u64 {
        self.undelivered + self.failed_checks()
    }

    pub fn correct(&self) -> bool {
        self.ops_failed() == 0
    }

    /// The full report.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, xs)| {
                let def = crate::catalog::metric(name).expect("checked on insert");
                let (q1, q3) = quartiles(xs);
                let value = def.summarise(xs);
                (
                    name.to_string(),
                    obj([
                        ("value", value.into()),
                        (
                            "summary",
                            match def.summary {
                                Summary::Median => "median",
                                Summary::GoodTail => "good_tail",
                            }
                            .into(),
                        ),
                        ("unit", def.unit.into()),
                        ("better", def.better.into()),
                        (
                            "kind",
                            match def.kind {
                                Kind::EndToEnd => "end_to_end",
                                Kind::PerLayer => "per_layer",
                            }
                            .into(),
                        ),
                        ("bound", def.bound.into()),
                        ("n", (xs.len() as u64).into()),
                        // What the value is good to, as a share of it.
                        (
                            "spread",
                            if value == 0.0 {
                                0.0
                            } else {
                                def.spread(xs) / value.abs()
                            }
                            .into(),
                        ),
                        ("q1", q1.into()),
                        ("q3", q3.into()),
                        (
                            "samples",
                            Value::Arr(xs.iter().map(|&x| x.into()).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                obj([
                    ("name", n.as_str().into()),
                    ("ok", (*ok).into()),
                    ("detail", d.as_str().into()),
                ])
            })
            .collect();
        let threads = self
            .threads
            .iter()
            .map(|t| {
                obj([
                    ("name", t.name.as_str().into()),
                    ("cpu_ms", (t.cpu_ns as f64 / 1e6).into()),
                    ("voluntary_switches", t.voluntary_switches.into()),
                    ("involuntary_switches", t.involuntary_switches.into()),
                ])
            })
            .collect();
        obj([
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("trace", self.trace.into()),
            ("repeats", self.repeats.into()),
            ("git_rev", host::git_rev().into()),
            ("nproc", host::nproc().into()),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Value::Null, Into::into),
            ),
            ("correct", self.correct().into()),
            ("ops_attempted", self.attempted.into()),
            ("ops_failed", self.ops_failed().into()),
            ("metrics", Value::Obj(metrics)),
            ("checks", Value::Arr(checks)),
            ("detail", Value::Obj(self.detail.clone())),
            ("threads", Value::Arr(threads)),
        ])
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every metric of this run's kind and no other.
    pub fn result_line(&self) -> String {
        let metrics = CATALOG
            .iter()
            .filter(|m| m.kind == self.kind())
            .map(|m| {
                (
                    m.name.to_string(),
                    obj([
                        ("value", self.value(m.name).unwrap_or(0.0).into()),
                        ("unit", m.unit.into()),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.ops_failed().into()),
            ("metrics", Value::Obj(metrics)),
        ])
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn untraced_result_line_has_exactly_the_end_to_end_metrics() {
        let mut r = Report::new("runtime_sync", 1, 10, false, 5);
        for m in CATALOG.iter().filter(|m| m.kind == Kind::EndToEnd) {
            r.sample(m.name, 2.0);
            r.sample(m.name, 4.0);
        }
        r.attempted = 100;
        r.finish();
        assert!(r.correct());
        let line = parse(&r.result_line()).unwrap();
        let keys: Vec<_> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<_> = line
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let want: Vec<_> = CATALOG
            .iter()
            .filter(|m| m.kind == Kind::EndToEnd)
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names, want);
        let full = r.to_json();
        let metrics = full.get("metrics").unwrap();
        let value = |name: &str| metrics.get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(value("peak_rss_mb"), Some(3.0), "median");
        // Good tail: 98 % of the way to the better sample.
        assert_eq!(value("flits_per_s"), Some(3.96));
        assert_eq!(value("cpu_ns_per_flit"), Some(2.04));
        let m = metrics.get("flits_per_s").unwrap();
        assert_eq!(m.get("summary").unwrap().as_str(), Some("good_tail"));
        assert_eq!(m.get("n").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_fails_the_run() {
        let mut r = Report::new("sched_direct", 1, 10, false, 5);
        r.sample("setup_s", 1.0);
        r.sample("flits_per_s", 0.0);
        r.finish();
        assert!(!r.correct());
        assert_eq!(r.ops_failed(), 4, "one zero + three missing");
    }

    #[test]
    fn traced_run_fills_untouched_layers_with_zero() {
        let mut r = Report::new("sched_direct", 1, 10, true, 5);
        r.sample("err-sched.enqueue_ns", 12.5);
        r.undelivered = 3;
        r.finish();
        assert_eq!(r.ops_failed(), 3);
        let line = parse(&r.result_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            metrics.entries().len(),
            CATALOG.iter().filter(|m| m.kind == Kind::PerLayer).count()
        );
        assert_eq!(
            metrics
                .get("err-egress.credit_pair_ns")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(
            metrics
                .get("err-sched.enqueue_ns")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
        assert!(metrics.get("flits_per_s").is_none());
    }
}
