//! Metric names, units and the result a run prints.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` lists
//! the same names and units (a test keeps the two in step), an untraced
//! run emits every [`END_TO_END`] metric and a traced run every
//! [`PER_LAYER`] metric, on every workload.

use wino_probe::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

pub const END_TO_END: &[MetricDef] = &[
    m("fwd_ms_p95", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("rel_err_rms", "ratio"),
];

pub const PER_LAYER: &[MetricDef] = &[
    m("eff_gflops", "GFLOP/s"),
    m("fwd_ms_p50", "ms"),
    m("fwd_ms_p90", "ms"),
    m("serve_ms_p50", "ms"),
    m("serve_ms_p90", "ms"),
    m("goodput_rps", "1/s"),
    m("stage2.ms", "ms"),
    m("stage2.gflops", "GFLOP/s"),
    m("stage2.flop_per_byte", "flop/B"),
    m("stage1.input_ms", "ms"),
    m("stage1.kernel_ms", "ms"),
    m("stage3.ms", "ms"),
    m("net.layer_ms", "ms"),
    m("net.overhead_frac", "ratio"),
    m("net.stage_sum_frac", "ratio"),
    m("dispatch.ms", "ms"),
    m("dispatch.alloc_calls", "count"),
    m("alloc.calls_per_fwd", "count"),
    m("alloc.mib_per_fwd", "MiB"),
    m("sched.forkjoins", "count"),
    m("sched.forkjoin_ms", "ms"),
    m("sched.busy_frac", "ratio"),
    m("sched.imbalance", "ratio"),
    m("sched.scaling_eff", "ratio"),
    m("serve.queue_wait_ms", "ms"),
    m("serve.service_ms", "ms"),
    m("serve.batch_mean", "count"),
    m("serve.shed_frac.overloaded", "ratio"),
    m("serve.shed_frac.predicted", "ratio"),
    m("serve.shed_frac.deadline", "ratio"),
    m("serve.shed_frac.memory", "ratio"),
    m("serve.model_err", "ratio"),
    m("serve.batcher_allocs", "count"),
    m("loadgen.lag_ms", "ms"),
    m("setup.plan_ms", "ms"),
    m("setup.prepare_ms", "ms"),
    m("setup.start_ms", "ms"),
    m("trace.overhead_frac", "ratio"),
    m("trace.flags", "count"),
    m("fail_frac", "ratio"),
    m("max_rel_err", "ratio"),
];

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// Everything one run measured and checked.
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    /// `(name, value, sample count)`.
    values: Vec<(&'static str, f64, usize)>,
    /// Operations attempted and failed (`failed` counts errors and wrong
    /// outputs; sheds are load, not failures, and show in `fail_frac`).
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    pub provenance: Vec<(String, Json)>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Report {
        Report {
            workload,
            trace,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            provenance: Vec::new(),
        }
    }

    /// Record a metric measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the tables"
        );
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    /// End the run on an operation that failed and left nothing to
    /// measure: it counts as attempted and failed, and the run as
    /// incorrect.
    pub fn abort(mut self, why: impl std::fmt::Display) -> Report {
        eprintln!("{why}");
        self.attempted += 1;
        self.failed += 1;
        self
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn prov(&mut self, key: &str, value: Json) {
        self.provenance.push((key.into(), value));
    }

    /// The table this run must emit.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Metrics recorded beyond this run's table (an untraced run also
    /// measures the forward median and tail, for instance).
    fn extras(&self) -> impl Iterator<Item = &(&'static str, f64, usize)> {
        let table = self.table();
        self.values
            .iter()
            .filter(move |(name, _, _)| !table.iter().any(|d| d.name == *name))
    }

    /// Names of table metrics not recorded, or recorded as non-finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table()
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok) && self.missing().is_empty()
    }

    fn metrics_json(&self, with_samples: bool) -> Json {
        obj(self.table().iter().map(|d| {
            let (v, n) = self
                .values
                .iter()
                .find(|(name, _, _)| *name == d.name)
                .map_or((f64::NAN, 0), |(_, v, n)| (*v, *n));
            let mut fields = vec![("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))];
            if with_samples {
                fields.push(("samples", Json::Num(n as f64)));
            }
            (d.name, obj(fields))
        }))
    }

    /// The one-line result the benchmark contract asks for.
    pub fn final_line(&self) -> String {
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// The full record: the contract line's content plus sample counts,
    /// checks and provenance.
    pub fn record(&self, seed: u64, seconds: f64) -> Json {
        obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(true)),
            (
                "other_metrics",
                obj(self.extras().map(|&(name, v, n)| {
                    let unit = unit_of(name).unwrap_or("");
                    let fields = [
                        ("value", Json::Num(v)),
                        ("unit", Json::Str(unit.into())),
                        ("samples", Json::Num(n as f64)),
                    ];
                    (name, obj(fields))
                })),
            ),
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            ("provenance", Json::Obj(self.provenance.clone())),
        ])
    }

    /// Human-readable lines: every table metric with unit and sample
    /// count, then the checks.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "# {} ({})\n",
            self.workload,
            if self.trace { "traced" } else { "untraced" }
        );
        for d in self.table() {
            let (v, n) = self
                .values
                .iter()
                .find(|(name, _, _)| *name == d.name)
                .map_or((f64::NAN, 0), |(_, v, n)| (*v, *n));
            s.push_str(&format!(
                "{:<28} {:>14.6} {:<8} n={}\n",
                d.name, v, d.unit, n
            ));
        }
        for (name, v, n) in self.extras() {
            let unit = unit_of(name).unwrap_or("");
            s.push_str(&format!(
                "{name:<28} {v:>14.6} {unit:<8} n={n} (other table)\n"
            ));
        }
        for (k, ok) in &self.checks {
            s.push_str(&format!(
                "check {:<40} {}\n",
                k,
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        s.push_str(&format!(
            "attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables and `BENCHMARK.json` name the same workloads and
    /// metrics, in the same order, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory alone, without its manifest
        };
        let bench = wino_probe::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(Json::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        let ours = |t: &[MetricDef], unit: bool| -> Vec<String> {
            t.iter()
                .map(|d| if unit { d.unit } else { d.name }.to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), crate::WORKLOADS);
        assert_eq!(names("end_to_end", "name"), ours(END_TO_END, false));
        assert_eq!(names("end_to_end", "unit"), ours(END_TO_END, true));
        assert_eq!(names("per_layer", "name"), ours(PER_LAYER, false));
        assert_eq!(names("per_layer", "unit"), ours(PER_LAYER, true));
    }

    #[test]
    fn missing_metrics_make_a_run_incorrect() {
        let mut r = Report::new("w", false);
        for d in END_TO_END {
            r.set(d.name, 1.0, 1);
        }
        assert!(r.correct());
        r.set("fwd_ms_p95", f64::NAN, 0);
        assert_eq!(r.missing(), vec!["fwd_ms_p95"]);
        assert!(!r.correct());
        let line = wino_probe::parse_json(&r.final_line()).expect("the line parses");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(0.0));
    }
}
