//! Result records (one JSON line per run, with the host it ran on) and the comparison
//! of two sets of them under the bounds of [`crate::metrics`].

use crate::host::Host;
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, min_max, quartiles};
use dprof::core::schema::Json;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Record {
    pub host: Host,
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Medians before the host-speed scaling, and the probe's: informational.
    pub raw: Vec<(String, f64)>,
}

/// A JSON value on one line.
pub fn one_line(json: &Json) -> String {
    // Strings are escaped, so every newline of the pretty form is layout.
    json.to_pretty_string()
        .lines()
        .map(str::trim_start)
        .collect()
}

impl Record {
    pub fn to_json(&self) -> Json {
        let numbers = |pairs: &[(String, f64)]| {
            Json::obj(
                pairs
                    .iter()
                    .map(|(name, value)| (name.as_str(), Json::num(*value)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("host", self.host.to_json()),
            ("workload", Json::str(&self.workload)),
            ("seed", Json::num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", numbers(&self.metrics)),
            ("raw", numbers(&self.raw)),
        ])
    }

    fn from_json(doc: &Json) -> Option<Record> {
        let count = |key: &str| Some(doc.get(key)?.as_f64()? as u64);
        let numbers = |key: &str| -> Option<Vec<(String, f64)>> {
            let Json::Obj(pairs) = doc.get(key)? else {
                return None;
            };
            pairs
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(Record {
            host: Host::from_json(doc.get("host")?)?,
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: count("seed")?,
            traced: doc.get("traced")?.as_bool()?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: numbers("metrics")?,
            raw: numbers("raw")?,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Parses a result file: one record per non-empty line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            Record::from_json(&doc).ok_or_else(|| format!("line {}: not a result record", i + 1))
        })
        .collect()
}

/// The verdict lines of a comparison and whether every one of them passed.
#[derive(Debug)]
pub struct Comparison {
    pub lines: Vec<String>,
    pub pass: bool,
}

/// Quartile distance as a share of the median; 0 for fewer than two values.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> (&'static str, String) {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let (a, b) = (median(parent), median(change));
    let worse = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let widest = spread(parent).max(spread(change));
    let (a_range, b_range) = (min_max(parent), min_max(change));
    let every_run_better = match metric.better {
        Better::Lower => b_range.1 < a_range.0,
        Better::Higher => b_range.0 > a_range.1,
    };
    let status = if widest > bound && !every_run_better {
        "unresolved"
    } else if worse > bound {
        "REGRESSION"
    } else {
        "ok"
    };
    let detail = format!(
        "{a:.6} -> {b:.6} {} ({:+.1}% worse, bound {:.0}%, spread {:.1}%, n {}/{})",
        metric.unit,
        worse * 100.0,
        bound * 100.0,
        widest * 100.0,
        parent.len(),
        change.len()
    );
    (status, detail)
}

/// Compares `change` with `parent`.  Refuses sets from different hosts.  For every
/// workload and end-to-end metric: `REGRESSION` when the change's median is worse
/// than the parent's by more than the bound, `unresolved` (not unchanged) when either
/// set's quartile spread exceeds the bound, unless every run of the change reads
/// better than every run of the parent.  Failed operations and simulated counts that
/// differ between runs of one workload and seed also fail the comparison.
pub fn compare(parent: &[Record], change: &[Record]) -> Result<Comparison, String> {
    let all = || parent.iter().chain(change);
    let Some(first) = all().next() else {
        return Err("no result records".into());
    };
    if let Some(other) = all()
        .find(|r| (r.host.nproc, &r.host.cpu_model) != (first.host.nproc, &first.host.cpu_model))
    {
        return Err(format!(
            "results come from different hosts ({} x {} and {} x {}); not comparable",
            first.host.nproc, first.host.cpu_model, other.host.nproc, other.host.cpu_model
        ));
    }

    let mut lines = Vec::new();
    let mut pass = true;
    for (workload, _) in WORKLOADS {
        let of = |set: &[Record], traced: bool| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == workload && r.traced == traced)
                .cloned()
                .collect()
        };
        let (a, b) = (of(parent, false), of(change, false));
        for metric in END_TO_END.iter().filter(|_| !a.is_empty() && !b.is_empty()) {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter().filter_map(|r| r.value(metric.name)).collect()
            };
            let (status, detail) = verdict(metric, &values(&a), &values(&b));
            pass &= status == "ok";
            lines.push(format!(
                "{status:<10} {workload:<17} {:<12} {detail}",
                metric.name
            ));
        }
        let failed: u64 = all()
            .filter(|r| r.workload == workload)
            .map(|r| r.failed)
            .sum();
        if failed > 0 {
            pass = false;
            lines.push(format!(
                "FAILED     {workload:<17} {failed} operation(s) failed"
            ));
        }

        // Simulated counts repeat exactly for one workload and seed, on any commit.
        let traced: Vec<Record> = of(parent, true)
            .into_iter()
            .chain(of(change, true))
            .collect();
        for metric in PER_LAYER.iter().filter(|m| m.unit == "count") {
            let mut by_seed = std::collections::BTreeMap::<u64, Vec<f64>>::new();
            for record in &traced {
                by_seed
                    .entry(record.seed)
                    .or_default()
                    .extend(record.value(metric.name));
            }
            for (seed, values) in by_seed {
                if values.iter().any(|v| *v != values[0]) {
                    pass = false;
                    lines.push(format!(
                        "DIFFERS    {workload:<17} {} at seed {seed}: {values:?}",
                        metric.name
                    ));
                }
            }
        }
    }
    Ok(Comparison { lines, pass })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            cpu_model: "test cpu".into(),
            rustc: "rustc".into(),
            commit: "unknown".into(),
        }
    }

    fn run(cpu_ms: f64) -> Record {
        run_with_rss(cpu_ms, 70.0)
    }

    fn run_with_rss(cpu_ms: f64, peak_rss_mb: f64) -> Record {
        Record {
            host: host(),
            workload: "replay-apache".into(),
            seed: 1,
            traced: false,
            attempted: 8,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 2.0),
                ("wall_ms".into(), cpu_ms * 1.02),
                ("cpu_ms".into(), cpu_ms),
                ("peak_rss_mb".into(), peak_rss_mb),
            ],
            raw: vec![("probe_ms".into(), 31.5)],
        }
    }

    fn set(scale: f64) -> Vec<Record> {
        [1000.0, 1004.0, 998.0, 1001.0, 1003.0]
            .iter()
            .map(|w| run(w * scale))
            .collect()
    }

    #[test]
    fn identical_sets_pass_and_a_regression_beyond_the_bound_is_flagged() {
        let same = compare(&set(1.0), &set(1.0)).unwrap();
        assert!(same.pass, "{:?}", same.lines);
        // 15 % more memory is beyond peak_rss_mb's bound of 10 % ...
        let fatter: Vec<Record> = set(1.0)
            .iter()
            .map(|r| run_with_rss(r.value("cpu_ms").unwrap(), 70.0 * 1.15))
            .collect();
        let result = compare(&set(1.0), &fatter).unwrap();
        assert!(!result.pass);
        assert!(result
            .lines
            .iter()
            .any(|l| l.starts_with("REGRESSION") && l.contains("peak_rss_mb")));
        assert!(result
            .lines
            .iter()
            .any(|l| l.starts_with("ok") && l.contains("cpu_ms")));
        // ... 15 % more time is within cpu_ms's 25 %, 30 % is not.
        assert!(compare(&set(1.0), &set(1.15)).unwrap().pass);
        let slower = compare(&set(1.0), &set(1.3)).unwrap();
        assert!(slower
            .lines
            .iter()
            .any(|l| l.starts_with("REGRESSION") && l.contains("cpu_ms")));
        // The same step the other way is an improvement, not a regression.
        assert!(compare(&set(1.3), &set(1.0)).unwrap().pass);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy: Vec<Record> = [600.0, 1000.0, 1400.0, 800.0, 1200.0]
            .iter()
            .map(|w| run(*w))
            .collect();
        let result = compare(&set(1.0), &noisy).unwrap();
        assert!(!result.pass);
        assert!(result
            .lines
            .iter()
            .any(|l| l.starts_with("unresolved") && l.contains("cpu_ms")));
        // ... unless every run of the change beats every run of the parent.
        let faster: Vec<Record> = noisy
            .iter()
            .map(|r| run(r.value("cpu_ms").unwrap() / 4.0))
            .collect();
        assert!(compare(&set(1.0), &faster).unwrap().pass);
    }

    #[test]
    fn different_hosts_are_refused_and_failed_operations_fail() {
        let mut other = set(1.0);
        other[0].host.nproc = 64;
        assert!(compare(&set(1.0), &other)
            .unwrap_err()
            .contains("different hosts"));
        let mut broken = set(1.0);
        broken[2].failed = 1;
        assert!(!compare(&set(1.0), &broken).unwrap().pass);
    }

    #[test]
    fn simulated_counts_must_repeat_exactly_per_seed() {
        let traced = |accesses: f64, seed: u64| Record {
            traced: true,
            seed,
            metrics: vec![("sim-cache.accesses".into(), accesses)],
            ..run(0.0)
        };
        let a = vec![traced(100.0, 1), traced(120.0, 2)];
        assert!(compare(&a, &a.clone()).unwrap().pass);
        let result = compare(&a, &[traced(101.0, 1)]).unwrap();
        assert!(
            !result.pass && result.lines[0].starts_with("DIFFERS"),
            "{:?}",
            result.lines
        );
    }

    #[test]
    fn records_survive_the_one_line_round_trip() {
        let line = one_line(&run(1234.5).to_json());
        assert!(!line.contains('\n'));
        let back = parse_records(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].value("cpu_ms"), Some(1234.5));
        assert_eq!(back[0].host, host());
        assert!(parse_records("{}").is_err());
    }
}
