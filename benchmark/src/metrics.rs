//! The benchmark's contract: workloads, end-to-end metrics with their regression
//! bounds, and per-layer metrics.  `BENCHMARK.json` at the repository root lists the
//! same names; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.  `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before it counts as a regression; per-layer metrics
/// carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "replay-memcached",
        "dprof replay of a 16-core memcached trace (paper 6.1): coherence-heavy, sim-cache invalidation path does the most work",
    ),
    (
        "replay-apache",
        "dprof replay of a 16-core apache drop-off trace (paper 6.2): capacity misses, 2.6x bigger trace, decode and core views matter most",
    ),
    (
        "record-memcached",
        "dprof record of the same memcached session: generator plus encode, no decode; the memory-sensitive row",
    ),
    (
        "whatif-memcached",
        "dprof whatif --auto over a one-stream memcached trace: profiler-free counterfactual replays, bypasses sampler, histories and views",
    ),
    (
        "serve-mixed",
        "dprof serve under 7 pushes beside 3 queries per pass over 2 connections: JSON parse, shard ingest, snapshots, merge fold; no simulator code runs",
    ),
];

/// What a user of the toolchain pays per `dprof` invocation.  The three timings are
/// in reference-host time: each operation's time divided by the host-speed probes
/// taken right before and after it (see [`crate::probe`]).
pub const END_TO_END: [Metric; 4] = [
    gated("setup_s", "s", 0.25),
    gated("wall_ms", "ms", 0.25),
    gated("cpu_ms", "ms", 0.25),
    gated("peak_rss_mb", "MB", 0.10),
];

use Better::{Higher, Lower};

/// One row per layer measurement (layer = crate), from the traced run.
pub const PER_LAYER: [Metric; 54] = [
    layer("trace.open_s", "s", Lower),
    layer("trace.decode_s", "s", Lower),
    layer("trace.decode_events_per_s", "1/s", Higher),
    layer("trace.decode_mb_per_s", "MB/s", Higher),
    layer("trace.lower_s", "s", Lower),
    layer("trace.encode_s", "s", Lower),
    layer("trace.write_s", "s", Lower),
    layer("trace.encoded_mb", "MB", Lower),
    layer("trace.measure_s", "s", Lower),
    layer("trace.whatif_candidates", "count", Higher),
    layer("sim-cache.access_s", "s", Lower),
    layer("sim-cache.accesses", "count", Lower),
    layer("sim-cache.accesses_per_s", "1/s", Higher),
    layer("sim-cache.l1_miss_ratio", "ratio", Lower),
    layer("sim-cache.invalidations", "count", Lower),
    layer("sim-cache.directory_lines", "count", Lower),
    layer("sim-machine.dispatch_s", "s", Lower),
    layer("sim-machine.self_s", "s", Lower),
    layer("sim-machine.profiling_on_off_ratio", "ratio", Lower),
    layer("sim-machine.ibs_samples", "count", Higher),
    layer("sim-kernel.alloc_events", "count", Lower),
    layer("sim-kernel.free_events", "count", Lower),
    layer("workloads.step_s", "s", Lower),
    layer("workloads.rounds", "count", Higher),
    layer("workloads.self_s", "s", Lower),
    layer("core.sample_phase_self_s", "s", Lower),
    layer("core.history_phase_self_s", "s", Lower),
    layer("core.views_s", "s", Lower),
    layer("core.samples", "count", Higher),
    layer("core.histories", "count", Higher),
    layer("core.history_rounds", "count", Lower),
    layer("core.history_complete_ratio", "ratio", Higher),
    layer("core.json_parse_s", "s", Lower),
    layer("core.json_parse_mb_per_s", "MB/s", Higher),
    layer("core.shard_from_json_s", "s", Lower),
    layer("core.merge_fold_s", "s", Lower),
    layer("cli.merge_s", "s", Lower),
    layer("cli.render_s", "s", Lower),
    layer("cli.startup_s", "s", Lower),
    layer("cli.child_cpu_s", "s", Lower),
    layer("cli.unexplained_s", "s", Lower),
    layer("serve.ops_per_s", "1/s", Higher),
    layer("serve.push_p50_us", "us", Lower),
    layer("serve.push_p99_us", "us", Lower),
    layer("serve.query_p50_us", "us", Lower),
    layer("serve.query_p99_us", "us", Lower),
    layer("serve.frame_roundtrip_us", "us", Lower),
    layer("serve.store_push_s", "s", Lower),
    layer("serve.store_report_s", "s", Lower),
    layer("serve.snapshot_s", "s", Lower),
    layer("serve.shards_resident", "count", Lower),
    layer("serve.snapshots_written", "count", Lower),
    layer("trace_overhead_ratio", "ratio", Lower),
    layer("host.probe_ms", "ms", Lower),
];

/// The per-layer metric of that name.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprof::core::schema::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_use_the_allowed_charset_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics of this file, with the
    /// same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let rows = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (row, metric) in listed.iter().zip(table) {
                assert_eq!(text(row, "name"), metric.name);
                assert_eq!(text(row, "unit"), metric.unit, "{}", metric.name);
                let better = if metric.better == Lower {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(text(row, "better"), better, "{}", metric.name);
                assert_eq!(row.get("bound").and_then(Json::as_f64), metric.bound);
            }
        }
    }
}
