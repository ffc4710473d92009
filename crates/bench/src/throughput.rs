//! Simulated-access throughput: the core-count grid.
//!
//! 1. Run a real workload (memcached or Apache) on the full machine with its session
//!    recorded, and lower each round's events to the `(core, addr, kind)` stream of
//!    one access per cache line that the machine issues to its hierarchy — the actual
//!    memory traffic of the paper's request paths, not a synthetic pattern.
//! 2. Replay that stream against a fresh [`CacheHierarchy`], three times, and keep the
//!    fastest run.
//! 3. Report accesses/second per workload × core count, with the size of the line
//!    directory the replay left (its lines and heap bytes, which grow with the core
//!    count through the per-core notes), and emit `BENCH_throughput.json` so
//!    throughput regressions are visible in review.
//!
//! Each replay starts from an empty hierarchy, so the numbers include cold-structure
//! warm-up once per run.  That the hierarchy computes what the seed model computed
//! on these streams is a unit test below, not part of the measurement.

use dprof_trace::line::push_line_events;
use sim_cache::{CacheHierarchy, HierarchyConfig, TraceEvent};
use sim_kernel::KernelState;
use sim_machine::Machine;
use std::time::Instant;
use workloads::{Apache, ApacheConfig, Memcached, MemcachedConfig, Workload};

/// Replay repetitions per measurement; the best (fastest) run is reported.
const REPS: usize = 3;

/// Which workload generated a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceWorkload {
    /// The §6.1 memcached UDP workload.
    Memcached,
    /// The §6.2 Apache TCP workload.
    Apache,
}

impl TraceWorkload {
    /// Stable lower-case name used in benchmark ids and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TraceWorkload::Memcached => "memcached",
            TraceWorkload::Apache => "apache",
        }
    }
}

/// One measured point of the throughput trajectory.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Workload whose access trace was replayed.
    pub workload: String,
    /// Core count of the simulated machine.
    pub cores: usize,
    /// Number of accesses in the replayed trace.
    pub trace_len: usize,
    /// Accesses/second through the hierarchy.
    pub optimized_aps: f64,
    /// Distinct lines in the directory after a replay.
    pub directory_lines: usize,
    /// Heap bytes of that directory: the hierarchy's tables less its caches'.
    pub directory_bytes: usize,
}

/// Captures the cache-line accesses of `rounds` workload rounds on a `cores`-core
/// paper-geometry machine.  The workload runs with its session recorded; the setup's
/// events are dropped, and each round's events are lowered to one access per line,
/// split as the machine splits them.
pub fn capture_trace(which: TraceWorkload, cores: usize, rounds: usize) -> Vec<TraceEvent> {
    match which {
        TraceWorkload::Memcached => {
            let config = MemcachedConfig {
                cores,
                record_session: true,
                ..Default::default()
            };
            let (machine, kernel, workload) = Memcached::setup(config);
            lowered_rounds(machine, kernel, workload, rounds)
        }
        TraceWorkload::Apache => {
            let config = ApacheConfig {
                cores,
                record_session: true,
                ..ApacheConfig::peak()
            };
            let (machine, kernel, workload) = Apache::setup(config);
            lowered_rounds(machine, kernel, workload, rounds)
        }
    }
}

/// Steps `workload` `rounds` times and lowers the session events of each round.
fn lowered_rounds(
    mut machine: Machine,
    mut kernel: KernelState,
    mut workload: impl Workload,
    rounds: usize,
) -> Vec<TraceEvent> {
    let line_size = machine.hierarchy.line_size() as u64;
    machine.drain_session_events(|_setup| {});
    let mut trace = Vec::new();
    for _ in 0..rounds {
        workload.step(&mut machine, &mut kernel);
        machine.drain_session_events(|events| {
            for ev in events {
                push_line_events(ev, line_size, &mut trace);
            }
        });
    }
    trace
}

/// Replays a trace through a fresh hierarchy once and returns the elapsed seconds and
/// the hierarchy, which is sized after the clock stops.  The outcome latencies are
/// summed so the work cannot be optimized away.
fn replay(config: &HierarchyConfig, trace: &[TraceEvent]) -> (f64, CacheHierarchy) {
    let mut h = CacheHierarchy::new(*config);
    let start = Instant::now();
    let mut checksum = 0u64;
    for ev in trace {
        let outcome = h.access(ev.core as usize, ev.addr, ev.kind);
        checksum = checksum.wrapping_add(outcome.latency);
    }
    std::hint::black_box(checksum);
    (start.elapsed().as_secs_f64(), h)
}

/// Measures one throughput point: captures the workload trace and replays it three
/// times through fresh hierarchies, keeping the fastest run.
pub fn measure_point(which: TraceWorkload, cores: usize, rounds: usize) -> ThroughputPoint {
    let trace = capture_trace(which, cores, rounds);
    let config = HierarchyConfig::with_cores(cores);
    let mut best = f64::INFINITY;
    let mut directory = [0; 2];
    for _ in 0..REPS {
        let (seconds, h) = replay(&config, &trace);
        best = best.min(seconds);
        let caches: usize = h.cache_heap_bytes().iter().sum();
        directory = [h.directory_lines(), h.heap_bytes() - caches];
    }
    ThroughputPoint {
        workload: which.name().to_string(),
        cores,
        trace_len: trace.len(),
        optimized_aps: trace.len() as f64 / best.max(1e-12),
        directory_lines: directory[0],
        directory_bytes: directory[1],
    }
}

/// Renders the points as the `BENCH_throughput.json` document (`dprof-bench-throughput/v1`).
pub fn render_json(scale_name: &str, points: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dprof-bench-throughput/v1\",\n");
    out.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    out.push_str("  \"unit\": \"simulated cache-line accesses per wall-clock second\",\n");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"cores\": {}, \"trace_len\": {}, \
             \"optimized_aps\": {:.0}, \"directory_lines\": {}, \"directory_bytes\": {}}}{}\n",
            p.workload,
            p.cores,
            p.trace_len,
            p.optimized_aps,
            p.directory_lines,
            p.directory_bytes,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a human-readable table of the points.
pub fn render_table(points: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>5} {:>12} {:>16} {:>10} {:>12}\n",
        "workload", "cores", "trace", "optimized a/s", "dir lines", "dir bytes"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>5} {:>12} {:>16.0} {:>10} {:>12}\n",
            p.workload, p.cores, p.trace_len, p.optimized_aps, p.directory_lines, p.directory_bytes
        ));
    }
    out
}

/// Renders the per-core-count scaling-efficiency view: for each workload, every
/// point's optimized accesses/s as a fraction of that workload's 2-core point
/// (`aps@N / aps@2`).  Simulation cost grows with the line traffic a core count
/// generates, so the column makes collapse at high core counts visible at a glance.
pub fn render_scaling(points: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    out.push_str("scaling efficiency (accesses/s at N cores relative to 2 cores)\n");
    out.push_str(&format!(
        "{:<10} {:>5} {:>16} {:>12}\n",
        "workload", "cores", "optimized a/s", "opt eff"
    ));
    let mut workloads: Vec<&str> = Vec::new();
    for p in points {
        if !workloads.contains(&p.workload.as_str()) {
            workloads.push(&p.workload);
        }
    }
    for workload in workloads {
        let base = points
            .iter()
            .find(|p| p.workload == workload && p.cores == 2);
        let Some(opt_base) = base.map(|b| b.optimized_aps) else {
            continue;
        };
        for p in points.iter().filter(|p| p.workload == workload) {
            out.push_str(&format!(
                "{:<10} {:>5} {:>16.0} {:>11.2}x\n",
                p.workload,
                p.cores,
                p.optimized_aps,
                p.optimized_aps / opt_base.max(1e-12),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::reference::RefCacheHierarchy;

    #[test]
    fn trace_capture_produces_events() {
        let trace = capture_trace(TraceWorkload::Memcached, 2, 3);
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|e| (e.core as usize) < 2));
    }

    /// The quick grid's six streams through the hierarchy and through the seed model
    /// it replaced: every outcome, then the final counts, must agree.
    #[test]
    fn the_hierarchy_matches_the_reference_on_the_quick_grid_streams() {
        use TraceWorkload::{Apache, Memcached};
        // (workload, cores, rounds, accesses): `dprof-bench --quick`'s points.
        let quick = [
            (Memcached, 2, 40, 9_119),
            (Memcached, 4, 40, 18_732),
            (Memcached, 64, 10, 73_853),
            (Apache, 2, 40, 19_876),
            (Apache, 4, 40, 39_793),
            (Apache, 64, 10, 161_607),
        ];
        for (which, cores, rounds, accesses) in quick {
            let point = format!("{} at {cores} cores", which.name());
            let trace = capture_trace(which, cores, rounds);
            assert_eq!(trace.len(), accesses, "{point}: trace length");
            let config = HierarchyConfig::with_cores(cores);
            let mut h = CacheHierarchy::new(config);
            let mut r = RefCacheHierarchy::new(config);
            for (i, ev) in trace.iter().enumerate() {
                let core = ev.core as usize;
                let got = h.access(core, ev.addr, ev.kind);
                let expected = r.access(core, ev.addr, ev.kind);
                assert_eq!(got, expected, "{point}: access {i} {ev:?}");
            }
            assert_eq!(h.stats, r.stats, "{point}: stats");
            assert_eq!(h.per_core, r.per_core, "{point}: per-core stats");
        }
    }

    #[test]
    fn measured_point_is_consistent() {
        let p = measure_point(TraceWorkload::Memcached, 2, 5);
        assert_eq!(p.workload, "memcached");
        assert!(p.trace_len > 0);
        assert!(p.optimized_aps > 0.0);
        assert!(p.directory_lines > 0 && p.directory_lines <= p.trace_len);
        // At least a 32-byte entry a line.
        assert!(p.directory_bytes >= 32 * p.directory_lines);
    }

    #[test]
    fn json_document_round_trips_through_the_schema_parser() {
        let points = vec![
            ThroughputPoint {
                workload: "memcached".into(),
                cores: 16,
                trace_len: 1000,
                optimized_aps: 4.0e7,
                directory_lines: 300,
                directory_bytes: 17_600,
            },
            ThroughputPoint {
                workload: "apache".into(),
                cores: 2,
                trace_len: 500,
                optimized_aps: 5.0e7,
                directory_lines: 200,
                directory_bytes: 14_656,
            },
        ];
        let doc = render_json("paper", &points);
        let parsed =
            dprof_core::schema::Json::parse(&doc).expect("render_json must emit valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some("dprof-bench-throughput/v1")
        );
        let arr = parsed
            .get("points")
            .and_then(|p| p.as_array())
            .expect("points array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("cores").and_then(|c| c.as_f64()), Some(16.0));
        assert_eq!(
            arr[1].get("optimized_aps").and_then(|s| s.as_f64()),
            Some(5.0e7)
        );
        assert_eq!(
            arr[0].get("directory_lines").and_then(|s| s.as_f64()),
            Some(300.0)
        );
        assert_eq!(
            arr[1].get("directory_bytes").and_then(|s| s.as_f64()),
            Some(14_656.0)
        );
    }

    #[test]
    fn scaling_view_is_relative_to_the_two_core_point() {
        let mk = |cores, opt| ThroughputPoint {
            workload: "memcached".into(),
            cores,
            trace_len: 100,
            optimized_aps: opt,
            directory_lines: 10,
            directory_bytes: 8_512,
        };
        let points = vec![mk(2, 4.0e7), mk(64, 1.0e7)];
        let view = render_scaling(&points);
        // 64-core efficiency: 1e7/4e7 = 0.25x.
        assert!(view.contains("0.25x"), "{view}");
        assert!(view.lines().any(|l| l.contains("64")), "{view}");
    }
}
