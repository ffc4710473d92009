//! Simulated-access throughput measurement: the bench trajectory the ROADMAP asks for.
//!
//! The methodology follows the tentpole optimization's acceptance criteria:
//!
//! 1. Run a real workload (memcached or Apache) on the full machine with access-trace
//!    capture enabled, producing a stream of `(core, addr, kind)` events — the actual
//!    memory traffic of the paper's request paths, not a synthetic pattern.
//! 2. Replay that identical trace against a fresh hierarchy, once through the retained
//!    reference implementation (`HashMap` directory, AoS caches) and once through the
//!    optimized implementation (open-addressed directory, SoA caches), timing each.
//! 3. Report accesses/second for both, per workload × core count, and emit
//!    `BENCH_throughput.json` so throughput regressions are visible in review.
//!
//! Replays run on freshly-built hierarchies (best of three runs), so the numbers
//! include cold-structure warm-up exactly once per run for both implementations.

use serde::{Deserialize, Serialize};
use sim_cache::reference::RefCacheHierarchy;
use sim_cache::{CacheHierarchy, HierarchyConfig, TraceEvent};
use std::time::Instant;
use workloads::{Apache, ApacheConfig, Memcached, MemcachedConfig, Workload};

/// Replay repetitions per measurement; the best (fastest) run is reported.
const REPS: usize = 3;

/// Which workload generated a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Workload whose access trace was replayed.
    pub workload: String,
    /// Core count of the simulated machine.
    pub cores: usize,
    /// Number of accesses in the replayed trace.
    pub trace_len: usize,
    /// Accesses/second through the retained reference (pre-optimization) hierarchy.
    pub reference_aps: f64,
    /// Accesses/second through the optimized hierarchy.
    pub optimized_aps: f64,
    /// `optimized_aps / reference_aps`.
    pub speedup: f64,
}

/// Captures the memory-access trace of `rounds` workload rounds on a `cores`-core
/// paper-geometry machine.
pub fn capture_trace(which: TraceWorkload, cores: usize, rounds: usize) -> Vec<TraceEvent> {
    match which {
        TraceWorkload::Memcached => {
            let config = MemcachedConfig {
                cores,
                ..Default::default()
            };
            let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
            machine.hierarchy.record_trace(true);
            for _ in 0..rounds {
                workload.step(&mut machine, &mut kernel);
            }
            machine.hierarchy.take_trace()
        }
        TraceWorkload::Apache => {
            let config = ApacheConfig {
                cores,
                ..ApacheConfig::peak()
            };
            let (mut machine, mut kernel, mut workload) = Apache::setup(config);
            machine.hierarchy.record_trace(true);
            for _ in 0..rounds {
                workload.step(&mut machine, &mut kernel);
            }
            machine.hierarchy.take_trace()
        }
    }
}

/// The shared timed replay loop: elapsed seconds plus a checksum of outcome latencies
/// (so the work cannot be optimized away, and so the two implementations can be
/// cross-checked for identical behavior).
fn replay_with(
    trace: &[TraceEvent],
    mut access_latency: impl FnMut(&TraceEvent) -> u64,
) -> (f64, u64) {
    let start = Instant::now();
    let mut checksum = 0u64;
    for ev in trace {
        checksum = checksum.wrapping_add(access_latency(ev));
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Replays a trace through the optimized hierarchy once.
fn replay_optimized(config: &HierarchyConfig, trace: &[TraceEvent]) -> (f64, u64) {
    let mut h = CacheHierarchy::new(*config);
    replay_with(trace, |ev| {
        h.access(ev.core as usize, ev.addr, ev.kind).latency
    })
}

/// Replays a trace through the retained reference hierarchy once.
fn replay_reference(config: &HierarchyConfig, trace: &[TraceEvent]) -> (f64, u64) {
    let mut h = RefCacheHierarchy::new(*config);
    replay_with(trace, |ev| {
        h.access(ev.core as usize, ev.addr, ev.kind).latency
    })
}

/// The canonical `.dtrace` file name of a bench capture inside a trace directory.
pub fn trace_file_name(which: TraceWorkload, cores: usize) -> String {
    format!("{}_{}c.dtrace", which.name(), cores)
}

/// Helpers converting between the hierarchy-level line streams the replay loops
/// consume and the access-only `.dtrace` container.
pub mod trace_io {
    use super::TraceWorkload;
    use dprof_trace::line::push_line_events;
    use dprof_trace::{SessionParams, ThreadStream, TraceFile, TraceKind, TraceReader};
    use sim_cache::TraceEvent;
    use sim_machine::{FunctionId, SessionEvent};

    /// Wraps a per-line access stream as an access-only trace file, so later bench
    /// runs can replay the identical stream instead of re-capturing (and so
    /// regressions are measured against a *fixed* workload, not a re-simulated one).
    pub fn from_line_events(
        which: TraceWorkload,
        cores: usize,
        rounds: usize,
        trace: &[TraceEvent],
    ) -> TraceFile {
        let events: dprof_trace::EncodedEvents = trace
            .iter()
            .map(|ev| SessionEvent::Access {
                core: ev.core,
                ip: FunctionId::UNKNOWN,
                addr: ev.addr,
                // Per-line events are already split; length 1 keeps the lowering 1:1.
                len: 1,
                kind: ev.kind,
            })
            .collect();
        TraceFile {
            kind: TraceKind::AccessOnly,
            machine: sim_machine::MachineConfig::with_cores(cores),
            params: SessionParams {
                workload: which.name().to_string(),
                threads: 1,
                cores,
                warmup_rounds: 0,
                sample_rounds: rounds,
                sampling: sim_machine::SamplingPolicy::Disabled,
                history_types: 0,
                history_sets: 0,
                base_seed: 0,
            },
            streams: vec![ThreadStream {
                seed: 0,
                requests: 0,
                symbols: Vec::new(),
                types: Vec::new(),
                events,
            }],
        }
    }

    /// Streams a `.dtrace` file's per-line access stream straight from disk (either
    /// kind: a full-session trace lowers its spanning accesses at line boundaries):
    /// events are lowered to [`TraceEvent`]s as they decode, so only the line
    /// stream — never the session-event stream — is materialized.  Returns the
    /// core count alongside the events.
    pub fn read_line_events(path: &str) -> Result<(usize, Vec<TraceEvent>), String> {
        let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
        let line_size = reader.machine.hierarchy.l1.line_size as u64;
        let mut out = Vec::new();
        for thread in 0..reader.stream_count() {
            for ev in reader.events(thread).map_err(|e| e.to_string())? {
                push_line_events(&ev.map_err(|e| e.to_string())?, line_size, &mut out);
            }
        }
        Ok((reader.machine.hierarchy.cores, out))
    }
}

/// Measures one throughput point from an already-captured trace.
pub fn measure_point_from_trace(
    workload_name: &str,
    cores: usize,
    trace: &[TraceEvent],
) -> ThroughputPoint {
    let config = HierarchyConfig::with_cores(cores);

    let mut best_ref = f64::INFINITY;
    let mut best_opt = f64::INFINITY;
    let mut ref_sum = 0;
    let mut opt_sum = 0;
    for _ in 0..REPS {
        let (t, s) = replay_reference(&config, trace);
        best_ref = best_ref.min(t);
        ref_sum = s;
        let (t, s) = replay_optimized(&config, trace);
        best_opt = best_opt.min(t);
        opt_sum = s;
    }
    assert_eq!(
        ref_sum, opt_sum,
        "reference and optimized hierarchies diverged on the {workload_name} trace"
    );

    let n = trace.len() as f64;
    let reference_aps = n / best_ref.max(1e-12);
    let optimized_aps = n / best_opt.max(1e-12);
    ThroughputPoint {
        workload: workload_name.to_string(),
        cores,
        trace_len: trace.len(),
        reference_aps,
        optimized_aps,
        speedup: optimized_aps / reference_aps.max(1e-12),
    }
}

/// Measures one throughput point: captures the workload trace, replays it through both
/// implementations (three fresh runs each, best kept), and cross-checks that both
/// produced identical latency checksums.
pub fn measure_point(which: TraceWorkload, cores: usize, rounds: usize) -> ThroughputPoint {
    let trace = capture_trace(which, cores, rounds);
    measure_point_from_trace(which.name(), cores, &trace)
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
             \"reference_aps\": {:.0}, \"optimized_aps\": {:.0}, \"speedup\": {:.2}}}{}\n",
            p.workload,
            p.cores,
            p.trace_len,
            p.reference_aps,
            p.optimized_aps,
            p.speedup,
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
        "{:<10} {:>5} {:>12} {:>16} {:>16} {:>8}\n",
        "workload", "cores", "trace", "reference a/s", "optimized a/s", "speedup"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>5} {:>12} {:>16.0} {:>16.0} {:>7.2}x\n",
            p.workload, p.cores, p.trace_len, p.reference_aps, p.optimized_aps, p.speedup
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

    #[test]
    fn trace_capture_produces_events() {
        let trace = capture_trace(TraceWorkload::Memcached, 2, 3);
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|e| (e.core as usize) < 2));
    }

    #[test]
    fn trace_file_round_trip_preserves_the_line_stream() {
        let trace = capture_trace(TraceWorkload::Memcached, 2, 3);
        let file = trace_io::from_line_events(TraceWorkload::Memcached, 2, 3, &trace);
        let dir = std::env::temp_dir().join("dprof_bench_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memcached_2c.dtrace");
        let path = path.to_str().unwrap();
        file.write(path).expect("trace writes");
        let (cores, back) = trace_io::read_line_events(path).expect("trace streams");
        assert_eq!(cores, 2);
        assert_eq!(
            back, trace,
            "dtrace round trip must preserve the line stream"
        );
        let p = measure_point_from_trace("memcached", 2, &back);
        assert_eq!(p.trace_len, trace.len());
        assert!(p.reference_aps > 0.0 && p.optimized_aps > 0.0);
    }

    #[test]
    fn measured_point_is_consistent() {
        let p = measure_point(TraceWorkload::Memcached, 2, 5);
        assert_eq!(p.workload, "memcached");
        assert!(p.trace_len > 0);
        assert!(p.reference_aps > 0.0);
        assert!(p.optimized_aps > 0.0);
        assert!(p.speedup > 0.0);
    }

    #[test]
    fn json_document_round_trips_through_the_schema_parser() {
        let points = vec![
            ThroughputPoint {
                workload: "memcached".into(),
                cores: 16,
                trace_len: 1000,
                reference_aps: 1.0e7,
                optimized_aps: 4.0e7,
                speedup: 4.0,
            },
            ThroughputPoint {
                workload: "apache".into(),
                cores: 2,
                trace_len: 500,
                reference_aps: 2.0e7,
                optimized_aps: 5.0e7,
                speedup: 2.5,
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
        assert_eq!(arr[1].get("speedup").and_then(|s| s.as_f64()), Some(2.5));
    }

    #[test]
    fn scaling_view_is_relative_to_the_two_core_point() {
        let mk = |cores, opt| ThroughputPoint {
            workload: "memcached".into(),
            cores,
            trace_len: 100,
            reference_aps: 1.0e6,
            optimized_aps: opt,
            speedup: 1.0,
        };
        let points = vec![mk(2, 4.0e7), mk(64, 1.0e7)];
        let view = render_scaling(&points);
        // 64-core efficiency: 1e7/4e7 = 0.25x.
        assert!(view.contains("0.25x"), "{view}");
        assert!(view.lines().any(|l| l.contains("64")), "{view}");
    }
}
