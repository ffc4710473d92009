//! The data-flow view (§4.4, Figure 6-1): a graph summarising the execution paths
//! objects of a type take from allocation to free, with core-crossing transitions and
//! high-latency functions highlighted.
//!
//! In the memcached case study this view is what pinpoints the bug: skbuffs jump from
//! one core to another between `pfifo_fast_enqueue` and `pfifo_fast_dequeue`.

use crate::merge::{ShardFlow, ShardFlowEdge, ShardFlowNode};
use crate::path_trace::PathTrace;
use sim_kernel::{TypeId, TypeRegistry};
use sim_machine::{FunctionId, SymbolTable};
use std::collections::{BTreeMap, HashMap};

/// Builds a type's graph by merging all of its path traces: common program-counter
/// steps become shared nodes (in order of first appearance), consecutive steps become
/// edges (in source, then destination, node order).
pub fn build_data_flow(
    type_id: TypeId,
    traces: &[PathTrace],
    registry: &TypeRegistry,
    symbols: &SymbolTable,
) -> ShardFlow {
    let mut node_index: HashMap<FunctionId, usize> = HashMap::new();
    let mut nodes: Vec<ShardFlowNode> = Vec::new();
    let mut latency_cycles: Vec<f64> = Vec::new(); // per node: sum of latency × samples
    let mut edges: BTreeMap<(usize, usize), (u64, bool)> = BTreeMap::new();

    for t in traces.iter().filter(|t| t.type_id == type_id) {
        let mut prev: Option<usize> = None;
        for e in &t.entries {
            let idx = *node_index.entry(e.ip).or_insert_with(|| {
                nodes.push(ShardFlowNode {
                    function: symbols.name(e.ip).into(),
                    samples: 0,
                    weight: 0,
                    avg_latency: 0.0,
                });
                latency_cycles.push(0.0);
                nodes.len() - 1
            });
            nodes[idx].weight += t.frequency;
            nodes[idx].samples += e.stats.count;
            latency_cycles[idx] += e.stats.avg_latency() * e.stats.count as f64;
            if let Some(p) = prev {
                let (count, cpu_change) = edges.entry((p, idx)).or_default();
                *count += t.frequency;
                *cpu_change |= e.cpu_change;
            }
            prev = Some(idx);
        }
    }
    for (node, total) in nodes.iter_mut().zip(latency_cycles) {
        if node.samples > 0 {
            node.avg_latency = total / node.samples as f64;
        }
    }
    let edges = edges
        .into_iter()
        .map(|((from, to), (count, cpu_change))| ShardFlowEdge {
            from: nodes[from].function.clone(),
            to: nodes[to].function.clone(),
            count,
            cpu_change,
        })
        .collect();
    ShardFlow {
        type_name: registry.name(type_id).into(),
        nodes,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_trace::PathTraceEntry;
    use crate::report::render_dot;
    use crate::sample::SampleStats;

    fn entry(ip: u32, cpu_change: bool, latency: u64, count: u64) -> PathTraceEntry {
        let stats = SampleStats {
            count,
            total_latency: latency * count,
            ..Default::default()
        };
        PathTraceEntry {
            ip: FunctionId(ip),
            cpu_change,
            offsets: vec![0],
            is_write: false,
            avg_timestamp: 0.0,
            stats,
        }
    }

    fn symbols() -> SymbolTable {
        let mut s = SymbolTable::new();
        s.intern("__alloc_skb"); // 0
        s.intern("pfifo_fast_enqueue"); // 1
        s.intern("pfifo_fast_dequeue"); // 2
        s.intern("kfree"); // 3
        s
    }

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register("size-1024", "packet payload", 1024); // TypeId(0)
        r.register("skbuff", "packet bookkeeping structure", 256); // TypeId(1)
        r
    }

    fn node<'a>(flow: &'a ShardFlow, function: &str) -> &'a ShardFlowNode {
        flow.nodes
            .iter()
            .find(|n| &*n.function == function)
            .unwrap()
    }

    #[test]
    fn merges_shared_prefixes_into_one_graph() {
        let traces = vec![
            PathTrace {
                type_id: TypeId(1),
                entries: vec![
                    entry(0, false, 3, 1),
                    entry(1, false, 3, 1),
                    entry(2, true, 200, 4),
                    entry(3, false, 15, 1),
                ],
                frequency: 10,
                avg_lifetime: 100.0,
            },
            PathTrace {
                type_id: TypeId(1),
                entries: vec![entry(0, false, 3, 1), entry(3, false, 15, 1)],
                frequency: 3,
                avg_lifetime: 50.0,
            },
        ];
        let g = build_data_flow(TypeId(1), &traces, &registry(), &symbols());
        assert_eq!(&*g.type_name, "skbuff");
        assert_eq!(
            g.nodes.len(),
            4,
            "shared functions must be merged into single nodes"
        );
        assert_eq!(node(&g, "__alloc_skb").weight, 13);
        // The dequeue node was reached over a CPU change and has high latency.
        assert!(g.edges.iter().any(|e| &*e.from == "pfifo_fast_enqueue"
            && &*e.to == "pfifo_fast_dequeue"
            && e.cpu_change));
        let deq = node(&g, "pfifo_fast_dequeue");
        assert!(
            deq.avg_latency >= 100.0 && deq.samples > 0,
            "dequeue is hot"
        );
        assert_eq!(g.cpu_crossing_edges().len(), 1);
    }

    #[test]
    fn dot_output_marks_crossings_and_hot_nodes() {
        let traces = vec![PathTrace {
            type_id: TypeId(1),
            entries: vec![entry(0, false, 3, 1), entry(2, true, 200, 4)],
            frequency: 5,
            avg_lifetime: 10.0,
        }];
        let g = build_data_flow(TypeId(1), &traces, &registry(), &symbols());
        let dot = render_dot(&g, 100.0);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("penwidth=3"), "core transition must be bold");
        assert!(dot.contains("fillcolor=gray55"), "hot node must be dark");
        assert!(dot.contains("pfifo_fast_dequeue"));
    }

    #[test]
    fn empty_traces_give_empty_graph() {
        let g = build_data_flow(TypeId(1), &[], &registry(), &symbols());
        assert!(g.nodes.is_empty());
        assert!(g.edges.is_empty());
        assert!(g.cpu_crossing_edges().is_empty());
    }
}
