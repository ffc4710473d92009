//! Streaming, shard-based merging of profiles into one report.
//!
//! The fold is closed over one type: [`fold`] takes [`ProfileShard`]s and returns a
//! [`ProfileShard`], so a merged profile is itself just another mergeable profile —
//! what compaction keeps and what the serve store snapshots.  A [`MergedReport`] is
//! that folded shard *ranked*: the same rows, plus the confidence interval and
//! rank-stability mark a row cannot compute from its own fields ([`Ranked`]).
//!
//! Shards profile *independent* simulated machines, so `TypeId`s are only meaningful
//! within a producer; merging keys everything by type name and function name instead.
//! Percentage-style metrics are combined as weighted means (weighted by each shard's
//! miss-sample count, so a shard that observed more misses counts for more), additive
//! metrics are summed, and footprint metrics are averaged — mirroring how the paper
//! averages repeated runs of the real machine.
//!
//! **Determinism.** IEEE-754 addition is commutative but not associative, so the
//! merged floats depend on the order shards are folded in.  [`StreamingMerge`]
//! therefore folds its retained shards in one canonical order (ordinal, then
//! seed/thread/weight tie-breaks: [`ProfileShard::sort_key`]), whatever order they
//! arrived in: it keeps them sorted, a read adds the shards absorbed since the last
//! read to its running fold, and a shard that sorts below one the fold already
//! summed makes the next read fold the retained shards again.  Without compaction the
//! merged report is bit-identical for any arrival order (the CLI assigns ordinals in
//! thread order).  With compaction, arrival order decides which shards each
//! compaction grouped into its base shard, so counts are still exact but means agree
//! only to rounding.  All merged collections are additionally sorted on stable keys,
//! so the rendered report is byte-identical for identical inputs regardless of
//! `HashMap` iteration order.
//!
//! **Bounded memory.** A sink built with [`StreamingMerge::with_compact_threshold`]
//! folds its retained shards into a single base shard whenever the threshold is
//! reached, so memory stays proportional to the distinct-type count rather than the
//! shard count.  Compaction is exact for all counts (samples, misses, requests,
//! Wilson-interval numerators/denominators, the thread multiplicity behind every
//! mean) and rounding-level for weighted means; it collapses per-producer thread rows
//! into one aggregate row.  The running fold restarts from the base shard, re-expanding
//! its means exactly as a store reloaded from that base shard's snapshot does.

use crate::profiler::DprofProfile;
use crate::report::diff::{ReportSummary, TypeSummary};
use crate::stats::{mark_rank_stability, wilson95};
use sim_cache::line_table::BuildKeyedMixHasher;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The fold's name index (type, function, origin), hashed eight bytes a round instead
/// of by SipHash.  Iteration order is nobody's business: every table is sorted on
/// stable keys.
type NameMap<K, V> = HashMap<K, V, BuildKeyedMixHasher>;

/// Producer-level bookkeeping carried by a shard into the merged thread table; on a
/// folded shard, the totals over everything folded in.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardMeta {
    /// Producer thread index (CLI) or 0 for pushed/compacted shards.
    pub thread: usize,
    /// Seed the producer ran with.
    pub seed: u64,
    /// Requests completed while profiled.
    pub requests: u64,
    /// Simulated requests per second.
    pub rps: f64,
    /// Fraction of cycles spent in profiling interrupts.
    pub profiling_fraction: f64,
    /// Access samples collected.
    pub samples: u64,
    /// Total simulated cycles (weights the merged profiling-overhead mean; a report
    /// that does not carry them reads as 0, which drops it from that weighted mean).
    pub total_cycles: u64,
}

/// One data-profile row of a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardProfileRow {
    /// Type name.
    pub name: Arc<str>,
    /// Human-readable description.
    pub description: Arc<str>,
    /// Mean working-set footprint over the `threads_seen` threads folded in, bytes.
    pub working_set_bytes: f64,
    /// Share of L1 miss samples, percent (relative to the shard's [`ProfileShard::weight`]).
    pub pct_of_l1_misses: f64,
    /// Share of miss cycles, percent.
    pub pct_of_miss_cycles: f64,
    /// Whether the type bounced between cores.
    pub bounce: bool,
    /// Access samples attributed to the type.
    pub samples: u64,
    /// L1-miss samples attributed to the type (the Wilson-interval numerator).
    pub l1_miss_samples: u64,
    /// How many producer threads this row already aggregates (1 for a fresh
    /// per-thread shard; more for pushed reports and compacted base shards).
    pub threads_seen: usize,
}

/// One miss-classification row of a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMissRow {
    /// Type name.
    pub name: Arc<str>,
    /// Miss samples classified for the type.
    pub miss_samples: u64,
    /// Fraction of invalidation misses.
    pub invalidation: f64,
    /// Fraction of conflict misses.
    pub conflict: f64,
    /// Fraction of capacity misses.
    pub capacity: f64,
}

impl ShardMissRow {
    /// The dominant class name of the row's fractions; on a tie the first maximum in
    /// the order invalidation, conflict, capacity wins.
    pub fn dominant(&self) -> &'static str {
        let mut best = ("invalidation", self.invalidation);
        for (name, value) in [("conflict", self.conflict), ("capacity", self.capacity)] {
            if value > best.1 {
                best = (name, value);
            }
        }
        best.0
    }
}

/// Per-allocation-origin share of one shard utilization row.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardUtilizationOrigin {
    /// Origin label (`"cpu<k>"`).
    pub origin: Arc<str>,
    /// Granule-slots fetched for objects from this origin.
    pub slots_fetched: u64,
    /// Of those, slots touched before eviction (never more than fetched: the
    /// simulator counts it so and `schema` rejects documents that claim otherwise).
    pub slots_touched: u64,
}

impl ShardUtilizationOrigin {
    /// Untouched bytes fetched for this origin (a granule-slot is 8 bytes).
    pub fn wasted_bytes(&self) -> u64 {
        wasted_bytes(self.slots_fetched, self.slots_touched)
    }
}

/// One line-utilization row of a shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardUtilizationRow {
    /// Type name.
    pub name: Arc<str>,
    /// Description.
    pub description: Arc<str>,
    /// Granule-slots fetched for the type (pooled exactly across shards).
    pub slots_fetched: u64,
    /// Of those, slots touched before eviction.
    pub slots_touched: u64,
    /// Fetched slots that rode a re-fetch of a previously fetched line.
    pub refetch_slots: u64,
    /// Wasted-bandwidth rate of this shard's machine.  Shards profile machines
    /// running in parallel, so merged rates are *sums* (like `aggregate_rps`).
    pub wasted_bytes_per_sec: f64,
    /// Per-allocation-origin breakdown (most-wasteful origin first once folded).
    pub origins: Vec<ShardUtilizationOrigin>,
}

impl ShardUtilizationRow {
    /// `100 * slots_touched / slots_fetched`.
    pub fn utilization_pct(&self) -> f64 {
        if self.slots_fetched == 0 {
            0.0
        } else {
            100.0 * self.slots_touched as f64 / self.slots_fetched as f64
        }
    }

    /// Untouched bytes: `8 * (slots_fetched - slots_touched)` (same invariant as
    /// [`ShardUtilizationOrigin::wasted_bytes`]).
    pub fn wasted_bytes(&self) -> u64 {
        wasted_bytes(self.slots_fetched, self.slots_touched)
    }

    /// `refetch_slots / slots_fetched`.
    pub fn refetch_ratio(&self) -> f64 {
        if self.slots_fetched == 0 {
            0.0
        } else {
            self.refetch_slots as f64 / self.slots_fetched as f64
        }
    }
}

/// The line-utilization view of a shard (`R` is the bare row) or of a merged report
/// (`R` is the row [`Ranked`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardUtilization<R = ShardUtilizationRow> {
    /// Per-type rows (sorted by wasted bytes, descending, once folded).
    pub rows: Vec<R>,
    /// Counted line fills in the shard's tally.
    pub total_fetches: u64,
    /// Of those, re-fetches of previously fetched lines.
    pub total_refetches: u64,
    /// Granule-slots fetched that resolved to a type.
    pub resolved_slots_fetched: u64,
    /// Of the resolved slots, those touched before eviction.
    pub resolved_slots_touched: u64,
}

/// One working-set row of a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWorkingSetRow {
    /// Type name.
    pub name: Arc<str>,
    /// Description.
    pub description: Arc<str>,
    /// Mean live bytes over the `threads_seen` threads folded in.
    pub avg_live_bytes: f64,
    /// Mean live object count.
    pub avg_live_objects: f64,
    /// Peak live bytes.
    pub peak_live_bytes: u64,
    /// How many producer threads this row already aggregates.
    pub threads_seen: usize,
}

/// The working-set view of a shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardWorkingSet {
    /// Per-type rows.
    pub rows: Vec<ShardWorkingSetRow>,
    /// L2 capacity of one simulated machine, bytes.
    pub cache_capacity: u64,
    /// L2 associativity of one simulated machine.
    pub cache_ways: usize,
    /// Mean total working-set bytes over the `thread_count` threads folded in.
    pub total_avg_bytes: f64,
    /// How many producer threads this shard aggregates (the weight of
    /// `total_avg_bytes` in the merged mean).
    pub thread_count: usize,
    /// How many of those threads' working sets exceeded the cache capacity.
    pub threads_exceeding_capacity: usize,
    /// Number of over-subscribed associativity sets (the largest any thread saw,
    /// once folded).
    pub conflict_sets: usize,
}

/// A node of a shard's data-flow graph, keyed by kernel function name.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFlowNode {
    /// Kernel function name.
    pub function: Arc<str>,
    /// Access samples matched to the node.
    pub samples: u64,
    /// Path-trace weight through the node.
    pub weight: u64,
    /// Sample-weighted average access latency, cycles.
    pub avg_latency: f64,
}

/// An edge of a shard's data-flow graph (endpoints by function name).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFlowEdge {
    /// Source function name.
    pub from: Arc<str>,
    /// Destination function name.
    pub to: Arc<str>,
    /// Traversals.
    pub count: u64,
    /// Whether the object changed cores on this edge.
    pub cpu_change: bool,
}

/// The data-flow graph of one type within a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFlow {
    /// Type name.
    pub type_name: Arc<str>,
    /// Nodes (any order; a fold sorts them by weight, descending, then name).
    pub nodes: Vec<ShardFlowNode>,
    /// Edges (any order; a fold sorts them by count, descending, then endpoints).
    pub edges: Vec<ShardFlowEdge>,
}

impl ShardFlow {
    /// Total traversals of core-crossing edges.
    pub fn core_crossings(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.cpu_change)
            .fold(0, |n, e| add_counts(n, e.count))
    }

    /// The edges that cross cores, most frequent first (ties in edge order) — the
    /// first place a programmer should look for true/false sharing.
    pub fn cpu_crossing_edges(&self) -> Vec<&ShardFlowEdge> {
        let mut edges: Vec<&ShardFlowEdge> = self.edges.iter().filter(|e| e.cpu_change).collect();
        edges.sort_by_key(|e| std::cmp::Reverse(e.count));
        edges
    }
}

/// One producer's contribution to a merged report: a self-contained, name-keyed
/// summary of a profile that can be merged with any other shard of the same
/// workload.  Built from a live profile ([`ProfileShard::from_profile`]), parsed
/// from a pushed report (`schema::shard_from_report_json`), or produced by folding
/// other shards ([`fold`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileShard {
    /// Position in the canonical fold order.  The CLI assigns the thread index;
    /// the server assigns a per-key monotonic counter.  Ties break on seed, thread
    /// and weight so the fold order — and hence every merged float — is a pure
    /// function of the shard *set*.
    pub ordinal: u64,
    /// Merge weight: the number of L1-miss access samples the shard observed
    /// (the denominator its percentage metrics are relative to).
    pub weight: f64,
    /// Producer bookkeeping.
    pub meta: ShardMeta,
    /// Data-profile rows.
    pub data_profile: Vec<ShardProfileRow>,
    /// Miss-classification rows.
    pub miss_classification: Vec<ShardMissRow>,
    /// Line-utilization view.
    pub utilization: ShardUtilization,
    /// Working-set view.
    pub working_set: ShardWorkingSet,
    /// Data-flow graphs, sorted by type name.
    pub data_flows: Vec<ShardFlow>,
}

impl ProfileShard {
    /// Builds a shard from a freshly collected profile: `meta` carries the producer's
    /// throughput bookkeeping and `ordinal` its canonical fold position.  Every view
    /// but the data profile already holds the shard's rows; only data-profile rows,
    /// which keep their machine-local `TypeId`, are converted.
    pub fn from_profile(profile: &DprofProfile, meta: ShardMeta, ordinal: u64) -> ProfileShard {
        let weight = profile.samples.iter().filter(|s| s.is_l1_miss()).count() as f64;
        let mut data_flows: Vec<ShardFlow> = profile.data_flows.values().cloned().collect();
        data_flows.sort_by(|a, b| a.type_name.cmp(&b.type_name));
        let ws = &profile.working_set;

        ProfileShard {
            ordinal,
            weight,
            meta,
            data_profile: profile
                .data_profile
                .iter()
                .map(|row| ShardProfileRow {
                    name: row.name.as_str().into(),
                    description: row.description.as_str().into(),
                    working_set_bytes: row.working_set_bytes,
                    pct_of_l1_misses: row.pct_of_l1_misses,
                    pct_of_miss_cycles: row.pct_of_miss_cycles,
                    bounce: row.bounce,
                    samples: row.samples,
                    l1_miss_samples: row.l1_miss_samples,
                    threads_seen: 1,
                })
                .collect(),
            miss_classification: profile.miss_classification.clone(),
            utilization: profile.utilization.clone(),
            working_set: ShardWorkingSet {
                rows: ws.per_type.clone(),
                cache_capacity: ws.cache_capacity,
                cache_ways: ws.cache_ways,
                total_avg_bytes: ws.total_avg_bytes(),
                thread_count: 1,
                threads_exceeding_capacity: usize::from(ws.exceeds_capacity()),
                conflict_sets: ws.conflict_sets.len(),
            },
            data_flows,
        }
    }

    /// The canonical fold-order key (see [`ProfileShard::ordinal`]).
    pub fn sort_key(&self) -> (u64, u64, usize, u64) {
        (
            self.ordinal,
            self.meta.seed,
            self.meta.thread,
            self.weight.to_bits(),
        )
    }
}

/// A folded row plus the three values it cannot compute from its own fields: its
/// confidence interval needs the pooled denominator, its rank stability the
/// neighbouring rows.  Derefs to the row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ranked<R> {
    /// The folded row.
    pub row: R,
    /// Lower bound of the 95% confidence interval on the row's share, percent.
    pub ci95_low: f64,
    /// Upper bound of the 95% confidence interval, percent.
    pub ci95_high: f64,
    /// True when the rank is statistically firm (no overlap with either ranked
    /// neighbour).
    pub rank_stable: bool,
}

impl<R> std::ops::Deref for Ranked<R> {
    type Target = R;
    fn deref(&self) -> &R {
        &self.row
    }
}

/// Wraps rows already in rank order.  `ci` is a row's Wilson interval as fractions;
/// `rank_interval` maps the row and that interval (in percent) to the range of the
/// quantity the rows are ranked by.
fn ranked<R>(
    rows: Vec<R>,
    ci: impl Fn(&R) -> (f64, f64),
    rank_interval: impl Fn(&R, (f64, f64)) -> (f64, f64),
) -> Vec<Ranked<R>> {
    let cis: Vec<(f64, f64)> = rows
        .iter()
        .map(|row| {
            let (lo, hi) = ci(row);
            (100.0 * lo, 100.0 * hi)
        })
        .collect();
    let intervals: Vec<(f64, f64)> = rows
        .iter()
        .zip(&cis)
        .map(|(row, &ci)| rank_interval(row, ci))
        .collect();
    rows.into_iter()
        .zip(cis)
        .zip(mark_rank_stability(&intervals))
        .map(|((row, (ci95_low, ci95_high)), rank_stable)| Ranked {
            row,
            ci95_low,
            ci95_high,
            rank_stable,
        })
        .collect()
}

/// Everything the report renderers consume: a folded shard, ranked.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergedReport {
    /// Per-shard summaries, in canonical fold order.
    pub threads: Vec<ShardMeta>,
    /// The folded shard's bookkeeping: requests, samples and cycles summed, request
    /// rates summed (machines run in parallel), cycle-weighted mean profiling overhead.
    pub totals: ShardMeta,
    /// Pooled L1-miss sample count (sum of shard weights; the merged shares'
    /// denominator).
    pub pooled_weight: f64,
    /// Data-profile rows, sorted by merged miss share (descending).  The interval is
    /// on the miss share: pooling the counts is what lets it be exact instead of a
    /// heuristic combination of per-shard ones.
    pub data_profile: Vec<Ranked<ShardProfileRow>>,
    /// Miss-classification rows, sorted by merged miss samples (descending).
    pub miss_classification: Vec<ShardMissRow>,
    /// The merged line-utilization view, sorted by pooled wasted bytes (descending);
    /// the interval is on the pooled utilization.
    pub utilization: ShardUtilization<Ranked<ShardUtilizationRow>>,
    /// The merged working-set view, sorted by average live bytes (descending).
    pub working_set: ShardWorkingSet,
    /// Merged data-flow graphs, sorted by type name.
    pub data_flows: Vec<ShardFlow>,
}

impl MergedReport {
    /// The report of one shard as it is: ranked, not folded again (a fold of a folded
    /// shard re-expands and divides its means once more, which moves their rounding).
    /// What a collector snapshots and loadgen pushes: written whole
    /// (`schema::write_whole_report`), it reads back as `shard`.
    pub fn of_shard(shard: ProfileShard) -> MergedReport {
        MergedReport::rank(vec![shard.meta.clone()], shard)
    }

    fn rank(threads: Vec<ShardMeta>, folded: ProfileShard) -> MergedReport {
        // The miss-weighted mean of per-shard shares equals the pooled share
        // (sum of counts over sum of totals), so the pooled counts also give the
        // interval of exactly the estimate the merged column shows.
        let pooled_total = folded.weight.round() as u64;
        let utilization = folded.utilization;
        MergedReport {
            threads,
            totals: folded.meta,
            pooled_weight: folded.weight,
            data_profile: ranked(
                folded.data_profile,
                |row| wilson95(row.l1_miss_samples, pooled_total),
                |_, ci| ci,
            ),
            miss_classification: folded.miss_classification,
            utilization: ShardUtilization {
                // Rank stability over the wasted-byte ranges implied by the
                // utilization CI (high utilization => low waste, so the interval
                // ends swap).
                rows: ranked(
                    utilization.rows,
                    |row| wilson95(row.slots_touched, row.slots_fetched),
                    |row, (lo, hi)| {
                        let bytes = 8.0 * row.slots_fetched as f64;
                        (bytes * (1.0 - hi / 100.0), bytes * (1.0 - lo / 100.0))
                    },
                ),
                total_fetches: utilization.total_fetches,
                total_refetches: utilization.total_refetches,
                resolved_slots_fetched: utilization.resolved_slots_fetched,
                resolved_slots_touched: utilization.resolved_slots_touched,
            },
            working_set: folded.working_set,
            data_flows: folded.data_flows,
        }
    }
}

/// A destination that profile shards can be merged into incrementally.
///
/// The contract every implementation must honour (and the proptests pin): without
/// compaction, [`finish`](MergeSink::finish) is a pure function of the *set* of
/// absorbed shards — absorbing the same shards in any order yields a bit-identical
/// [`MergedReport`], equal to [`merge_shards`] over the canonically sorted set.  A
/// compacting sink keeps every count exact for any order, but its means agree only to
/// rounding: arrival order decides which shards each compaction folded together.
pub trait MergeSink {
    /// Absorbs one shard.
    fn absorb(&mut self, shard: ProfileShard);
    /// Number of shards currently retained in memory (≤ absorbed when compacting).
    fn shard_count(&self) -> usize;
    /// Total number of shards ever absorbed.
    fn absorbed(&self) -> u64;
    /// Merges everything absorbed so far into a report.  The sink remains usable;
    /// an empty sink yields `MergedReport::default()`.
    fn finish(&self) -> MergedReport;
}

/// The canonical [`MergeSink`]: retains shards in canonical order and keeps their
/// running fold, so a read costs the rows folded since the last read, not the
/// retained shards.
#[derive(Debug, Clone)]
pub struct StreamingMerge {
    /// Sorted by [`ProfileShard::sort_key`]; shards with equal keys in arrival order.
    shards: Vec<ProfileShard>,
    /// The fold of the first `.1` retained shards, in order.  A read absorbs the
    /// rest first.
    fold: RefCell<(Fold, usize)>,
    compact_threshold: usize,
    absorbed: u64,
    rebuilds: u64,
}

impl StreamingMerge {
    /// An unbounded sink: every absorbed shard is retained until `finish`.
    pub fn new() -> StreamingMerge {
        StreamingMerge::with_compact_threshold(usize::MAX)
    }

    /// A bounded sink: whenever `threshold` shards are retained they are folded
    /// into a single base shard, keeping memory proportional to the type count.
    pub fn with_compact_threshold(threshold: usize) -> StreamingMerge {
        StreamingMerge {
            shards: Vec::new(),
            fold: RefCell::new((Fold::default(), 0)),
            compact_threshold: threshold.max(2),
            absorbed: 0,
            rebuilds: 0,
        }
    }

    /// The retained shards folded, in canonical order, into one base shard: what
    /// [`compact`](StreamingMerge::compact) keeps and the serve store snapshots.
    pub fn folded(&self) -> ProfileShard {
        let mut running = self.fold.borrow_mut();
        let (fold, folded) = &mut *running;
        for shard in &self.shards[*folded..] {
            fold.absorb(shard);
        }
        *folded = self.shards.len();
        fold.shard()
    }

    /// Replaces the retained shards by their fold (no-op below 2 shards).  The running
    /// fold restarts from the base shard instead of keeping its sums, so the sink goes
    /// on exactly as one that absorbed only the base shard — a store reloaded from its
    /// snapshot — would.
    pub fn compact(&mut self) {
        if self.shards.len() >= 2 {
            self.shards = vec![self.folded()];
            *self.fold.get_mut() = (Fold::default(), 0);
        }
    }

    /// How many absorbed shards sorted below one the running fold had already
    /// summed, so that the retained shards were folded again from the first.
    pub fn fold_rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

impl Default for StreamingMerge {
    fn default() -> StreamingMerge {
        StreamingMerge::new()
    }
}

impl MergeSink for StreamingMerge {
    fn absorb(&mut self, shard: ProfileShard) {
        self.absorbed += 1;
        let key = shard.sort_key();
        let at = self.shards.partition_point(|s| s.sort_key() <= key);
        let (fold, folded) = self.fold.get_mut();
        if at < *folded {
            // Its rows belong before sums already taken, and float sums depend on
            // their order: start over.
            (*fold, *folded) = (Fold::default(), 0);
            self.rebuilds += 1;
        }
        self.shards.insert(at, shard);
        if self.shards.len() >= self.compact_threshold {
            self.compact();
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn absorbed(&self) -> u64 {
        self.absorbed
    }

    fn finish(&self) -> MergedReport {
        let threads = self.shards.iter().map(|s| s.meta.clone()).collect();
        MergedReport::rank(threads, self.folded())
    }
}

/// Merges shards in the given order.  Callers that need order-insensitivity must
/// pass a canonically sorted slice (which [`StreamingMerge::finish`] does); the
/// fold order determines the exact float rounding of weighted means.
pub fn merge_shards(shards: &[&ProfileShard]) -> MergedReport {
    let threads = shards.iter().map(|s| s.meta.clone()).collect();
    MergedReport::rank(threads, fold(shards))
}

/// Folds shards, in the given order, into one base shard at the smallest ordinal
/// folded in.
///
/// Counts are pooled exactly; a mean becomes a single observation that carries its
/// pooled weight (`weight`, `threads_seen`, `thread_count`, `samples`), so folding the
/// base shard with new shards gives the same answer as folding the originals up to
/// float rounding.  Per-producer bookkeeping collapses into one aggregate
/// [`ShardMeta`]; every table is sorted on a total key.
pub fn fold(shards: &[&ProfileShard]) -> ProfileShard {
    let mut fold = Fold::default();
    for shard in shards {
        fold.absorb(shard);
    }
    fold.shard()
}

/// The largest count a document may carry, and where every sum of counts saturates:
/// each integer up to 2^53 is exact in the `f64` a JSON number is read into.  A
/// document's counts are bounded by it where they enter (`schema::count_at`), but
/// nothing bounds how many documents are pushed to one key, and a sum that stopped at
/// `u64::MAX` instead would be snapshotted and then refused by the store that wrote it.
pub const MAX_COUNT: u64 = 1 << 53;

/// `a + b`, saturating at [`MAX_COUNT`].
#[inline]
pub fn add_counts(a: u64, b: u64) -> u64 {
    a.saturating_add(b).min(MAX_COUNT)
}

/// Bytes fetched and never touched (a granule-slot is 8 bytes; `touched` is never more
/// than `fetched`), a count like any other: it stops at [`MAX_COUNT`].
fn wasted_bytes(fetched: u64, touched: u64) -> u64 {
    (fetched - touched).saturating_mul(8).min(MAX_COUNT)
}

/// [`add_counts`] for the thread counts kept as `usize`.
fn add_thread_counts(a: usize, b: usize) -> usize {
    a.saturating_add(b)
        .min(usize::try_from(MAX_COUNT).unwrap_or(usize::MAX))
}

/// `a + b`, saturating at `±f64::MAX`: [`add_counts`] for the rates, weights and
/// weighted sums the fold accumulates.  A sum that reached infinity would be written
/// as `null` and read back as 0.
#[inline]
fn add_f64(a: f64, b: f64) -> f64 {
    (a + b).clamp(-f64::MAX, f64::MAX)
}

/// One of a fold's name-keyed tables: rows in the order their names were first
/// absorbed, found through an index that shares each name with its row.
#[derive(Debug, Clone)]
struct Table<R> {
    index: NameMap<Arc<str>, usize>,
    rows: Vec<R>,
}

impl<R> Default for Table<R> {
    fn default() -> Table<R> {
        Table {
            index: NameMap::default(),
            rows: Vec::new(),
        }
    }
}

impl<R> Table<R> {
    /// The row named `name`, made by `new` when the name is first seen.
    fn row(&mut self, name: &Arc<str>, new: impl FnOnce() -> R) -> &mut R {
        let at = match self.index.get(&**name) {
            Some(&at) => at,
            None => {
                self.index.insert(Arc::clone(name), self.rows.len());
                self.rows.push(new());
                self.rows.len() - 1
            }
        };
        &mut self.rows[at]
    }
}

/// One type's data-flow graph while it is being folded.
#[derive(Debug, Clone)]
struct FlowAcc {
    type_name: Arc<str>,
    nodes: Table<ShardFlowNode>,
    /// By source, then destination; `[cpu_change == false, cpu_change == true]`.
    edges: Table<Table<[Option<ShardFlowEdge>; 2]>>,
}

/// The one fold ([`fold`]), as running sums over the shards absorbed so far in the
/// order they were absorbed.  While shards are absorbed a mean field holds its
/// weighted *sum*; [`shard`](Fold::shard) divides.
#[derive(Debug, Clone)]
pub(crate) struct Fold {
    /// The smallest ordinal absorbed (`None` before the first shard).
    ordinal: Option<u64>,
    weight: f64,
    /// The bookkeeping sums; `profiling_fraction` holds the cycle-weighted sum.
    meta: ShardMeta,
    data_profile: Table<ShardProfileRow>,
    miss_classification: Table<ShardMissRow>,
    utilization: Table<(ShardUtilizationRow, Table<ShardUtilizationOrigin>)>,
    /// The utilization view's totals (`rows` stays empty).
    utilization_totals: ShardUtilization,
    working_set: Table<ShardWorkingSetRow>,
    /// The working-set view's scalars (`rows` stays empty): `total_avg_bytes` holds the
    /// thread-weighted sum; the cache geometry is the first shard's.
    working_set_totals: ShardWorkingSet,
    data_flows: Table<FlowAcc>,
}

impl Default for Fold {
    /// An empty fold.  A shard-level float sum starts from `-0.0`, as `Iterator::sum`
    /// does, and a row's from `0.0`: which zero a sum starts from decides the sign of a
    /// zero sum, and a snapshot writes that sign.
    fn default() -> Fold {
        Fold {
            ordinal: None,
            weight: -0.0,
            meta: ShardMeta {
                rps: -0.0,
                profiling_fraction: -0.0,
                ..ShardMeta::default()
            },
            data_profile: Table::default(),
            miss_classification: Table::default(),
            utilization: Table::default(),
            utilization_totals: ShardUtilization::default(),
            working_set: Table::default(),
            working_set_totals: ShardWorkingSet {
                total_avg_bytes: -0.0,
                ..ShardWorkingSet::default()
            },
            data_flows: Table::default(),
        }
    }
}

impl Fold {
    /// Adds one shard's rows into the running sums.
    pub fn absorb(&mut self, shard: &ProfileShard) {
        let first = self.ordinal.is_none();
        self.ordinal = Some(self.ordinal.map_or(shard.ordinal, |o| o.min(shard.ordinal)));
        self.weight = add_f64(self.weight, shard.weight);
        let (meta, m) = (&mut self.meta, &shard.meta);
        meta.requests = add_counts(meta.requests, m.requests);
        meta.rps = add_f64(meta.rps, m.rps);
        // Cycle-weighted, so a shard that simulated 10x more work counts 10x.
        meta.profiling_fraction = add_f64(
            meta.profiling_fraction,
            m.profiling_fraction * m.total_cycles as f64,
        );
        meta.samples = add_counts(meta.samples, m.samples);
        meta.total_cycles = add_counts(meta.total_cycles, m.total_cycles);

        for row in &shard.data_profile {
            let entry = self.data_profile.row(&row.name, || ShardProfileRow {
                name: row.name.clone(),
                description: row.description.clone(),
                working_set_bytes: 0.0,
                pct_of_l1_misses: 0.0,
                pct_of_miss_cycles: 0.0,
                bounce: false,
                samples: 0,
                l1_miss_samples: 0,
                threads_seen: 0,
            });
            // `working_set_bytes` is the row's mean over `threads_seen` threads;
            // re-expanding to a sum keeps the merged mean exact under compaction
            // (and is a multiplication by 1.0 — bit-exact — for fresh shards).
            entry.working_set_bytes = add_f64(
                entry.working_set_bytes,
                row.working_set_bytes * row.threads_seen as f64,
            );
            entry.pct_of_l1_misses =
                add_f64(entry.pct_of_l1_misses, shard.weight * row.pct_of_l1_misses);
            entry.pct_of_miss_cycles = add_f64(
                entry.pct_of_miss_cycles,
                shard.weight * row.pct_of_miss_cycles,
            );
            entry.bounce |= row.bounce;
            entry.samples = add_counts(entry.samples, row.samples);
            entry.l1_miss_samples = add_counts(entry.l1_miss_samples, row.l1_miss_samples);
            entry.threads_seen = add_thread_counts(entry.threads_seen, row.threads_seen);
        }

        for row in &shard.miss_classification {
            let w = row.miss_samples as f64;
            let entry = self.miss_classification.row(&row.name, || ShardMissRow {
                name: row.name.clone(),
                miss_samples: 0,
                invalidation: 0.0,
                conflict: 0.0,
                capacity: 0.0,
            });
            entry.miss_samples = add_counts(entry.miss_samples, row.miss_samples);
            entry.invalidation = add_f64(entry.invalidation, w * row.invalidation);
            entry.conflict = add_f64(entry.conflict, w * row.conflict);
            entry.capacity = add_f64(entry.capacity, w * row.capacity);
        }

        let util = &shard.utilization;
        for row in &util.rows {
            let (entry, origins) = self.utilization.row(&row.name, || {
                let entry = ShardUtilizationRow {
                    name: row.name.clone(),
                    description: row.description.clone(),
                    ..ShardUtilizationRow::default()
                };
                (entry, Table::default())
            });
            entry.slots_fetched = add_counts(entry.slots_fetched, row.slots_fetched);
            entry.slots_touched = add_counts(entry.slots_touched, row.slots_touched);
            entry.refetch_slots = add_counts(entry.refetch_slots, row.refetch_slots);
            // Per-shard rates are bandwidths of machines running in parallel, so they
            // add; the pooled slot counts stay exact for the Wilson interval.
            entry.wasted_bytes_per_sec =
                add_f64(entry.wasted_bytes_per_sec, row.wasted_bytes_per_sec);
            for o in &row.origins {
                let slot = origins.row(&o.origin, || ShardUtilizationOrigin {
                    origin: o.origin.clone(),
                    slots_fetched: 0,
                    slots_touched: 0,
                });
                slot.slots_fetched = add_counts(slot.slots_fetched, o.slots_fetched);
                slot.slots_touched = add_counts(slot.slots_touched, o.slots_touched);
            }
        }
        let totals = &mut self.utilization_totals;
        totals.total_fetches = add_counts(totals.total_fetches, util.total_fetches);
        totals.total_refetches = add_counts(totals.total_refetches, util.total_refetches);
        totals.resolved_slots_fetched =
            add_counts(totals.resolved_slots_fetched, util.resolved_slots_fetched);
        totals.resolved_slots_touched =
            add_counts(totals.resolved_slots_touched, util.resolved_slots_touched);

        let ws = &shard.working_set;
        for t in &ws.rows {
            let entry = self.working_set.row(&t.name, || ShardWorkingSetRow {
                name: t.name.clone(),
                description: t.description.clone(),
                avg_live_bytes: 0.0,
                avg_live_objects: 0.0,
                peak_live_bytes: 0,
                threads_seen: 0,
            });
            entry.avg_live_bytes = add_f64(
                entry.avg_live_bytes,
                t.avg_live_bytes * t.threads_seen as f64,
            );
            entry.avg_live_objects = add_f64(
                entry.avg_live_objects,
                t.avg_live_objects * t.threads_seen as f64,
            );
            entry.peak_live_bytes = entry.peak_live_bytes.max(t.peak_live_bytes);
            entry.threads_seen = add_thread_counts(entry.threads_seen, t.threads_seen);
        }
        let totals = &mut self.working_set_totals;
        if first {
            (totals.cache_capacity, totals.cache_ways) = (ws.cache_capacity, ws.cache_ways);
        }
        totals.total_avg_bytes = add_f64(
            totals.total_avg_bytes,
            ws.total_avg_bytes * ws.thread_count as f64,
        );
        totals.thread_count = add_thread_counts(totals.thread_count, ws.thread_count);
        totals.threads_exceeding_capacity = add_thread_counts(
            totals.threads_exceeding_capacity,
            ws.threads_exceeding_capacity,
        );
        totals.conflict_sets = totals.conflict_sets.max(ws.conflict_sets);

        for graph in &shard.data_flows {
            let flow = self.data_flows.row(&graph.type_name, || FlowAcc {
                type_name: graph.type_name.clone(),
                nodes: Table::default(),
                edges: Table::default(),
            });
            for node in &graph.nodes {
                let acc = flow.nodes.row(&node.function, || ShardFlowNode {
                    function: node.function.clone(),
                    samples: 0,
                    weight: 0,
                    avg_latency: 0.0,
                });
                acc.samples = add_counts(acc.samples, node.samples);
                acc.weight = add_counts(acc.weight, node.weight);
                // Per-shard avg_latency is a per-sample mean, so weight by samples to
                // keep the merged value a per-sample mean.
                acc.avg_latency = add_f64(acc.avg_latency, node.samples as f64 * node.avg_latency);
            }
            for edge in &graph.edges {
                let slot = &mut flow
                    .edges
                    .row(&edge.from, Table::default)
                    .row(&edge.to, Default::default)[usize::from(edge.cpu_change)];
                let acc = slot.get_or_insert_with(|| ShardFlowEdge {
                    from: edge.from.clone(),
                    to: edge.to.clone(),
                    count: 0,
                    cpu_change: edge.cpu_change,
                });
                acc.count = add_counts(acc.count, edge.count);
            }
        }
    }

    /// Everything absorbed so far as one base shard: the means divided out and every
    /// table sorted.  The fold goes on absorbing.
    pub fn shard(&self) -> ProfileShard {
        let weight = self.weight;
        let mut meta = self.meta.clone();
        meta.profiling_fraction = if meta.total_cycles == 0 {
            0.0
        } else {
            meta.profiling_fraction / meta.total_cycles as f64
        };

        let mut data_profile = self.data_profile.rows.clone();
        for row in &mut data_profile {
            row.working_set_bytes /= row.threads_seen as f64;
            if weight > 0.0 {
                row.pct_of_l1_misses /= weight;
                row.pct_of_miss_cycles /= weight;
            } else {
                row.pct_of_l1_misses = 0.0;
                row.pct_of_miss_cycles = 0.0;
            }
        }
        data_profile.sort_by(|a, b| {
            b.pct_of_l1_misses
                .partial_cmp(&a.pct_of_l1_misses)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });

        let mut miss_classification = self.miss_classification.rows.clone();
        for row in &mut miss_classification {
            let w = row.miss_samples.max(1) as f64;
            row.invalidation /= w;
            row.conflict /= w;
            row.capacity /= w;
        }
        miss_classification.sort_by(|a, b| {
            b.miss_samples
                .cmp(&a.miss_samples)
                .then_with(|| a.name.cmp(&b.name))
        });

        let mut utilization_rows: Vec<ShardUtilizationRow> = self
            .utilization
            .rows
            .iter()
            .map(|(row, origins)| {
                let mut row = row.clone();
                row.origins = origins.rows.clone();
                row.origins.sort_by(|x, y| {
                    y.wasted_bytes()
                        .cmp(&x.wasted_bytes())
                        .then_with(|| x.origin.cmp(&y.origin))
                });
                row
            })
            .collect();
        utilization_rows.sort_by(|a, b| {
            b.wasted_bytes()
                .cmp(&a.wasted_bytes())
                .then_with(|| a.name.cmp(&b.name))
        });

        let mut working_set_rows = self.working_set.rows.clone();
        for row in &mut working_set_rows {
            row.avg_live_bytes /= row.threads_seen as f64;
            row.avg_live_objects /= row.threads_seen as f64;
        }
        working_set_rows.sort_by(|a, b| {
            b.avg_live_bytes
                .partial_cmp(&a.avg_live_bytes)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let ws = &self.working_set_totals;

        let mut data_flows: Vec<ShardFlow> = self
            .data_flows
            .rows
            .iter()
            .map(|flow| {
                let mut nodes = flow.nodes.rows.clone();
                for node in &mut nodes {
                    if node.samples > 0 {
                        node.avg_latency /= node.samples as f64;
                    } else {
                        node.avg_latency = 0.0;
                    }
                }
                nodes.sort_by(|a, b| {
                    b.weight
                        .cmp(&a.weight)
                        .then_with(|| a.function.cmp(&b.function))
                });
                let mut edges: Vec<ShardFlowEdge> = flow
                    .edges
                    .rows
                    .iter()
                    .flat_map(|targets| targets.rows.iter().flatten().flatten().cloned())
                    .collect();
                // The full accumulation key — (from, to, cpu_change) — must participate
                // in the sort: two edges differing only in cpu_change would otherwise
                // tie and keep the order they were first absorbed in, which differs
                // between shard sets that fold to the same edges.
                edges.sort_by(|a, b| {
                    b.count
                        .cmp(&a.count)
                        .then_with(|| a.from.cmp(&b.from))
                        .then_with(|| a.to.cmp(&b.to))
                        .then_with(|| a.cpu_change.cmp(&b.cpu_change))
                });
                ShardFlow {
                    type_name: flow.type_name.clone(),
                    nodes,
                    edges,
                }
            })
            .collect();
        data_flows.sort_by(|a, b| a.type_name.cmp(&b.type_name));

        ProfileShard {
            ordinal: self.ordinal.unwrap_or(0),
            weight,
            meta,
            data_profile,
            miss_classification,
            utilization: ShardUtilization {
                rows: utilization_rows,
                ..self.utilization_totals.clone()
            },
            working_set: ShardWorkingSet {
                rows: working_set_rows,
                total_avg_bytes: ws.total_avg_bytes / ws.thread_count.max(1) as f64,
                ..ws.clone()
            },
            data_flows,
        }
    }
}

/// Reduces a merged report to the diff engine's [`ReportSummary`].  It is the one
/// builder of a summary: the serve query path reduces its fold with it, and `dprof
/// diff` reduces each report read back as one shard, so regression verdicts match
/// what `dprof diff` says about the rendered files.  Each view is one pass over its
/// rows, joined by name into a table kept ordered by name; the working-set view's
/// `avg_live_bytes` overrides the data profile's `working_set_bytes`.
pub fn summary_from_merged(report: &MergedReport) -> ReportSummary {
    // Room for every row of every view, so the table never grows.
    let rows = report.data_profile.len()
        + report.miss_classification.len()
        + report.utilization.rows.len()
        + report.working_set.rows.len()
        + report.data_flows.len();
    let mut types = Vec::with_capacity(rows);
    for row in &report.data_profile {
        let t = type_row(&mut types, &row.name);
        t.pct_of_l1_misses = row.pct_of_l1_misses;
        t.l1_miss_samples = row.l1_miss_samples;
        t.bounce = row.bounce;
        t.working_set_bytes = row.working_set_bytes;
    }
    for row in &report.miss_classification {
        let t = type_row(&mut types, &row.name);
        t.miss_samples = row.miss_samples;
        t.invalidation = row.invalidation;
        t.conflict = row.conflict;
        t.capacity = row.capacity;
        t.dominant_miss = Some(row.dominant());
    }
    for row in &report.utilization.rows {
        let t = type_row(&mut types, &row.name);
        t.utilization_pct = row.utilization_pct();
        t.wasted_bytes = row.wasted_bytes();
    }
    for row in &report.working_set.rows {
        type_row(&mut types, &row.name).working_set_bytes = row.avg_live_bytes;
    }
    for flow in &report.data_flows {
        type_row(&mut types, &flow.type_name).core_crossings = flow.core_crossings();
    }
    ReportSummary::new(types, report.totals.rps)
}

/// The row of `name` in `types` (ordered by name), inserted as the zero summary where
/// the type has none yet.
fn type_row<'t>(types: &'t mut Vec<TypeSummary>, name: &Arc<str>) -> &'t mut TypeSummary {
    let i = match types.binary_search_by(|t| t.name.cmp(name)) {
        Ok(i) => i,
        Err(i) => {
            types.insert(i, TypeSummary::default());
            types[i].name = Arc::clone(name);
            i
        }
    };
    &mut types[i]
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(ordinal: u64, name: &str, l1: u64, pct: f64) -> ProfileShard {
        ProfileShard {
            ordinal,
            weight: l1 as f64,
            meta: ShardMeta {
                thread: ordinal as usize,
                seed: 100 + ordinal,
                requests: 10 * (ordinal + 1),
                rps: 5.0 * (ordinal + 1) as f64,
                profiling_fraction: 0.01,
                samples: 3 * l1,
                total_cycles: 1000 * (ordinal + 1),
            },
            data_profile: vec![ShardProfileRow {
                name: name.into(),
                description: "d".into(),
                working_set_bytes: 512.0,
                pct_of_l1_misses: pct,
                pct_of_miss_cycles: pct,
                bounce: false,
                samples: 3 * l1,
                l1_miss_samples: l1,
                threads_seen: 1,
            }],
            miss_classification: vec![ShardMissRow {
                name: name.into(),
                miss_samples: l1,
                invalidation: 0.5,
                conflict: 0.25,
                capacity: 0.25,
            }],
            utilization: ShardUtilization {
                rows: vec![ShardUtilizationRow {
                    name: name.into(),
                    description: "d".into(),
                    slots_fetched: 8 * l1,
                    slots_touched: 2 * l1,
                    refetch_slots: l1,
                    wasted_bytes_per_sec: 100.0 * l1 as f64,
                    origins: vec![ShardUtilizationOrigin {
                        origin: format!("cpu{ordinal}").into(),
                        slots_fetched: 8 * l1,
                        slots_touched: 2 * l1,
                    }],
                }],
                total_fetches: l1,
                total_refetches: l1 / 4,
                resolved_slots_fetched: 8 * l1,
                resolved_slots_touched: 2 * l1,
            },
            working_set: ShardWorkingSet {
                rows: vec![ShardWorkingSetRow {
                    name: name.into(),
                    description: "d".into(),
                    avg_live_bytes: 256.0,
                    avg_live_objects: 4.0,
                    peak_live_bytes: 512,
                    threads_seen: 1,
                }],
                cache_capacity: 1 << 18,
                cache_ways: 8,
                total_avg_bytes: 256.0,
                thread_count: 1,
                threads_exceeding_capacity: 0,
                conflict_sets: 0,
            },
            data_flows: vec![],
        }
    }

    /// A fold as a snapshot keeps it, a report written whole, read back.
    fn written_and_read(folded: &ProfileShard) -> Result<ProfileShard, String> {
        let text = crate::schema::report_of_shard(folded.clone());
        let doc = crate::schema::JsonTape::parse(&text).unwrap();
        crate::schema::shard_from_report_json(&doc, folded.ordinal)
    }

    #[test]
    fn finish_is_order_insensitive() {
        let shards = [
            shard(0, "a", 100, 60.0),
            shard(1, "b", 50, 40.0),
            shard(2, "a", 25, 90.0),
        ];
        let mut forward = StreamingMerge::new();
        for s in &shards {
            forward.absorb(s.clone());
        }
        let mut backward = StreamingMerge::new();
        for s in shards.iter().rev() {
            backward.absorb(s.clone());
        }
        assert_eq!(forward.finish(), backward.finish());
    }

    /// ROADMAP, hostile input: a document's counts are bounded at 2^53 each, the number
    /// of documents pushed to one key is not: two maximal ones pass what a snapshot can
    /// carry, 2 049 pass 2^64.  Every sum stops at 2^53.
    #[test]
    fn folding_maximal_counts_saturates() {
        const MAX: u64 = MAX_COUNT;
        let mut maximal = shard(0, "a", 1, 50.0);
        maximal.meta.requests = MAX;
        maximal.meta.samples = MAX;
        maximal.meta.total_cycles = MAX;
        let row = &mut maximal.data_profile[0];
        (row.samples, row.l1_miss_samples, row.threads_seen) = (MAX, MAX, MAX as usize);
        maximal.miss_classification[0].miss_samples = MAX;
        let util = &mut maximal.utilization;
        (util.total_fetches, util.total_refetches) = (MAX, MAX);
        (util.resolved_slots_fetched, util.resolved_slots_touched) = (MAX, MAX);
        let row = &mut util.rows[0];
        (row.slots_fetched, row.slots_touched, row.refetch_slots) = (MAX, MAX / 2, MAX);
        row.origins[0].origin = "cpu".into();
        (row.origins[0].slots_fetched, row.origins[0].slots_touched) = (MAX, 1);
        maximal.working_set.rows[0].threads_seen = MAX as usize;
        maximal.working_set.thread_count = MAX as usize;
        maximal.working_set.threads_exceeding_capacity = MAX as usize;
        maximal.data_flows = vec![ShardFlow {
            type_name: "a".into(),
            nodes: vec![ShardFlowNode {
                function: "f".into(),
                samples: MAX,
                weight: MAX,
                avg_latency: 3.0,
            }],
            edges: vec![ShardFlowEdge {
                from: "f".into(),
                to: "f".into(),
                cpu_change: true,
                count: MAX,
            }],
        }];
        let shards: Vec<ProfileShard> = (0..2049)
            .map(|ordinal| ProfileShard {
                ordinal,
                ..maximal.clone()
            })
            .collect();
        let report = merge_shards(&shards.iter().collect::<Vec<_>>());

        assert_eq!(report.totals.requests, MAX);
        assert_eq!(report.totals.samples, MAX);
        assert_eq!(report.totals.total_cycles, MAX);
        let row = &report.data_profile[0].row;
        assert_eq!((row.samples, row.l1_miss_samples), (MAX, MAX));
        assert_eq!(row.threads_seen, MAX as usize);
        assert_eq!(report.miss_classification[0].miss_samples, MAX);
        assert_eq!(report.utilization.total_fetches, MAX);
        assert_eq!(report.utilization.resolved_slots_touched, MAX);
        let row = &report.utilization.rows[0].row;
        assert_eq!((row.slots_fetched, row.refetch_slots), (MAX, MAX));
        // The smaller sum saturates at the same bound, never past the larger one.
        assert_eq!(row.slots_touched, MAX);
        assert_eq!(row.wasted_bytes(), 0);
        assert_eq!(row.origins[0].slots_touched, 2049);
        assert_eq!(row.origins[0].wasted_bytes(), MAX);
        assert_eq!(report.working_set.thread_count, MAX as usize);
        assert_eq!(report.working_set.threads_exceeding_capacity, MAX as usize);
        assert_eq!(report.working_set.rows[0].threads_seen, MAX as usize);
        let flow = &report.data_flows[0];
        assert_eq!((flow.nodes[0].samples, flow.nodes[0].weight), (MAX, MAX));
        assert_eq!(flow.edges[0].count, MAX);
        assert_eq!(flow.core_crossings(), MAX);
        // Two documents are enough, and what the fold holds a snapshot can carry.
        let folded = fold(&[&shards[0], &shards[1]]);
        assert_eq!(folded.meta.requests, MAX);
        assert_eq!(written_and_read(&folded), Ok(folded));
    }

    #[test]
    fn folding_maximal_rates_saturates() {
        const MAX: f64 = f64::MAX;
        let mut huge = shard(0, "a", 1, 50.0);
        (huge.weight, huge.meta.rps, huge.meta.profiling_fraction) = (MAX, MAX, MAX);
        let row = &mut huge.data_profile[0];
        (
            row.working_set_bytes,
            row.pct_of_l1_misses,
            row.pct_of_miss_cycles,
        ) = (MAX, MAX, MAX);
        row.threads_seen = 2;
        let miss = &mut huge.miss_classification[0];
        (miss.invalidation, miss.conflict, miss.capacity) = (MAX, MAX, MAX);
        huge.utilization.rows[0].wasted_bytes_per_sec = MAX;
        let ws = &mut huge.working_set;
        (ws.rows[0].avg_live_bytes, ws.rows[0].avg_live_objects) = (MAX, MAX);
        (ws.total_avg_bytes, ws.thread_count) = (MAX, 2);
        huge.data_flows = vec![ShardFlow {
            type_name: "a".into(),
            nodes: vec![ShardFlowNode {
                function: "f".into(),
                samples: 2,
                weight: 2,
                avg_latency: MAX,
            }],
            edges: Vec::new(),
        }];
        let twice = ProfileShard {
            ordinal: 1,
            ..huge.clone()
        };
        let folded = fold(&[&huge, &twice]);

        assert_eq!((folded.weight, folded.meta.rps), (MAX, MAX));
        // Means of sums that stopped at MAX: finite, at most what was folded.
        let means = [
            folded.meta.profiling_fraction,
            folded.data_profile[0].working_set_bytes,
            folded.miss_classification[0].invalidation,
            folded.working_set.rows[0].avg_live_bytes,
            folded.working_set.total_avg_bytes,
            folded.data_flows[0].nodes[0].avg_latency,
        ];
        assert!(means.iter().all(|m| m.is_finite() && *m > 0.0), "{means:?}");
        assert_eq!(folded.utilization.rows[0].wasted_bytes_per_sec, MAX);
        // What the fold holds a snapshot can carry.
        assert_eq!(written_and_read(&folded), Ok(folded));
    }

    #[test]
    fn empty_sink_finishes_to_default() {
        assert_eq!(StreamingMerge::new().finish(), MergedReport::default());
    }

    #[test]
    fn compaction_preserves_counts() {
        let shards: Vec<ProfileShard> = (0..10).map(|i| shard(i, "a", 10 + i, 50.0)).collect();
        let mut unbounded = StreamingMerge::new();
        let mut bounded = StreamingMerge::with_compact_threshold(3);
        for s in &shards {
            unbounded.absorb(s.clone());
            bounded.absorb(s.clone());
        }
        assert!(bounded.shard_count() <= 3);
        assert_eq!(bounded.absorbed(), 10);
        let a = unbounded.finish();
        let b = bounded.finish();
        assert_eq!(a.totals.requests, b.totals.requests);
        assert_eq!(a.pooled_weight, b.pooled_weight);
        assert_eq!(
            a.data_profile[0].l1_miss_samples,
            b.data_profile[0].l1_miss_samples
        );
        assert_eq!(
            a.data_profile[0].threads_seen,
            b.data_profile[0].threads_seen
        );
        assert!(
            (a.data_profile[0].pct_of_l1_misses - b.data_profile[0].pct_of_l1_misses).abs() < 1e-9
        );
        assert!((a.working_set.total_avg_bytes - b.working_set.total_avg_bytes).abs() < 1e-9);
    }

    #[test]
    fn summary_from_merged_matches_rows() {
        let mut sink = StreamingMerge::new();
        sink.absorb(shard(0, "a", 100, 60.0));
        sink.absorb(shard(1, "b", 50, 40.0));
        let report = sink.finish();
        let summary = summary_from_merged(&report);
        let a = summary.get("a").unwrap();
        assert_eq!(a.miss_samples, 100);
        assert_eq!(a.l1_miss_samples, 100);
        assert_eq!(summary.get("b").unwrap().l1_miss_samples, 50);
        assert_eq!(a.dominant_miss, Some("invalidation"));
        assert_eq!(a.wasted_bytes, 8 * (8 * 100 - 2 * 100));
        assert!((a.utilization_pct - 25.0).abs() < 1e-9);
        assert_eq!(summary.rps, report.totals.rps);
        // The working-set view's mean overrides the data profile's bytes.
        assert_eq!(report.data_profile[0].working_set_bytes, 512.0);
        assert_eq!(a.working_set_bytes, 256.0);
        let names: Vec<&str> = summary.types().iter().map(|t| &*t.name).collect();
        assert_eq!(names, ["a", "b"]);
    }

    /// The interval is computed once, here, from counts pooled across shards: it
    /// brackets the share the report prints, and a clear split ranks firmly while a
    /// near-tie does not.
    #[test]
    fn pooled_intervals_bracket_the_share_and_mark_stability() {
        let merged =
            |a: u64, b: u64| merge_shards(&[&shard(0, "a", a, 100.0), &shard(1, "b", b, 100.0)]);
        let report = merged(30, 1);
        assert_eq!(report.data_profile[0].l1_miss_samples, 30);
        for row in &report.data_profile {
            assert!(
                row.ci95_low <= row.pct_of_l1_misses && row.pct_of_l1_misses <= row.ci95_high,
                "{}: CI [{:.2}, {:.2}] must bracket the share {:.2}",
                row.name,
                row.ci95_low,
                row.ci95_high,
                row.pct_of_l1_misses
            );
            assert!(row.rank_stable, "{}: 30 vs 1 ranks firmly", row.name);
        }
        for row in &report.utilization.rows {
            let pct = row.utilization_pct();
            assert!(
                row.ci95_low <= pct && pct <= row.ci95_high,
                "{}: CI [{:.2}, {:.2}] must bracket the utilization {pct:.2}",
                row.name,
                row.ci95_low,
                row.ci95_high
            );
        }
        let report = merged(2, 1);
        assert!(
            report.data_profile.iter().all(|row| !row.rank_stable),
            "2 vs 1 is a near-tie"
        );
    }

    #[test]
    fn utilization_pools_counts_and_sums_rates() {
        let mut sink = StreamingMerge::new();
        sink.absorb(shard(0, "a", 100, 60.0));
        sink.absorb(shard(1, "a", 50, 40.0));
        let report = sink.finish();
        let rows = &report.utilization.rows;
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.slots_fetched, 8 * 150);
        assert_eq!(row.slots_touched, 2 * 150);
        assert_eq!(row.refetch_slots, 150);
        assert_eq!(row.wasted_bytes(), 8 * 6 * 150);
        // Parallel machines: wasted-bandwidth rates add.
        assert!((row.wasted_bytes_per_sec - 100.0 * 150.0).abs() < 1e-9);
        assert!((row.utilization_pct() - 25.0).abs() < 1e-9);
        assert!((row.refetch_ratio() - 0.125).abs() < 1e-9);
        // Origins keyed by label merge across shards (distinct cores here).
        assert_eq!(row.origins.len(), 2);
        assert_eq!(report.utilization.total_fetches, 150);
        assert_eq!(report.utilization.resolved_slots_fetched, 8 * 150);

        // Compaction keeps the pooled counts and summed rates exact.
        sink.compact();
        assert_eq!(sink.shard_count(), 1);
        assert_eq!(sink.finish().utilization, report.utilization);
    }
}
