#!/usr/bin/env python3
"""Throughput-regression gate for the CI `dprof-bench` job.

Compares a fresh `dprof-bench --quick --emit-json` run against the checked-in
quick-scale baseline (`BENCH_throughput_quick.json`, schema
`dprof-bench-throughput/v1`): for every (workload, cores) point present in
BOTH documents, the fresh optimized accesses/s must be at least `--tolerance`
(default 0.7) times the baseline's.  The generous tolerance absorbs
runner-speed variance between the machine that recorded the baseline and the
CI machine of the day; a real hot-path regression (the kind PR 2 existed to
prevent) loses far more than 30%.

Like is compared with like: the two documents must have the same `scale`.  A
quick-scale trace is five times shorter than a paper-scale one at the same
core count, so more of it is cold misses: one and the same build read
0.82-0.99x of its paper-scale figures at quick scale on a quiet host and
0.53-0.86x on a busy one, which alone can trip the tolerance.  Comparing
across scales is refused, and so is a shared point whose `trace_len` differs
from the baseline's: a different access stream is a different measurement.

Refreshing the baselines (e.g. after an intentional trade-off, or when the CI
runner fleet changes speed class): run

    cargo run --release -p dprof-bench --bin dprof-bench -- --emit-json
    cargo run --release -p dprof-bench --bin dprof-bench -- \
        --quick --emit-json BENCH_throughput_quick.json

on the reference machine and commit both regenerated files in the same PR,
noting the reason in the PR description.

Exit status: 0 when every compared point clears the tolerance, 1 when one does
not, 2 when the two documents were measured at different scales or a shared
point replayed a stream of a different length.
"""

import argparse
import json
import sys


def load(path):
    """The document's scale and its points keyed by (workload, cores)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "dprof-bench-throughput/v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc.get("scale"), {(p["workload"], p["cores"]): p for p in doc["points"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="checked-in baseline of the fresh run's scale")
    ap.add_argument("fresh", help="freshly measured bench JSON")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.7,
        help="minimum fresh/baseline optimized-aps ratio (default 0.7)",
    )
    args = ap.parse_args()

    baseline_scale, baseline = load(args.baseline)
    fresh_scale, fresh = load(args.fresh)
    if baseline_scale != fresh_scale:
        print(
            f"::error::{args.baseline} is {baseline_scale!r} scale but {args.fresh} is "
            f"{fresh_scale!r} scale: throughput is only comparable at one scale",
            file=sys.stderr,
        )
        return 2
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        sys.exit("no (workload, cores) points shared between baseline and fresh run")
    unlike = [k for k in shared if baseline[k]["trace_len"] != fresh[k]["trace_len"]]
    for workload, cores in unlike:
        print(
            f"::error::{workload}/{cores}c replayed {fresh[(workload, cores)]['trace_len']} "
            f"accesses but {args.baseline} measured "
            f"{baseline[(workload, cores)]['trace_len']}: throughput is only comparable "
            "over one stream",
            file=sys.stderr,
        )
    if unlike:
        return 2

    failures = []
    print(f"{'workload':<12} {'cores':>5} {'baseline a/s':>14} {'fresh a/s':>14} {'ratio':>7}")
    for key in shared:
        base_aps = baseline[key]["optimized_aps"]
        fresh_aps = fresh[key]["optimized_aps"]
        ratio = fresh_aps / base_aps
        status = "ok" if ratio >= args.tolerance else "REGRESSION"
        print(
            f"{key[0]:<12} {key[1]:>5} {base_aps:>14,.0f} {fresh_aps:>14,.0f} "
            f"{ratio:>6.2f}x  {status}"
        )
        if ratio < args.tolerance:
            failures.append((key, ratio))

    if failures:
        for (workload, cores), ratio in failures:
            print(
                f"::error::throughput regression: {workload}/{cores}c at "
                f"{ratio:.2f}x of baseline (tolerance {args.tolerance}x)",
                file=sys.stderr,
            )
        return 1
    print(f"all {len(shared)} compared points within tolerance {args.tolerance}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
