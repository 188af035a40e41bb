#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload and metric by
metric, by the rules of README.md ("Comparing two commits").

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of run records (the .bench_results/
directory run.py fills) or single record files.  Only untraced runs count.
Runs pair up by seed.  The metrics and bounds come from BENCHMARK.json at
the repository root.  Per end-to-end metric the verdict is:

  unresolved  either side's spread (quartile distance over median) is wider
              than the metric's bound, unless every change run beats (or
              loses to) every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  gain        at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither), and the medians differ by more than
              the parent's quartile distance;
  same        otherwise.

The deterministic metrics (DETERMINISTIC: the same code on the same seed
gives the same value) are compared pair by pair instead: any seed whose
value differs between the two sides is worse, and no shared seed is
unresolved.  On their rows "worse by" is the share of shared seeds that
differ and "wins" counts the seeds that agree.

A higher failed share, or a run whose gates failed, is worse.  Exits 1 when
any row is worse, 2 on bad input, 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
DETERMINISTIC = frozenset({"decided_correct_share", "reference_agreement"})


def load_records(path):
    """Untraced run records under `path` (a directory or one file)."""
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        try:
            record = json.loads(file.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and "workload" in record and not record.get("trace"):
            records.append(record)
    return records


def summary(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def better(a, b, direction):
    """Whether value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def compare_metric(parent, change, spec):
    """Verdict for one metric.  `parent` and `change` map seed -> value."""
    direction, bound = spec["better"], spec["bound"]
    p_values, c_values = list(parent.values()), list(change.values())
    p_med, p_q1, p_q3 = summary(p_values)
    c_med, c_q1, c_q3 = summary(c_values)
    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s], direction) for s in seeds)

    def relative(q1, q3, median):
        return (q3 - q1) / abs(median) if median else float("inf")

    spread = max(relative(p_q1, p_q3, p_med), relative(c_q1, c_q3, c_med))
    if p_med:
        worse_by = (c_med - p_med) / abs(p_med)
        if direction == "higher":
            worse_by = -worse_by
    else:
        worse_by = 0.0 if c_med == p_med else float("inf")
    all_better = all(better(c, p, direction) for c in c_values for p in p_values)
    all_worse = all(better(p, c, direction) for c in c_values for p in p_values)
    gain = (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and better(c_med, p_med, direction)
            and abs(c_med - p_med) > (p_q3 - p_q1))

    if spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif gain:
        verdict = "gain"
    else:
        verdict = "same"
    return {
        "verdict": verdict,
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": len(seeds),
    }


def compare_paired(parent, change):
    """Verdict for a deterministic metric: every shared seed must agree."""
    seeds = sorted(set(parent) & set(change))
    differing = [s for s in seeds if parent[s] != change[s]]
    if differing:
        verdict = "worse"
    else:
        verdict = "same" if seeds else "unresolved"
    p_med = statistics.median(parent.values())
    c_med = statistics.median(change.values())
    return {
        "verdict": verdict,
        "parent": (p_med,) * 3,
        "change": (c_med,) * 3,
        "worse_by": len(differing) / len(seeds) if seeds else 0.0,
        "spread": 0.0,
        "wins": len(seeds) - len(differing),
        "pairs": len(seeds),
    }


def compare(parent_records, change_records, benchmark):
    """Rows of (workload, metric, result) for every workload on both sides."""
    rows = []
    specs = benchmark["end_to_end"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        p_runs = [r for r in parent_records if r["workload"] == workload]
        c_runs = [r for r in change_records if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        for spec in specs:
            name = spec["name"]
            parent = {r["seed"]: r["metrics"][name]["value"]
                      for r in p_runs if name in r["metrics"]}
            change = {r["seed"]: r["metrics"][name]["value"]
                      for r in c_runs if name in r["metrics"]}
            if not parent or not change:
                continue
            if name in DETERMINISTIC:
                rows.append((workload, name, compare_paired(parent, change)))
            else:
                rows.append((workload, name, compare_metric(parent, change, spec)))

        def failed_share(runs):
            attempted = sum(r["attempted"] for r in runs)
            return sum(r["failed"] for r in runs) / attempted if attempted else 1.0

        p_failed, c_failed = failed_share(p_runs), failed_share(c_runs)
        gates_failed = any(not r["correct"] for r in c_runs)
        rows.append((workload, "failed_share", {
            "verdict": "worse" if c_failed > p_failed or gates_failed else "same",
            "parent": (p_failed,) * 3,
            "change": (c_failed,) * 3,
            "worse_by": c_failed - p_failed,
            "spread": 0.0,
            "wins": 0,
            "pairs": 0,
        }))
    return rows


def stamps(records):
    keys = ("commit", "cpu_model", "nproc", "build_type", "kernel_backend",
            "transform_backend", "transform_mode")
    return {tuple((k, r.get("stamp", {}).get(k)) for k in keys) for r in records}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"compare.py: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    parent, change = load_records(args.parent), load_records(args.change)
    if not parent or not change:
        print("compare.py: no untraced run records on one side", file=sys.stderr)
        return 2
    for label, records in (("parent", parent), ("change", change)):
        for stamp in sorted(stamps(records)):
            print(f"# {label}: " + " ".join(f"{k}={v}" for k, v in stamp))
    rows = compare(parent, change, benchmark)
    print(f"{'workload':14s} {'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse by':>9s} {'wins':>6s}  verdict")
    for workload, name, r in rows:
        p, c = r["parent"], r["change"]
        print(f"{workload:14s} {name:24s} {p[0]:12.6g} [{p[1]:.6g}, {p[2]:.6g}]"
              f"{'':>2s}{c[0]:12.6g} [{c[1]:.6g}, {c[2]:.6g}] "
              f"{100 * r['worse_by']:8.2f}% {r['wins']:>2d}/{r['pairs']:<3d} "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for _, _, r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
