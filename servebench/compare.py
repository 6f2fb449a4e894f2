#!/usr/bin/env python3
"""Compares bench_serve result sets against BENCHMARK.json's bounds.

    python3 servebench/compare.py BASE_DIR OTHER_DIR [OTHER_DIR ...]
        [--bench BENCHMARK.json] [--per-layer]

Each directory holds the result files that `run.py --json FILE` writes, one
per run, for any mix of workloads and seeds. BASE_DIR is the parent (or
first) set; every OTHER_DIR is compared with it. For each workload and each
end_to_end metric (with --per-layer: each per_layer metric, then every
other metric the result files hold) the table shows both sets' medians and
quartiles and a verdict:

  same        the other median is within the bound of the base median
  worse       the other median is worse by more than the bound
  better      the other set wins at least 9 of 10 paired runs (paired by
              seed, ties counting for neither) and the medians differ by more
              than the base set's own quartile spread
  unresolved  either set's quartile spread exceeds the bound, and not every
              other run beats every base run

Per-layer metrics have no bound, so they get only `better` (by the rule
above) or `-`. Metrics BENCHMARK.json does not list (latencies of classes
that some workload never runs, and the like) count lower as better. Exits 1
when any verdict is `worse`.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load_set(directory):
    """{workload: {seed: metrics}} for every result file in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = {
            name: m["value"] for name, m in result["metrics"].items()}
    if not runs:
        sys.exit(f"compare.py: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, other, better, bound, pairs):
    """One of same / worse / better / unresolved, as the docstring defines;
    with no bound, only `better` or `-`."""
    b1, bm, b3 = quartiles(base)
    o1, om, o3 = quartiles(other)
    sign = 1 if better == "lower" else -1  # positive = worse
    wins = sum(1 for b, o in pairs if sign * (o - b) < 0)
    won = bool(pairs) and wins >= 0.9 * len(pairs) and abs(om - bm) > b3 - b1
    if bound is None:
        return "better" if won else "-"
    spread = max((b3 - b1) / abs(bm) if bm else 0,
                 (o3 - o1) / abs(om) if om else 0)
    all_better = all(sign * (o - b) < 0 for o in other for b in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if bm and sign * (om - bm) / abs(bm) > bound:
        return "worse"
    return "better" if won else "same"


def compare(base, other, spec, per_layer):
    metrics = spec["per_layer" if per_layer else "end_to_end"]
    if per_layer:
        listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        found = {name for runs in (base, other) for by_seed in runs.values()
                 for result in by_seed.values() for name in result}
        metrics = metrics + [{"name": name, "better": "lower"}
                             for name in sorted(found - listed)]
    regressions = 0
    header = (f"{'workload':<11} {'metric':<32} {'base median [q1, q3]':>34} "
              f"{'other median [q1, q3]':>34} {'delta':>8}  verdict")
    print(header)
    for workload in sorted(set(base) & set(other)):
        seeds = sorted(set(base[workload]) & set(other[workload]))
        for m in metrics:
            name = m["name"]
            b_runs = {s: r[name] for s, r in base[workload].items()
                      if name in r}
            o_runs = {s: r[name] for s, r in other[workload].items()
                      if name in r}
            # Skipped too: a metric that reads 0 throughout, such as the
            # latency of a class the workload does not run.
            if not b_runs or not o_runs or (not any(b_runs.values())
                                            and not any(o_runs.values())):
                continue
            b_vals, o_vals = list(b_runs.values()), list(o_runs.values())
            b1, bm, b3 = quartiles(b_vals)
            o1, om, o3 = quartiles(o_vals)
            delta = f"{100 * (om - bm) / abs(bm):+.1f}%" if bm else "n/a"
            pairs = [(b_runs[s], o_runs[s]) for s in seeds if s in b_runs
                     and s in o_runs]
            v = verdict(b_vals, o_vals, m["better"], m.get("bound"), pairs)
            regressions += v == "worse"
            print(f"{workload:<11} {name:<32} "
                  f"{bm:>12.5g} [{b1:>9.5g}, {b3:>9.5g}] "
                  f"{om:>12.5g} [{o1:>9.5g}, {o3:>9.5g}] {delta:>8}  {v}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="result directories")
    parser.add_argument("--bench", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()
    if len(args.sets) < 2:
        parser.error("need a base set and at least one other set")
    spec = json.loads(Path(args.bench).read_text())
    base = load_set(args.sets[0])
    regressions = 0
    for directory in args.sets[1:]:
        print(f"== {args.sets[0]} -> {directory}")
        regressions += compare(base, load_set(directory), spec,
                               args.per_layer)
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
