"""Layer-regression report: compare two JSON-lines result files from `run.py --out`.

For every workload it lists each end-to-end metric (untraced runs) and each
per-layer metric (traced runs) with the median and quartiles over runs in the
base file and in the new file, the new/base ratio and the base file's spread
(quartile distance over median).  Notes:

  WORSE       an end-to-end median is worse than the base by more than the
              bound in BENCHMARK.json
  unresolved  the run-to-run spread of either file exceeds that bound
  DIFF        a `*.calls` count differs between runs with the same seed;
              call counts must match exactly

The exit code is 1 when any metric is WORSE or DIFF, else 0.
"""

import json
import statistics
from collections import defaultdict


def _load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[rec["detail"]["workload"]].append(rec)
    return runs


def _values(records, metric):
    return [
        (r["env"]["seed"], r["result"]["metrics"][metric]["value"])
        for r in records
        if metric in r["result"]["metrics"]
    ]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _cell(values):
    if not values:
        return "-"
    q1, med, q3 = _quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def _spread(values):
    if len(values) < 2:
        return None
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else None


def _note(metric, base, new, spec):
    if metric.endswith(".calls"):
        seen = defaultdict(set)
        for seed, v in base + new:
            seen[seed].add(v)
        if any(len(vs) > 1 for vs in seen.values()):
            return "DIFF"
        shared = {s for s, _ in base} & {s for s, _ in new}
        return "=" if shared else "no shared seed"
    if metric not in spec or "bound" not in spec[metric] or not base or not new:
        return ""
    bound, better = spec[metric]["bound"], spec[metric]["better"]
    b = [v for _, v in base]
    n = [v for _, v in new]
    sign = 1.0 if better == "lower" else -1.0
    if sign * (statistics.median(n) - statistics.median(b)) > bound * abs(statistics.median(b)):
        return "WORSE"
    spreads = [s for s in (_spread(b), _spread(n)) if s is not None]
    all_better = max(sign * v for v in n) < min(sign * v for v in b)
    if spreads and max(spreads) > bound and not all_better:
        return "unresolved"
    return ""


def compare(base_path, new_path, benchmark_json):
    base, new = _load(base_path), _load(new_path)
    spec = {}
    if benchmark_json.is_file():
        with open(benchmark_json) as fh:
            bench = json.load(fh)
        spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    failing = 0
    for workload in sorted(set(base) | set(new)):
        names = []
        for rec in base[workload] + new[workload]:
            names += [m for m in rec["result"]["metrics"] if m not in names]
        print(f"== {workload}")
        print(f"{'metric':48s} {'base median [q1, q3]':40s} {'new median [q1, q3]':40s} "
              f"{'new/base':>9s} {'spread':>7s}  note")
        for metric in names:
            b = _values(base[workload], metric)
            n = _values(new[workload], metric)
            bm = statistics.median(v for _, v in b) if b else None
            nm = statistics.median(v for _, v in n) if n else None
            ratio = f"{nm / bm:9.3f}" if bm and nm is not None else f"{'-':>9s}"
            spread = _spread([v for _, v in b])
            spread = f"{spread:7.3f}" if spread is not None else f"{'-':>7s}"
            note = _note(metric, b, n, spec)
            failing += note in ("WORSE", "DIFF")
            print(f"{metric:48s} {_cell([v for _, v in b]):40s} {_cell([v for _, v in n]):40s} "
                  f"{ratio} {spread}  {note}")
    print(f"{failing} metric(s) WORSE or DIFF")
    return 1 if failing else 0
