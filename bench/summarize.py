"""Median and spread of the end-to-end metrics over recorded runs.

    python3 bench/summarize.py [--workload NAME ...] [--json]

Reads the run records ``bench/run.py`` left in ``.bench_out/`` (one per
workload, seed and trace setting) and prints, per workload and metric,
the number of runs, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median;
``--json`` adds the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def summarize(records):
    table = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            table.setdefault(name, []).append(m["value"])
    out = {}
    for name, values in table.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"n": len(values), "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    by_workload = {}
    for path in sorted(OUT.glob("run-*-trace*.json")):
        rec = json.loads(path.read_text())
        if args.workload and rec["workload"] not in args.workload:
            continue
        by_workload.setdefault(rec["workload"], ([], []))[rec["trace"]].append(rec)
    result = {}
    for w, (plain, traced) in sorted(by_workload.items()):
        if not plain:
            continue
        result[w] = {"seeds": sorted(r["seed"] for r in plain),
                     "source": sorted({r["commit"] or r["src_sha256"] for r in plain}),
                     "machine": dict(plain[0]["machine"], python=plain[0]["python"],
                                     numpy=plain[0]["numpy"]),
                     "metrics": summarize(plain)}
        if traced:
            result[w]["traced_seeds"] = sorted(r["seed"] for r in traced)
            result[w]["per_layer"] = summarize(traced)
    if args.json:
        print(json.dumps({"workloads": result}, indent=1))
        return
    for workload, entry in result.items():
        print(f"{workload}: seeds {entry['seeds']}")
        for name, s in entry["metrics"].items():
            print(f"  {name}: n={s['n']} median={s['median']:.4g} "
                  f"q1={s['q1']:.4g} q3={s['q3']:.4g} spread={s['spread']:.3f}")


if __name__ == "__main__":
    main()
