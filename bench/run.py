"""twistdiv benchmark: certified workloads timed end to end, traced per layer.

    python3 bench/run.py --workload classify-all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; it needs ``src/twistdiv`` and
``BENCHMARK.json`` there and nothing installed.  A run is a series of
rounds.  Each round times a few fresh interpreters importing
``twistdiv`` and all its submodules (set-up), then one repetition of
the workload in a fresh single-threaded interpreter
(``bench/workload.py``) with ``TWISTDIV_THREADS`` unset.  A new round
starts only if a round as long as the longest so far still fits in
``--seconds``; the first round always runs, so a run takes at least
one round.  Times are rescaled to the nominal CPU speed of
``bench/reference.py``: the integer loop, sampled in each set-up
interpreter around its imports, and the Fraction loop, sampled in the
workload's interpreter while its calls run.  The end-to-end metrics
are medians.  Every repetition's outputs are checked
outside its timed region.  With ``--trace 1`` the time of one more,
traced, repetition is kept free; it gives the per-layer metrics and
writes its spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
of the run (samples, machine, versions, source digest, checks) goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PER_ROUND = 3
SETUP_REF_SAMPLES = 3
# a traced repetition takes up to this many untraced ones
TRACE_COST = 1.3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("TWISTDIV_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv):
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(count):
    """Interpreter start through importing twistdiv and every submodule,
    ``count`` times.  Each child samples the reference loop just before
    and just after its imports; the sampling is taken out of its time,
    which is rescaled by the mean of the samples."""
    names = sorted(
        p.stem for p in (ROOT / "src" / "twistdiv").glob("*.py")
        if p.stem not in ("__init__", "__main__")
    )
    refs = f"sorted(reference.integer_sample() for _ in range({SETUP_REF_SAMPLES}))"
    code = "\n".join((
        "import sys, time",
        "start = time.perf_counter()",
        f"sys.path.insert(0, {str(BENCH)!r})",
        "import reference",
        "sys.path.pop(0)",
        f"before = {refs}",
        "resume = time.perf_counter()",
        "import twistdiv, " + ", ".join(f"twistdiv.{n}" for n in names),
        "done = time.perf_counter()",
        f"after = {refs}",
        f"print(start, resume, done, before[{SETUP_REF_SAMPLES // 2}], "
        f"after[{SETUP_REF_SAMPLES // 2}])",
    ))
    samples = []
    for _ in range(count):
        # perf_counter is the system-wide monotonic clock, shared with the child
        t0 = time.perf_counter()
        out = run_child(["-c", code]).split()[-5:]
        start, resume, done, before, after = map(float, out)
        raw = done - t0 - (resume - start)
        ref = (before + after) / 2
        samples.append({"raw_s": raw, "ref_s": ref,
                        "s": raw * reference.INTEGER_NOMINAL_S / ref})
    return samples


def repetition(workload, seed, trace, spans=None):
    argv = [str(BENCH / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if spans:
        argv += ["--spans", str(spans)]
    lines = run_child(argv).strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: the repetition printed nothing")
    return json.loads(lines[-1])


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return commit, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "twistdiv" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"{ROOT} is not a twistdiv checkout with BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    layer_map = json.loads((BENCH / "layers.json").read_text())
    OUT.mkdir(exist_ok=True)

    setup, reps, round_s = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup += setup_seconds(SETUP_PER_ROUND)
        reps.append(repetition(args.workload, args.seed, 0))
        round_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        longest = max(round_s)
        reserve = TRACE_COST * longest if args.trace else 0.0
        if elapsed + longest + reserve > args.seconds:
            break
    wall = statistics.median(r["wall_s"] for r in reps)
    norm_wall = statistics.median(r["norm_wall_s"] for r in reps)
    measured = {
        "norm_wall_s": norm_wall,
        "setup_s": statistics.median(s["s"] for s in setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    runs = list(reps)
    traced = None
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        traced = repetition(args.workload, args.seed, 1, spans)
        runs.append(traced)
        layers = traced["layers"]
        measured.update({
            "process.wall_s": wall,
            "process.cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "process.cpu_util": statistics.median(r["cpu_s"] / r["wall_s"] for r in reps),
            "process.trace_overhead_s": traced["norm_wall_s"] - norm_wall,
        })
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        name = m["name"]
        value = measured[name] if name in measured else tracing.metric_value(layers, name)
        metrics[name] = {"value": value, "unit": m["unit"]}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    commit, src_sha256 = source_identity()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_effect": layer_map["workloads"][args.workload]["seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0))},
        "python": reps[0]["python"],
        "numpy": reps[0]["numpy"],
        "TWISTDIV_THREADS": reps[0]["TWISTDIV_THREADS"],
        "commit": commit,
        "src_sha256": src_sha256,
        "setup_samples": setup,
        "round_s": round_s,
        "elapsed_s": time.perf_counter() - start,
        "repetitions": [{k: r[k] for k in ("wall_s", "norm_wall_s", "ref_s",
                                           "cpu_s", "peak_rss_mb", "samples",
                                           "attempted", "failed", "unit_s")}
                        for r in reps],
        "check_failures": [m for r in runs for m in r["messages"]],
        "metrics": metrics,
    }
    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"commit {commit}, src {src_sha256[:12]}, nproc {os.cpu_count()}, "
          f"python {record['python']}, numpy {record['numpy']}, "
          f"TWISTDIV_THREADS {record['TWISTDIV_THREADS']}")
    if traced is not None:
        record["layers"] = layers
        dominant = layer_map["dominant"][args.workload]
        share = sum(tracing.metric_value(layers, m) for m in dominant)
        record["dominant"] = {"metrics": dominant, "s": share,
                              "traced_wall_s": traced["wall_s"]}
        print(f"# predicted dominant layer {' + '.join(dominant)}: "
              f"{share:.3f} s of {traced['wall_s']:.3f} s traced "
              f"({100 * share / traced['wall_s']:.0f}%)")
        overhead = traced["norm_wall_s"] / norm_wall - 1
        print(f"# tracing overhead {100 * overhead:.0f}% of norm_wall_s "
              f"({traced['norm_wall_s']:.3f} s traced, {norm_wall:.3f} s untraced)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for message in record["check_failures"]:
        print(f"# CHECK FAILED: {message}")
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
