"""Tests of the benchmark's own files; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import threading
import time
import types
from pathlib import Path

import jsonschema
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
import workloads  # noqa: E402

NAME = {"type": "string", "pattern": r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"}
UNIT = {"type": "string", "pattern": r"^[A-Za-z0-9_/%.-]{1,16}$"}
BETTER = {"enum": ["lower", "higher"]}

BENCHMARK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
    "properties": {
        "command": {"type": "array", "minItems": 1, "maxItems": 32,
                    "items": {"type": "string", "maxLength": 200,
                              "not": {"pattern": r"^/|(^|/)\.\.(/|$)"}}},
        "paths": {"type": "array", "minItems": 1, "maxItems": 16,
                  "items": {"type": "string", "pattern": r"^[A-Za-z0-9_.\-/]{1,200}$",
                            "not": {"pattern": r"^/|(^|/)\.\.(/|$)"}}},
        "run_seconds": {"type": "integer", "minimum": 1, "maximum": 60},
        "workloads": {"type": "array", "minItems": 2, "maxItems": 8, "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "why"],
            "properties": {"name": NAME,
                           "why": {"type": "string", "maxLength": 200,
                                   "pattern": r"^[^\n]+$"}}}},
        "end_to_end": {"type": "array", "minItems": 1, "maxItems": 16, "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "unit", "better", "bound"],
            "properties": {"name": NAME, "unit": UNIT, "better": BETTER,
                           "bound": {"type": "number", "exclusiveMinimum": 0,
                                     "maximum": 0.25}}}},
        "per_layer": {"type": "array", "minItems": 1, "maxItems": 128, "items": {
            "type": "object", "additionalProperties": False,
            "required": ["name", "unit", "better"],
            "properties": {"name": NAME, "unit": UNIT, "better": BETTER}}},
    },
}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def layer_map():
    return json.loads((BENCH / "layers.json").read_text())


def test_benchmark_json_meets_the_contract(spec):
    jsonschema.validate(spec, BENCHMARK_SCHEMA)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()


def test_layer_map_covers_every_per_layer_metric(spec, layer_map):
    per_layer = [m["name"] for m in spec["per_layer"]]
    mapped = [n for row in layer_map["mapping"] for n in row["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    assert set(layer_map["workloads"]) == set(workloads.WORKLOADS)
    for row in layer_map["mapping"]:
        assert set(row["workloads"]) <= set(workloads.WORKLOADS)
    for metrics in layer_map["dominant"].values():
        assert set(metrics) <= set(per_layer)
    for name in per_layer:
        assert isinstance(tracing.metric_value({}, name), (int, float))


def test_baseline_covers_every_workload_and_end_to_end_metric(spec):
    baseline = json.loads((BENCH / "baseline.json").read_text())
    for w in workloads.WORKLOADS:
        for m in spec["end_to_end"]:
            entry = baseline["workloads"][w]["metrics"][m["name"]]
            assert entry["q1"] <= entry["median"] <= entry["q3"]


def test_tracer_self_time_and_uninstall():
    def leaf(x):
        time.sleep(0.02)
        return x

    ns = types.SimpleNamespace(leaf=leaf)

    def inner(x):
        time.sleep(0.01)
        return ns.leaf(x)

    ns.inner = inner

    def outer(x):
        return ns.inner(x) + ns.inner(x)

    ns.outer = outer
    originals = dict(vars(ns))
    tracer = tracing.Tracer("test")
    tracer.span(ns, "outer", "t.outer")
    tracer.span(ns, "inner", "t.inner", hit=lambda r: r > 1)
    tracer.leaf(ns, "leaf", "t.leaf")
    assert ns.outer(2) == 4
    layers = tracer.layers()
    tracer.uninstall()
    assert dict(vars(ns)) == originals
    assert layers["t.outer"]["calls"] == 1
    assert layers["t.inner"]["calls"] == 2 and layers["t.inner"]["hits"] == 2
    assert layers["t.leaf"]["calls"] == 2
    # inner's self time excludes the leaf; outer's excludes both inner spans
    assert layers["t.inner"]["self_s"] < layers["t.inner"]["s"] - 0.03
    assert layers["t.outer"]["self_s"] < 0.01
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["t.inner", "t.inner", "t.outer"]
    root = spans[-1]["id"]
    assert spans[0]["parent"] == spans[1]["parent"] == root
    assert all(s["run"] == "test" for s in spans)


def test_checks_catch_a_tampered_witness():
    inputs = [i for i in workloads.build("classify-all", 0) if i[0].name == "Z2xZ2"
              and i[2] == "shaped"]
    reports = [fn() for _, fn in workloads.units("classify-all", inputs)]
    tally = checks.check("classify-all", inputs, reports, 0)
    assert tally.attempted == 2 * 33 and tally.failed == 0
    cand, w = reports[0].rejected[0]
    bad = dataclasses.replace(w, positive_value=w.positive_value + 1)
    reports[0].rejected[0] = (cand, bad)
    tally = checks.check("classify-all", inputs, reports, 0)
    assert tally.failed == 1 and "does not verify" in tally.messages[0]


def test_analyze_inputs_follow_the_seed():
    labels = [[a[0] for a in workloads.build("analyze-algebras", seed)["algebras"]]
              for seed in (1, 1, 2)]
    assert labels[0] == labels[1]
    assert labels[0][:2] == ["H", "T"] and len(labels[0]) == 5


def _spin(seconds):
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        pass


def test_reference_is_sampled_only_while_the_process_runs_alone(monkeypatch):
    """Threads of the library, here TWISTDIV_THREADS=2 in classify and a
    thread that holds the interpreter lock for a second, would slow the
    reference loop and so shrink norm_wall_s; no sample is taken then."""
    alive = []

    def spy(real=reference.fraction_sample):
        alive.append(threading.active_count())
        return real()

    def in_a_thread():
        worker = threading.Thread(target=_spin, args=(1.0,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    monkeypatch.setattr(reference, "fraction_sample", spy)
    monkeypatch.setenv("TWISTDIV_THREADS", "2")
    classify = importlib.import_module("twistdiv.classify")
    groups = importlib.import_module("twistdiv.groups")
    calls = [
        ("classify, 2 threads", functools.partial(
            classify.classify, groups.group_by_name("Z4"), groups.CONVENTIONS[0],
            "shaped")),
        ("a second in a thread", in_a_thread),
        ("a second alone", functools.partial(_spin, 1.0)),
    ]
    sampler = workload.Sampler()
    outputs, wall_s, _ = workload.measure(calls, sampler)
    assert len(outputs[0].survivors) == 1
    assert set(alive) == {1}
    # one before and one after the calls, and some while the last runs
    assert len(sampler.samples) == len(alive) >= 3
    assert wall_s[1] >= 1.0 and wall_s[2] < 1.0
