"""The benchmark's tracer wraps library functions by name, so renaming or
deleting one of them breaks a traced benchmark run.  Installing the
tracer over the real package here catches that in the test suite."""

import importlib.util
from pathlib import Path

from twistdiv import _linalg, poly

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_over_the_package():
    tracing = _load_tracing()
    originals = (poly.structured_probes, _linalg.rref)
    tracer = tracing.Tracer("tier1")
    try:
        tracing.install_all(tracer)
        assert (poly.structured_probes, _linalg.rref) != originals
        assert len(list(poly.structured_probes(3))) == 256
        assert tracer.stats["poly.structured_probes"].extra["points"] == 256
    finally:
        tracer.uninstall()
    assert (poly.structured_probes, _linalg.rref) == originals
