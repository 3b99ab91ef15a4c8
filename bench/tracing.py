"""Per-layer tracing from outside the package.

Each wrapper is installed in the namespace where the caller looks the
function up: ``twistdiv.classify`` does ``from .poly import
find_sign_change``, so the wrapper goes on
``twistdiv.classify.find_sign_change``; operators such as
``MultiPoly.__mul__`` are wrapped on the class.

Calls at layer boundaries become spans (name, start, end, parent span,
run id), kept in memory and written when the run ends.  Hot leaf
operations only bump a call counter and a time total, so they cost no
span objects.  A span's self time is its duration minus the time of
its child spans and of the outermost leaf operations run directly
under it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

class Stat:
    """Totals for one traced name; ``s`` is inclusive time, counted once
    per outermost call when a name nests inside itself."""

    __slots__ = ("calls", "s", "self_s", "hits", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.extra = defaultdict(int)


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # (span id, parent id, name, start, end, self_s, run id)
        self.stats = defaultdict(Stat)
        self._stack = []  # open spans: [span id, child time]
        self._open = defaultdict(int)  # name -> open spans with that name
        self._leaf_depth = 0
        self._next_id = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, hit=None, label=None, on_result=None,
             on_args=None):
        """Wrap ``owner.attr`` in a span named ``name``.

        ``label(args, kwargs)`` may pick the name per call, ``hit(result)``
        counts useful outcomes, ``on_args(stat, args)`` and
        ``on_result(stat, result)`` add extra counters.
        """
        fn = getattr(owner, attr)
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sname = label(args, kwargs) if label else name
            stat = tracer.stats[sname]
            if on_args is not None:
                on_args(stat, args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            tracer._open[sname] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._open[sname] -= 1
                dur = end - start
                own = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                stat.calls += 1
                stat.self_s += own
                if not tracer._open[sname]:
                    stat.s += dur
                tracer.spans.append((
                    sid, parent[0] if parent is not None else None, sname,
                    start, end, own, tracer.run_id,
                ))
            if hit is not None and hit(result):
                stat.hits += 1
            if on_result is not None:
                on_result(stat, result)
            return result

        self._patch(owner, attr, wrapper)

    def leaf(self, owner, attr, name):
        """Counter and time total only; no span object per call."""
        fn = getattr(owner, attr)
        stat = self.stats[name]
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._leaf_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                tracer._leaf_depth -= 1
                stat.calls += 1
                stat.s += dur
                if not tracer._leaf_depth and tracer._stack:
                    tracer._stack[-1][1] += dur

        self._patch(owner, attr, wrapper)

    def counting_generator(self, owner, attr, name, key):
        """Count the items a generator function yields into ``extra[key]``."""
        fn = getattr(owner, attr)
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            for item in fn(*args, **kwargs):
                stat.extra[key] += 1
                yield item

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_records(self):
        keys = ("id", "parent", "name", "start", "end", "self_s", "run")
        return [dict(zip(keys, s)) for s in self.spans]

    def layers(self):
        """Totals per traced name, as plain data."""
        return {
            name: {"calls": st.calls, "s": st.s, "self_s": st.self_s,
                   "hits": st.hits, **st.extra}
            for name, st in sorted(self.stats.items())
        }


def metric_value(layers, metric):
    """Value of a per-layer metric such as ``linalg.rref.cells``, from
    the totals of ``Tracer.layers``; names a run never called read 0."""
    if metric == "structure.s":
        return sum(v["s"] for n, v in layers.items() if n.startswith("structure."))
    if metric == "identities.counterexample_coverage":
        suite = layers.get("identities.loop_property_suite", {})
        failed = suite.get("failed_laws", 0)
        return suite.get("covered_laws", 0) / failed if failed else 0.0
    name, _, field = metric.rpartition(".")
    return layers.get(name, {}).get(field, 0)


def _not_none(result):
    return result is not None


def _rref_cells(stat, args):
    rows = args[0]
    stat.extra["cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _sign_change_label(args, kwargs):
    grid = kwargs.get("use_grid", args[4] if len(args) > 4 else True)
    return "poly.find_sign_change." + ("grid" if grid else "probe")


def _count_verdicts(stat, report):
    for _, witness in report.rejected:
        kind = type(witness).__name__
        key = {"SignChangeWitness": "sign_change",
               "RealRootRejection": "line_root"}.get(kind, kind)
        stat.extra[key] += 1
    stat.extra["survivor"] += len(report.survivors)
    stat.extra["undetermined"] += len(report.undetermined)


_LOOP_LAWS = ("flexible", "power_associative", "alternative", "left_bol",
              "right_bol", "moufang", "commutative", "associative")


def _count_laws(stat, props):
    """Failed loop laws, and those among them that carry a counterexample."""
    for law in _LOOP_LAWS:
        if getattr(props, law):
            continue
        stat.extra["failed_laws"] += 1
        keys = (("left_alternative", "right_alternative")
                if law == "alternative" else (law,))
        stat.extra["covered_laws"] += any(k in props.counterexamples for k in keys)


def install_all(tracer):
    """Wrap the public calls into the classify, poly, algebra, identities,
    _linalg and structure layers."""
    classify = importlib.import_module("twistdiv.classify")
    poly = importlib.import_module("twistdiv.poly")
    algebra = importlib.import_module("twistdiv.algebra")
    identities = importlib.import_module("twistdiv.identities")
    linalg = importlib.import_module("twistdiv._linalg")
    structure = importlib.import_module("twistdiv.structure")

    # classify layer
    tracer.span(classify, "classify", "classify.classify",
                on_result=lambda st, r: _count_verdicts(tracer.stats["classify.verdict"], r))
    tracer.span(classify, "det_polynomials", "classify.det_polynomials")
    tracer.span(classify, "line_root_rejection", "classify.line_root_rejection",
                hit=_not_none)
    tracer.span(classify, "non_isomorphism_fingerprint",
                "classify.non_isomorphism_fingerprint")

    # poly layer, wrapped where classify and structure look it up
    tracer.span(classify, "find_sign_change", None, label=_sign_change_label,
                hit=_not_none)
    tracer.span(classify, "find_diagonal_sos", "poly.find_diagonal_sos",
                hit=_not_none)
    tracer.span(classify, "find_psd_sos", "poly.find_psd_sos")
    tracer.span(classify, "isolate_real_root", "poly.isolate_real_root")
    for owner in (classify, structure):
        tracer.span(owner, "symbolic_det", "poly.symbolic_det")
    for owner in (classify, poly):
        tracer.leaf(owner, "count_real_roots", "poly.count_real_roots")
    tracer.counting_generator(poly, "structured_probes", "poly.structured_probes",
                              "points")
    multipoly = poly.MultiPoly
    tracer.leaf(multipoly, "evaluate", "poly.MultiPoly.evaluate")
    tracer.leaf(multipoly, "specialize", "poly.MultiPoly.specialize")
    tracer.leaf(multipoly, "__mul__", "poly.MultiPoly.mul")
    tracer.leaf(multipoly, "__rmul__", "poly.MultiPoly.mul")

    # algebra layer
    twisted = algebra.TwistedAlgebra
    tracer.leaf(twisted, "product", "algebra.product")
    tracer.leaf(twisted, "mult_matrix_left", "algebra.mult_matrix")
    tracer.leaf(twisted, "mult_matrix_right", "algebra.mult_matrix")

    # identities layer
    tracer.span(classify, "loop_property_suite", "identities.loop_property_suite",
                on_result=_count_laws)
    for owner in (classify, identities):
        tracer.span(owner, "identity_space", "identities.identity_space")
    tracer.span(identities, "verify_identity", "identities.verify_identity")

    # _linalg layer, named "linalg" since metric names start with a letter;
    # callers use module attributes, so one wrapper each
    tracer.span(linalg, "rref", "linalg.rref", on_args=_rref_cells)
    tracer.span(linalg, "nullspace", "linalg.nullspace")
    tracer.span(linalg, "solve", "linalg.solve")

    # structure layer
    for fn in ("commutator_algebra", "series", "jacobi_check",
               "chiral_inverse_check"):
        tracer.span(structure, fn, f"structure.{fn}")
