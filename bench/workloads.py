"""The three benchmark workloads: inputs from a seed, then the timed calls.

Every workload makes only public library calls.  ``classify-all`` and
``identity-spaces`` are exhaustive, so the seed does not change them;
in ``analyze-algebras`` the seed picks the sign rescaling of T and the
two deformation-family members from pools of equal-cost choices (every
member makes the same 36 063 ``TwistedAlgebra.product`` calls per
fingerprint at the seed commit, because the counterexample search stops
at the same sample triples).
"""

from __future__ import annotations

import functools
import importlib
import random

WORKLOADS = ("classify-all", "analyze-algebras", "identity-spaces")

# (group, mode); each runs in both basis conventions: 2 244 candidates
CLASSIFY_RUNS = (
    ("Z2", "shaped"),
    ("Z2xZ2", "shaped"),
    ("Z4", "shaped"),
    ("Z2xZ2", "raw"),
    ("Z4", "raw"),
)

# Sign rescalings v_g -> s_g v_g of T with s_0 = 1.  The rescaled table is
# C'(a, b) = s_a s_b s_ab C(a, b); s and s * (1, -1, 1, -1) give the same
# table, so these three are all the nontrivial ones.
RESCALINGS = ((1, 1, 1, -1), (1, 1, -1, 1), (1, 1, -1, -1))

# (family, k): every family at two non-unit rational constants, all in range
DEFORM_POOL = tuple((family, k) for family in range(1, 9) for k in (2, 3))

IDENTITY_PATTERNS = (
    ("T", (6,)),
    ("T", (2, 2)),
    ("T", (3, 2)),
    ("T", (4, 1)),
    ("T", (2, 1, 1)),
    ("H", (3, 2)),
    ("H", (2, 2, 1)),
)


def _mod(name):
    return importlib.import_module(f"twistdiv.{name}")


def capture_loop_results():
    """Keep the loop-law results that ``non_isomorphism_fingerprint``
    computes, so their counterexamples can be checked afterwards without
    running the suite a second time.  Costs one call frame per algebra."""
    classify = _mod("classify")
    original = classify.loop_property_suite
    results = []

    def capture(algebra):
        props = original(algebra)
        results.append(props)
        return props

    classify.loop_property_suite = capture
    return results


def rescaled(algebra, signs):
    group = algebra.group
    c = algebra.constant
    values = [
        [signs[a] * signs[b] * signs[group.mul(a, b)] * c(a, b)
         for b in range(group.order)]
        for a in range(group.order)
    ]
    algebra_mod = _mod("algebra")
    constant = algebra_mod.StructureConstant(group, values, c.convention)
    return algebra_mod.TwistedAlgebra(constant, algebra.ring)


def build(workload, seed):
    """Inputs for one repetition; deterministic in (workload, seed)."""
    algebra = _mod("algebra")
    groups = _mod("groups")
    if workload == "classify-all":
        return [
            (groups.group_by_name(g), convention, mode)
            for g, mode in CLASSIFY_RUNS
            for convention in groups.CONVENTIONS
        ]
    named = {"T": algebra.tesseranion_algebra(), "H": algebra.quaternion_algebra()}
    if workload == "identity-spaces":
        return [(name, named[name], pattern) for name, pattern in IDENTITY_PATTERNS]
    if workload == "analyze-algebras":
        rng = random.Random(seed)
        signs = rng.choice(RESCALINGS)
        members = rng.sample(DEFORM_POOL, 2)
        deform = _mod("deform")
        # (label, algebra, key of its pinned results in bench/checks.py)
        algebras = [("H", named["H"], "H"), ("T", named["T"], "T"),
                    (f"T*{signs}", rescaled(named["T"], signs), "T")]
        for family, k in members:
            algebras.append((f"family{family}(k={k})",
                             deform.family_constant(family, k).algebra(), family))
        return {"algebras": algebras, "loop_results": capture_loop_results()}
    raise ValueError(f"unknown workload {workload!r}")


def _analyze(alg):
    classify = _mod("classify")
    structure = _mod("structure")
    fingerprint = classify.non_isomorphism_fingerprint(alg)
    chirality = structure.chiral_inverse_check(alg)
    lie = structure.commutator_algebra(alg)
    return {
        "fingerprint": fingerprint,
        "chirality": chirality,
        "derived": structure.series(lie, structure.DERIVED),
        "lower_central": structure.series(lie, structure.LOWER_CENTRAL),
        "jacobi": structure.jacobi_check(lie),
    }


def units(workload, inputs):
    """The timed calls as (label, thunk) pairs, in order."""
    if workload == "classify-all":
        classify = _mod("classify")
        return [(f"{g.name} {mode} {convention}",
                 functools.partial(classify.classify, g, convention, mode))
                for g, convention, mode in inputs]
    if workload == "identity-spaces":
        identities = _mod("identities")
        return [(f"{name} {pattern}",
                 functools.partial(identities.identity_space, alg, pattern))
                for name, alg, pattern in inputs]
    return [(label, functools.partial(_analyze, alg))
            for label, alg, _ in inputs["algebras"]]
