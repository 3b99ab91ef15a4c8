import dataclasses
import hashlib
import importlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistdiv
from twistdiv.acceptance import criterion_1
from twistdiv.algebra import (
    TABLE_COMPLEX,
    TABLE_QUATERNION,
    TABLE_TESSERANION,
    StructureConstant,
    TwistedAlgebra,
    quaternion_algebra,
    tesseranion_algebra,
)
from twistdiv.classify import (
    RAW,
    SHAPED,
    RealRootRejection,
    SurvivorCertificate,
    classify,
    det_polynomial,
    det_polynomials,
    enumerate_candidates,
    non_isomorphism_fingerprint,
    odd_order_zero_divisor,
    verify_verdict,
)
from twistdiv.deform import TES_PARAMS, family_constant, parametric_constant
from twistdiv.groups import (
    CONVENTIONS,
    LEFT_STANDARD,
    RIGHT_STANDARD,
    cyclic,
    group_by_name,
)
from twistdiv.poly import (
    MultiPoly,
    SignChangeWitness,
    SosCertificate,
    certifies_positive_definite,
    count_real_roots,
    indeterminates,
    symbolic_det,
    verify_sos,
)

# the package re-exports the function ``classify`` under the module's name
CLASSIFY = importlib.import_module("twistdiv.classify")
POLY = importlib.import_module("twistdiv.poly")


def test_enumerate_counts():
    assert len(enumerate_candidates("Z2", LEFT_STANDARD, SHAPED)) == 2
    assert len(enumerate_candidates("Z2xZ2", RIGHT_STANDARD, SHAPED)) == 32
    assert len(enumerate_candidates("Z4", LEFT_STANDARD, SHAPED)) == 64
    assert len(enumerate_candidates("Z4", LEFT_STANDARD, RAW)) == 512
    assert len(enumerate_candidates("Z2", LEFT_STANDARD, RAW)) == 2
    with pytest.raises(ValueError):
        enumerate_candidates("Z8", LEFT_STANDARD, SHAPED)


def test_shaped_candidates_have_table_shape():
    for cand in enumerate_candidates("Z4", LEFT_STANDARD, SHAPED):
        v = cand.constant.values
        assert v[1][1] == 1 and v[1][2] == 1 and v[2][2] == -1
        params = cand.parameter_map
        assert v[1][3] == params["alpha"]
        assert v[2][1] == params["beta"]
        assert v[2][3] == params["delta"]
        assert v[3][1] == params["epsilon"]
        assert v[3][2] == params["phi"]
        assert v[3][3] == params["omega"]
    for cand in enumerate_candidates("Z2xZ2", RIGHT_STANDARD, SHAPED):
        v = cand.constant.values
        assert v[1][1] == v[2][2] == v[3][3] == -1
        assert v[1][2] == 1


@pytest.mark.parametrize("group", sorted(CLASSIFY.SHAPES))
def test_a_mirrored_shaped_table_is_the_transpose_of_the_written_one(group):
    """For every shape and parameter assignment, ``shaped_constant`` in
    the other convention equals the written table's ``transpose()`` in
    values, value types and convention."""
    written_in, _ = CLASSIFY.SHAPES[group]
    other = RIGHT_STANDARD if written_in == LEFT_STANDARD else LEFT_STANDARD
    names = CLASSIFY.shape_parameters(group)
    for signs in itertools.product((1, -1), repeat=len(names)):
        params = dict(zip(names, signs))
        written = CLASSIFY.shaped_constant(group, params, written_in)
        mirrored = CLASSIFY.shaped_constant(group, params, other)
        expected = written.transpose()
        assert written.convention == written_in
        assert mirrored.convention == expected.convention == other
        assert mirrored.values == expected.values
        assert repr(mirrored.values) == repr(expected.values)


# The benchmark's classify-all pass: shaped Z2, Z2xZ2, Z4 and raw Z2xZ2,
# Z4, each in both conventions.
CLASSIFY_ALL = [(group, convention, mode)
                for group, mode in [("Z2", SHAPED), ("Z2xZ2", SHAPED),
                                    ("Z4", SHAPED), ("Z2xZ2", RAW), ("Z4", RAW)]
                for convention in CONVENTIONS]


def test_a_classify_all_pass_builds_one_constant_per_candidate(monkeypatch):
    """2 + 32 + 64 + 512 + 512 candidates per convention: a mirrored
    shaped table is written directly, not built and then transposed."""
    built = []
    init = StructureConstant.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StructureConstant, "__init__", counting)
    examined = sum(classify(*run).candidates_examined for run in CLASSIFY_ALL)
    assert examined == len(built) == 2244


def test_classify_z2():
    rep = classify("Z2", LEFT_STANDARD, SHAPED)
    assert rep.counts() == {
        "examined": 2, "rejected": 1, "survivors": 1, "undetermined": 0,
    }
    cand, cert = rep.survivors[0]
    assert cand.constant.values == TABLE_COMPLEX
    assert cand.parameter_map == {"alpha": -1}
    assert cert.kind == "positive-definite-sos"
    # the alpha = +1 reject carries a nonpositive point
    _, witness = rep.rejected[0]
    assert isinstance(witness, SignChangeWitness)


def test_classify_klein_right():
    rep = classify("Z2xZ2", RIGHT_STANDARD, SHAPED)
    assert rep.counts() == {
        "examined": 32, "rejected": 31, "survivors": 1, "undetermined": 0,
    }
    assert rep.survivors[0][0].constant.values == TABLE_QUATERNION
    assert all(isinstance(w, SignChangeWitness) for _, w in rep.rejected)


def test_classify_z4_left():
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    assert rep.counts() == {
        "examined": 64, "rejected": 63, "survivors": 1, "undetermined": 0,
    }
    assert rep.survivors[0][0].constant.values == TABLE_TESSERANION
    sign = [w for _, w in rep.rejected if isinstance(w, SignChangeWitness)]
    root = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    assert len(sign) == 62 and len(root) == 1
    cand, witness = root[0]
    assert cand.parameter_map == {
        "alpha": -1, "beta": 1, "delta": -1, "epsilon": -1, "phi": -1, "omega": -1,
    }
    det_l, _ = det_polynomials(cand.constant)
    assert witness.verify(det_l)


# the classify-all runs: shaped Z2, Z2xZ2 and Z4, raw Z2xZ2 and Z4, each
# in both conventions
CLASSIFY_ALL = [
    (group, convention, mode)
    for group, mode in (("Z2", SHAPED), ("Z2xZ2", SHAPED), ("Z4", SHAPED),
                        ("Z2xZ2", RAW), ("Z4", RAW))
    for convention in CONVENTIONS
]


def test_classify_runs_no_psd_search_and_the_helper_certifies_each_line_root(
    monkeypatch,
):
    """The 10 classify-all runs reject 10 tables by a line root and make
    no ``find_psd_sos`` call: the Sturm-certified root decides each.
    ``psd_certificate`` then looks the search up where classify does, and
    its certificate is an exact SOS identity for each table's det M^L
    that does not prove it positive definite (it has real zeros off 0)."""
    calls = []
    search = CLASSIFY.find_psd_sos

    def counting(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(CLASSIFY, "find_psd_sos", counting)
    roots = [
        cand
        for run in CLASSIFY_ALL
        for cand, w in classify(*run).rejected
        if isinstance(w, RealRootRejection)
    ]
    assert len(roots) == 10 and calls == []
    for cand in roots:
        det_l = det_polynomial(cand.constant)
        cert = CLASSIFY.psd_certificate(cand.constant)
        assert cert is not None and verify_sos(det_l, cert)
        assert not certifies_positive_definite(det_l, cert)
    assert len(calls) == 10


def test_line_root_verify_is_false_on_an_interval_without_a_root():
    """The coefficients match, but (0, 1] holds no root of (t^2 - 2)^2:
    the Sturm count over the interval, not over the line, must decide."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (cand, witness), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    det_l = det_polynomials(cand.constant)[0]
    assert witness.coefficients == (4, 0, -4, 0, 1) and witness.verify(det_l)
    assert count_real_roots(list(witness.coefficients)) == 2
    moved = RealRootRejection(
        witness.position, witness.base, witness.coefficients,
        (Fraction(0), Fraction(1)), witness.root_count,
    )
    assert moved.verify(det_l) is False


def test_line_root_verify_is_false_on_a_survivor_line():
    """On a survivor's det M^L no line restriction has a real root, so a
    witness with the true coefficients and a wide interval still fails."""
    cand, _ = classify("Z4", LEFT_STANDARD, SHAPED).survivors[0]
    det_l = det_polynomials(cand.constant)[0]
    coeffs = CLASSIFY._restrict_to_line(det_l, 0, (1, 0, -1))
    assert len(coeffs) > 1 and count_real_roots(coeffs) == 0
    forged = RealRootRejection(
        0, (1, 0, -1), tuple(coeffs), (Fraction(-8), Fraction(8)), 1
    )
    assert forged.verify(det_l) is False
    assert verify_verdict(cand.constant, forged) is False


@pytest.mark.parametrize("base", [(0, 1, 1), (1, 0, 1)], ids=["zero", "constant"])
def test_line_root_verify_is_false_on_a_constant_restriction(base):
    """y1^2 y3^2 on a line along y0 is the zero polynomial where y1 = 0
    and the constant 1 where y1 = y3 = 1; verify answers False, not an
    error, though the Sturm core refuses the zero polynomial."""
    y = MultiPoly.variables(("y0", "y1", "y2", "y3"))
    p = y[1] * y[1] * y[3] * y[3]
    coeffs = CLASSIFY._restrict_to_line(p, 0, base)
    assert coeffs == [base[0]]
    interval = (Fraction(-1), Fraction(1))
    assert RealRootRejection(0, base, tuple(coeffs), interval, 1).verify(p) is False


@pytest.mark.parametrize(
    "empty", [lambda lo, hi: (hi, hi), lambda lo, hi: (hi, lo)],
    ids=["lo-equals-hi", "lo-above-hi"],
)
def test_line_root_verify_is_false_on_an_empty_interval(empty):
    """count_real_roots refuses lo > hi; verify answers False instead."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (cand, witness), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    det_l = det_polynomials(cand.constant)[0]
    changed = RealRootRejection(
        witness.position, witness.base, witness.coefficients,
        empty(*witness.interval), witness.root_count,
    )
    assert changed.verify(det_l) is False


@pytest.mark.parametrize(
    "line",
    [lambda w: (w.position, w.base + (1,)), lambda w: (-1, w.base),
     lambda w: (w.position, w.base[:2]), lambda w: (7, w.base)],
    ids=["4-entry-base", "position-minus-1", "2-entry-base", "position-7"],
)
def test_line_root_verify_rejects_malformed_witnesses(line):
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (cand, witness), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    det_l, _ = det_polynomials(cand.constant)
    assert witness.verify(det_l)
    position, base = line(witness)
    malformed = RealRootRejection(
        position, base, witness.coefficients, witness.interval, witness.root_count
    )
    assert malformed.verify(det_l) is False


def _restrict_by_specialize(det_poly, position, base):
    """The retired route to a line restriction, kept as an oracle: bind
    the other components with ``specialize`` and collect the coefficients
    by the exponent of the free one."""
    nvars = len(det_poly.vars)
    if not 0 <= position < nvars or len(base) != nvars - 1 or not any(base):
        return None
    others = [v for i, v in enumerate(det_poly.vars) if i != position]
    restricted = det_poly.specialize(dict(zip(others, base)))
    coeffs = [0] * (max((e[position] for e in restricted.terms), default=0) + 1)
    for e, c in restricted.terms.items():
        coeffs[e[position]] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_line_restriction_matches_the_specialize_oracle():
    """Every distinct det M^L and det M^R of raw Z2xZ2 and raw Z4 in both
    conventions and of the 32 criterion-12 deformation members, on every
    position, the 64 line bases of the search (the zero base among them)
    and the rational base (1/2, 1, 0): the same list with the same
    element types, None on a malformed line."""
    dets = {}
    for group in ("Z2xZ2", "Z4"):
        for convention in CONVENTIONS:
            for cand in enumerate_candidates(group, convention, RAW):
                for det in det_polynomials(cand.constant):
                    dets.setdefault(frozenset(det.terms.items()), det)
    for family in range(1, 9):
        for k in (Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2)):
            for det in det_polynomials(family_constant(family, k).constant()):
                dets.setdefault(frozenset(det.terms.items()), det)
    bases = list(itertools.product((1, 0, -1, 2), repeat=3))
    bases.append((Fraction(1, 2), 1, 0))
    lines = [(position, base) for position in range(4) for base in bases]
    lines += [(-1, (1, 1, 1)), (4, (1, 1, 1)), (0, (1, 1))]
    types = set()
    for det in dets.values():
        for position, base in lines:
            got = CLASSIFY._restrict_to_line(det, position, base)
            want = _restrict_by_specialize(det, position, base)
            assert got == want
            if want is None:
                assert got is None
                continue
            assert [type(c) for c in got] == [type(c) for c in want]
            types.update(map(type, got))
    assert types == {int, Fraction}


@pytest.fixture(scope="module")
def raw_z4_sign_change():
    """det M^L and the witness of the first raw Z4 sign-change rejection."""
    rep = classify("Z4", LEFT_STANDARD, RAW)
    cand, witness = next(
        (c, w) for c, w in rep.rejected if isinstance(w, SignChangeWitness)
    )
    return det_polynomials(cand.constant)[0], witness


@pytest.mark.parametrize(
    "change",
    [lambda w: {"positive_value": w.positive_value + 1},
     lambda w: {"nonpositive_value": w.nonpositive_value - 1},
     lambda w: {"positive_point": w.nonpositive_point,
                "nonpositive_point": w.positive_point},
     lambda w: {"nonpositive_point": (0,) * len(w.nonpositive_point),
                "nonpositive_value": 0}],
    ids=["positive-value", "nonpositive-value", "points-swapped", "origin"],
)
def test_sign_change_verify_rejects_changed_witnesses(raw_z4_sign_change, change):
    det_l, witness = raw_z4_sign_change
    assert witness.verify(det_l.evaluate)
    changed = dataclasses.replace(witness, **change(witness))
    assert changed.verify(det_l.evaluate) is False


def test_sign_change_verify_rejects_a_positive_point_at_a_zero(raw_z4_sign_change):
    """The witness's nonpositive point is a rational zero of det M^L off
    the origin.  Recorded as the positive point too, with its true value
    0, every value matches, but p(pos) > 0 fails."""
    det_l, witness = raw_z4_sign_change
    zero = witness.nonpositive_point
    assert any(zero) and det_l.evaluate(zero) == witness.nonpositive_value == 0
    changed = dataclasses.replace(
        witness, positive_point=zero, positive_value=Fraction(0)
    )
    assert changed.verify(det_l.evaluate) is False


@pytest.mark.parametrize("side", ["cert_left", "cert_right"])
def test_survivor_verify_fails_with_one_bad_side(side):
    """A survivor claims both determinants positive definite: with the
    first weight of one side doubled, that side's sum no longer matches
    while the other side still certifies, and verify must fail."""
    cand, cert = classify("Z4", LEFT_STANDARD, SHAPED).survivors[0]
    det_l, det_r = det_polynomials(cand.constant)
    (weight, base), *rest = getattr(cert, side).parts
    doubled = SosCertificate(((2 * weight, base), *rest))
    tampered = SurvivorCertificate(
        cert.kind,
        doubled if side == "cert_left" else cert.cert_left,
        doubled if side == "cert_right" else cert.cert_right,
    )
    assert (
        certifies_positive_definite(det_l, tampered.cert_left),
        certifies_positive_definite(det_r, tampered.cert_right),
    ) == ((False, True) if side == "cert_left" else (True, False))
    assert tampered.verify(det_l, det_r) is False


def test_survivor_verify_checks_each_certificate_on_its_own_side():
    """cert_left is over y and cert_right over x, so swapping them fails."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    cand, cert = rep.survivors[0]
    det_l, det_r = det_polynomials(cand.constant)
    assert cert.verify(det_l, det_r)
    swapped = SurvivorCertificate(cert.kind, cert.cert_right, cert.cert_left)
    assert swapped.verify(det_l, det_r) is False


@pytest.mark.parametrize(
    "group,convention,mode",
    [("Z4", LEFT_STANDARD, SHAPED), ("Z2xZ2", LEFT_STANDARD, RAW)],
    ids=["shaped-Z4", "raw-Z2xZ2"],
)
def test_verify_verdict_accepts_every_verdict(group, convention, mode):
    rep = classify(group, convention, mode)
    verdicts = rep.rejected + rep.survivors
    assert len(verdicts) == rep.candidates_examined
    assert all(verify_verdict(c.constant, v) for c, v in verdicts)


def test_verify_verdict_rejects_a_changed_verdict_of_each_kind():
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (root_cand, root), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    sign_cand, sign = next(
        (c, w) for c, w in rep.rejected if isinstance(w, SignChangeWitness)
    )
    survivor = rep.survivors[0][1]
    assert verify_verdict(sign_cand.constant, sign)
    assert verify_verdict(root_cand.constant, root)
    changed_sign = dataclasses.replace(sign, positive_value=sign.positive_value + 1)
    assert verify_verdict(sign_cand.constant, changed_sign) is False
    coefficients = (root.coefficients[0] + 1,) + root.coefficients[1:]
    changed_root = RealRootRejection(
        root.position, root.base, coefficients, root.interval, root.root_count
    )
    assert verify_verdict(root_cand.constant, changed_root) is False
    # the survivor's certificates do not prove a rejected table definite
    assert verify_verdict(sign_cand.constant, survivor) is False
    assert verify_verdict(sign_cand.constant, None) is False


def test_each_witness_writes_its_own_kind(raw_z4_sign_change):
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (_, root), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    assert root.to_json()["kind"] == "real-root-on-line"
    assert raw_z4_sign_change[1].to_json()["kind"] == "sign-change"


def test_psd_candidate_sos_identity():
    """The no-sign-change candidate's determinant is PSD with an exact
    SOS decomposition (``psd_certificate``), and its only rational zero
    is the origin on a dense grid."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (cand, _), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    det_l, det_r = det_polynomials(cand.constant)
    cert = CLASSIFY.psd_certificate(cand.constant)
    assert cert is not None and verify_sos(det_l, cert)
    assert det_l.terms == det_r.terms  # same polynomial in renamed variables
    import itertools

    for pt in itertools.product((-2, -1, 0, 1, 2), repeat=4):
        value = det_l.evaluate(pt)
        assert value >= 0
        if any(pt):
            assert value > 0


def test_witnesses_reproduce_signs():
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    for cand, witness in rep.rejected:
        det_l, _ = det_polynomials(cand.constant)
        if isinstance(witness, SignChangeWitness):
            assert det_l.evaluate(witness.positive_point) == witness.positive_value > 0
            got = det_l.evaluate(witness.nonpositive_point)
            assert got == witness.nonpositive_value and got <= 0
            assert any(witness.nonpositive_point)


def test_survivor_certificates_verify():
    for name, convention in [("Z2", LEFT_STANDARD), ("Z2xZ2", RIGHT_STANDARD),
                             ("Z4", LEFT_STANDARD)]:
        rep = classify(name, convention, SHAPED)
        cand, cert = rep.survivors[0]
        det_l, det_r = det_polynomials(cand.constant)
        assert verify_sos(det_l, cert.cert_left)
        assert verify_sos(det_r, cert.cert_right)


def test_survivor_mult_matrix_nonsingular_spot_check():
    """Nonsingular left multiplication at 100 random nonzero points."""
    rng = random.Random(55)
    for A in (quaternion_algebra(), tesseranion_algebra()):
        n = A.group.order
        count = 0
        while count < 100:
            y = A.element([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                           for _ in range(n)])
            if y.is_zero():
                continue
            assert _leibniz_det(A.mult_matrix_left(y)) != 0
            count += 1


def test_opposite_uniqueness():
    """Acceptance criterion 1 finds the mirrored convention's one survivor
    to be the transposed table for each shaped group."""
    passed, detail = criterion_1()
    assert passed and detail.count("survivors=1 transposed=True") == 3
    # Z2's survivor is its own transpose
    rep = classify("Z2", LEFT_STANDARD, SHAPED)
    c = rep.survivors[0][0].constant
    assert c.transpose().values == c.values


def test_raw_mode_pinned_counts():
    """Regression values pinned at first build."""
    rep = classify("Z4", LEFT_STANDARD, RAW)
    assert rep.counts() == {
        "examined": 512, "rejected": 508, "survivors": 4, "undetermined": 0,
    }
    kinds = {}
    for _, w in rep.rejected:
        kinds[type(w).__name__] = kinds.get(type(w).__name__, 0) + 1
    assert kinds == {"SignChangeWitness": 504, "RealRootRejection": 4}
    tables = {c.constant.values for c, _ in rep.survivors}
    assert TABLE_TESSERANION in {tuple(tuple(r) for r in t) for t in tables}
    # raw survivors all share the shaped survivor's identity fingerprint
    fp_t = non_isomorphism_fingerprint(tesseranion_algebra())
    for cand, _ in rep.survivors:
        fp = non_isomorphism_fingerprint(TwistedAlgebra(cand.constant))
        assert fp == fp_t


def test_raw_survivors_are_the_sign_rescaling_orbit():
    """The raw Z4 survivors are exactly the diagonal sign rescalings of
    the shaped survivor (v_g -> s_g v_g with s_e = 1)."""
    G = group_by_name("Z4")
    orbit = {
        tuple(map(tuple, _rescaled(G, TABLE_TESSERANION, (1,) + signs)))
        for signs in itertools.product((1, -1), repeat=3)
    }
    assert len(orbit) == 4  # rescalings act through a 2-element kernel
    rep = classify("Z4", LEFT_STANDARD, RAW)
    assert {c.constant.values for c, _ in rep.survivors} == orbit


def _rescaled(group, values, s):
    """C^s(a, b) = s_a s_b s_ab C(a, b), the table of the basis s_g v_g."""
    n = group.order
    return [
        [s[a] * s[b] * s[group.mul(a, b)] * values[a][b] for b in range(n)]
        for a in range(n)
    ]


def _flip(p, s):
    """p with every indeterminate v_b replaced by s_b v_b."""
    return MultiPoly(
        p.vars,
        {e: c * math.prod(si**k for si, k in zip(s, e)) for e, c in p.terms.items()},
    )


@settings(deadline=None)
@given(st.data())
def test_rescaling_substitutes_signs_into_both_determinants(data):
    group = group_by_name(data.draw(st.sampled_from(("Z4", "Z2xZ2"))))
    convention = data.draw(st.sampled_from(CONVENTIONS))
    signs = st.sampled_from((1, -1))
    values = [[1] * 4] + [[1] + [data.draw(signs) for _ in range(3)] for _ in range(3)]
    s = (1,) + tuple(data.draw(signs) for _ in range(3))
    det_l, det_r = det_polynomials(StructureConstant(group, values, convention))
    rescaled = StructureConstant(group, _rescaled(group, values, s), convention)
    assert det_polynomials(rescaled) == (_flip(det_l, s), _flip(det_r, s))


def test_symbolic_det_keeps_int_coefficients_and_fraction_scalars():
    for det in det_polynomials(tesseranion_algebra().constant):
        assert all(type(c) is int for c in det.terms.values())
    zero = symbolic_det([[0, 0], [0, 0]])
    assert zero == 0 and type(zero) is Fraction


def _matrix_det(constant, left):
    """det M^L or det M^R as ``symbolic_det`` of the multiplication matrix
    of a generic element: the oracle for the Leibniz table."""
    algebra = TwistedAlgebra(constant)
    (v,) = algebra.generic_elements("y" if left else "x")
    matrix = algebra.mult_matrix_left(v) if left else algebra.mult_matrix_right(v)
    return symbolic_det(matrix)


def _assert_leibniz_matches_matrix(constants):
    for constant in constants:
        for left in (True, False):
            assert det_polynomial(constant, left) == _matrix_det(constant, left)


def test_leibniz_determinants_match_the_matrix_route_on_every_raw_table():
    constants = [
        cand.constant
        for group in ("Z2", "Z2xZ2", "Z4")
        for convention in CONVENTIONS
        for cand in enumerate_candidates(group, convention, RAW)
    ]
    assert 2 * len(constants) == 4104
    _assert_leibniz_matches_matrix(constants)


def _sign_table(group, signs, convention=LEFT_STANDARD):
    """The unital table with ``signs`` in its non-unit cells, row by row."""
    m = group.order - 1
    rows = [[1] * (m + 1)] + [[1, *signs[a * m:(a + 1) * m]] for a in range(m)]
    return StructureConstant(group, rows, convention)


def test_leibniz_determinants_match_on_z3_and_larger_sign_tables():
    """Every Z3 sign table, and seeded sign tables of orders 6 and 8."""
    z3 = cyclic(3)
    constants = [_sign_table(z3, s) for s in itertools.product((1, -1), repeat=4)]
    rng = random.Random(20)
    for name, convention in (
        ("Z6", LEFT_STANDARD), ("Z6", RIGHT_STANDARD), ("D4", RIGHT_STANDARD),
        ("Q8", LEFT_STANDARD), ("Z2xZ2xZ2", LEFT_STANDARD),
    ):
        group = cyclic(6) if name == "Z6" else group_by_name(name)
        signs = [rng.choice((1, -1)) for _ in range((group.order - 1) ** 2)]
        constants.append(_sign_table(group, signs, convention))
    _assert_leibniz_matches_matrix(constants)


def test_leibniz_determinants_match_on_rational_deformation_members():
    """Families 1-8 at k = 2 and 3, whose cells are Fractions, and the
    eps = -1 probe of acceptance criterion 12."""
    probe = dict(TES_PARAMS)
    probe.update({"alpha": 1, "beta": 1, "delta": -1, "epsilon": -1})
    constants = [parametric_constant(probe)] + [
        family_constant(family, k).constant() for family in range(1, 9) for k in (2, 3)
    ]
    _assert_leibniz_matches_matrix(constants)


def _raw_leibniz_det(constant, left):
    """det M^L in y (``left``) or det M^R in x as the Leibniz sum over the
    table's own cells, Fractions as they are, with no kernel: the
    reference for ``det_polynomial``."""
    group, n = constant.group, constant.group.order
    v = MultiPoly.variables(indeterminates(("y" if left else "x",), n))
    rows = [[None] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        # M^L(y) has C(a, b) y_b at (ab, a); M^R(x) has x_a C(a, b) at (ab, b)
        cell = constant(a, b) * v[b if left else a]
        rows[group.mul(a, b)][a if left else b] = cell
    return _leibniz_det(rows)


def test_det_polynomial_matches_the_raw_leibniz_sum_on_deformation_members():
    """Families 1-8 at integral, half-integral, negative and large k: the
    narrowed cells give the polynomial of the raw Fraction cells."""
    for family in range(1, 9):
        for k in (2, 3, Fraction(1, 2), -2, 10):
            constant = family_constant(family, k).constant()
            assert any(type(c) is Fraction for row in constant.values for c in row)
            for left in (True, False):
                assert det_polynomial(constant, left) == _raw_leibniz_det(constant, left)


def test_sign_change_recheck_matches_the_determinant_polynomial():
    """The re-check's exact det M^L (``_linalg.det`` of the numeric
    matrix) equals det_polynomial evaluated at the same point, on seeded
    unital sign tables of orders 4 and 8 at integer and half-integer
    points: two routes that share no code agree."""
    rng = random.Random(24)
    values = (-2, -1, 0, 1, 2, Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2))
    for name in ("Z2xZ2", "Z4", "Z2xZ2xZ2", "Q8", "Z8"):
        group = group_by_name(name)
        for _ in range(3):
            signs = [rng.choice((1, -1)) for _ in range((group.order - 1) ** 2)]
            constant = _sign_table(group, signs, rng.choice(CONVENTIONS))
            det_l = det_polynomial(constant)
            value_at = CLASSIFY._det_left_at(constant)
            for _ in range(4):
                point = tuple(rng.choice(values) for _ in range(group.order))
                assert value_at(point) == det_l.evaluate(point)
            assert value_at((0,) * group.order) == 0
            assert value_at((1,) * (group.order - 1)) is None


def test_det_polynomial_keeps_int_and_fraction_coefficients():
    """Coefficients are ints on every raw sign table.  On a rational
    deformation member a coefficient is a Fraction exactly when one of
    its Leibniz products reads a non-integral cell: at k = 1/2 the
    Fraction cell 2 reads as an int.  The Leibniz tests compare with ==,
    which would not see the type drift."""
    for group in ("Z2", "Z2xZ2", "Z4"):
        for convention in CONVENTIONS:
            for cand in enumerate_candidates(group, convention, RAW):
                for det in det_polynomials(cand.constant):
                    assert {type(c) for c in det.terms.values()} == {int}
    for family in range(1, 9):
        constant = family_constant(family, Fraction(1, 2)).constant()
        flat = [v for row in constant.values for v in row]
        for left in (True, False):
            _, table = CLASSIFY._leibniz_table(constant.group, left)
            det = det_polynomial(constant, left)
            expected = {
                exponent: Fraction if any(
                    flat[i].denominator != 1 for _, idx in products for i in idx
                ) else int
                for exponent, products in table if exponent in det.terms
            }
            assert {e: type(c) for e, c in det.terms.items()} == expected
            assert Fraction in expected.values()


def test_sign_change_recheck_reads_no_leibniz_table_or_polynomial(monkeypatch):
    """The sign-change branch of ``verify_verdict`` stays independent of
    the search it checks: it builds no determinant polynomial."""
    rep = classify("Z4", LEFT_STANDARD, RAW)
    verdicts = [(c.constant, w) for c, w in rep.rejected
                if isinstance(w, SignChangeWitness)]

    def refuse(*args, **kwargs):
        raise AssertionError("the sign-change re-check built a polynomial")

    for name in ("_leibniz_table", "det_polynomial", "det_polynomials",
                 "symbolic_det"):
        monkeypatch.setattr(CLASSIFY, name, refuse)
    assert len(verdicts) == 504
    assert all(verify_verdict(c, w) for c, w in verdicts)


def test_line_root_and_survivor_rechecks_read_no_leibniz_table(monkeypatch):
    """The other branches of ``verify_verdict`` expand their determinants
    with ``symbolic_det``; none reads the Leibniz table of the search."""
    rep = classify("Z4", LEFT_STANDARD, RAW)
    verdicts = [(c.constant, w) for c, w in rep.rejected + rep.survivors
                if not isinstance(w, SignChangeWitness)]

    def refuse(*args, **kwargs):
        raise AssertionError("the re-check read the Leibniz table")

    for name in ("_leibniz_table", "det_polynomial", "det_polynomials"):
        monkeypatch.setattr(CLASSIFY, name, refuse)
    assert len(verdicts) == 8
    assert all(verify_verdict(c, w) for c, w in verdicts)


def test_verify_verdict_refuses_a_sign_change_at_a_doubled_point():
    """det M^L(2p) = 2^n det M^L(p), so a witness whose point is doubled
    but whose values are kept must fail: cleared denominators have to be
    divided back out, not dropped with a common factor."""
    rep = classify("Z4", LEFT_STANDARD, RAW)
    verdicts = [(c.constant, w) for c, w in rep.rejected
                if isinstance(w, SignChangeWitness)]
    assert any(any(type(x) is Fraction for x in w.positive_point)
               for _, w in verdicts)
    for constant, w in verdicts:
        doubled = dataclasses.replace(
            w, positive_point=tuple(2 * x for x in w.positive_point))
        assert verify_verdict(constant, doubled) is False
        halved = dataclasses.replace(
            w, positive_point=tuple(Fraction(x, 2) for x in w.positive_point))
        assert verify_verdict(constant, halved) is False
        short = dataclasses.replace(w, positive_point=w.positive_point[:-1])
        assert verify_verdict(constant, short) is False


@pytest.mark.parametrize("left", [True, False])
def test_det_polynomial_refuses_an_order_above_eight(left):
    constant = StructureConstant(cyclic(9), [[1] * 9 for _ in range(9)])
    with pytest.raises(ValueError, match="order above 8"):
        det_polynomial(constant, left)


def test_no_leibniz_table_is_built_at_import():
    """Neither the Leibniz tables nor the search's exponent layouts are
    read at import."""
    script = (
        "import importlib, twistdiv.acceptance, twistdiv.cli\n"
        "table = importlib.import_module('twistdiv.classify')._leibniz_table\n"
        "layout = importlib.import_module('twistdiv.poly')._layout\n"
        "print(table.cache_info().currsize, layout.cache_info().currsize)\n"
    )
    src = str(Path(twistdiv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 0\n"


def _leibniz_det(m):
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(m[r][c] for r, c in enumerate(perm))
    return total


def _left_det_at(constant, y):
    """det M^L(y) with M_{c,a} = C(a, a^-1 c) y_{a^-1 c}."""
    group = constant.group
    n = group.order
    rows = []
    for c in range(n):
        bs = [group.mul(group.inverse(a), c) for a in range(n)]
        rows.append([constant(a, b) * Fraction(y[b]) for a, b in enumerate(bs)])
    return _leibniz_det(rows)


def _assert_report_verifies(rep):
    for cand, w in rep.rejected:
        if isinstance(w, SignChangeWitness):
            assert any(w.positive_point) and any(w.nonpositive_point)
            pos = _left_det_at(cand.constant, w.positive_point)
            nonpos = _left_det_at(cand.constant, w.nonpositive_point)
            assert pos == w.positive_value > 0 >= nonpos == w.nonpositive_value
        else:
            assert isinstance(w, RealRootRejection)
            assert w.verify(det_polynomials(cand.constant)[0])
    for cand, cert in rep.survivors:
        det_l, det_r = det_polynomials(cand.constant)
        assert certifies_positive_definite(det_l, cert.cert_left)
        assert certifies_positive_definite(det_r, cert.cert_right)


def _count_searches(monkeypatch, name="find_sign_change"):
    """The polynomial that each call of ``classify.<name>`` is given: by
    default the det M^L of each sign-change search."""
    calls = []
    search = getattr(CLASSIFY, name)

    def counting(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(CLASSIFY, name, counting)
    return calls


@pytest.mark.parametrize(
    "group, mode, searches",
    [("Z2", SHAPED, 1), ("Z2xZ2", SHAPED, 22), ("Z4", SHAPED, 42),
     ("Z2xZ2", RAW, 101), ("Z4", RAW, 99)],
)
def test_one_search_per_distinct_det_m_l(monkeypatch, group, mode, searches):
    """Each distinct det M^L of a rejected table is searched exactly once
    per call (31 shaped Z2xZ2 rejections have 22, raw Z4's 508 have 99).
    Every certificate, shared or not, verifies independently of the
    search code."""
    calls = _count_searches(monkeypatch)
    rep = classify(group, LEFT_STANDARD, mode)
    searched = {frozenset(p.terms.items()) for p in calls}
    rejected = {
        frozenset(det_polynomial(c.constant).terms.items()) for c, _ in rep.rejected
    }
    assert len(calls) == len(searched) == len(rejected) == searches
    assert searched == rejected
    assert not rep.undetermined
    _assert_report_verifies(rep)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize(
    "group, mode, checks",
    [("Z2", SHAPED, 3), ("Z2xZ2", SHAPED, 24), ("Z4", SHAPED, 44),
     ("Z2xZ2", RAW, 105), ("Z4", RAW, 107)],
)
def test_no_survivor_check_on_a_det_m_l_with_a_witness(
    monkeypatch, group, mode, checks, convention
):
    """``find_diagonal_sos`` runs once per distinct det M^L of a rejected
    table and twice per survivor (107 = 99 + 2 * 4 on raw Z4, 516 when
    every table's det M^L was checked): a table whose det M^L already has
    a witness in the call is not checked."""
    calls = _count_searches(monkeypatch, "find_diagonal_sos")
    rep = classify(group, convention, mode)
    assert len(calls) == checks
    assert not rep.undetermined


@pytest.mark.parametrize("convention, draws", [
    (LEFT_STANDARD, (5, 74, 920, 343, 2909)),
    (RIGHT_STANDARD, (5, 80, 921, 343, 2909)),
])
def test_probe_draws_per_classify_call_are_pinned(monkeypatch, convention, draws):
    """The probe walk draws the same points as before the per-support
    kernel, per call of shaped Z2, Z2xZ2, Z4 and raw Z2xZ2, Z4: every draw
    from ``poly._slice_draws`` is counted."""
    drawn = []
    slice_draws = POLY._slice_draws

    def counted(*args):
        for draw in slice_draws(*args):
            drawn.append(draw)
            yield draw

    monkeypatch.setattr(POLY, "_slice_draws", counted)
    runs = [("Z2", SHAPED), ("Z2xZ2", SHAPED), ("Z4", SHAPED),
            ("Z2xZ2", RAW), ("Z4", RAW)]
    counts = []
    for group, mode in runs:
        drawn.clear()
        classify(group, convention, mode)
        counts.append(len(drawn))
    assert tuple(counts) == draws


@pytest.mark.parametrize("group", ["Z2xZ2", "Z4"])
def test_raw_witnesses_are_the_search_on_their_own_det_m_l(group):
    """A shared witness is the one a search on the table's own det M^L
    finds, so no witness depends on the enumeration order."""
    rep = classify(group, LEFT_STANDARD, RAW)
    assert len(rep.rejected) in (508, 510)
    for cand, witness in rep.rejected:
        det_l = det_polynomial(cand.constant)
        assert witness == CLASSIFY.zero_divisor_witness(det_l)


def test_no_search_outlives_a_classify_call(monkeypatch):
    """Two calls back to back each make the full search count and the
    same report: the shared witnesses are dropped when a call returns."""
    calls = _count_searches(monkeypatch)
    first = classify("Z4", LEFT_STANDARD, SHAPED)
    assert len(calls) == 42
    second = classify("Z4", LEFT_STANDARD, SHAPED)
    assert len(calls) == 84
    assert calls[:42] == calls[42:]
    assert first == second


@pytest.mark.parametrize("group, rejected", [("Z2", 1), ("Z2xZ2", 31), ("Z4", 63)])
def test_survivors_are_certified_before_the_probes(monkeypatch, group, rejected):
    """Only the rejected tables reach the sign-change search, one search
    per distinct det M^L: a positive-definite certificate and a sign
    change exclude each other."""
    calls = _count_searches(monkeypatch)
    rep = classify(group, LEFT_STANDARD, SHAPED)
    assert len(rep.rejected) == rejected and len(rep.survivors) == 1
    (survivor, _), = rep.survivors
    assert det_polynomial(survivor.constant) not in calls
    dets = (det_polynomial(c.constant) for c, _ in rep.rejected)
    assert calls == list(dict.fromkeys(dets))


def test_det_m_r_is_built_only_for_survivors(monkeypatch):
    """A rejected table builds det M^L only; a survivor builds det M^R
    once det M^L has its certificate.  A rejected table whose det M^L was
    searched before builds det M^L and gets the same witness unsearched."""
    survivor = classify("Z4", LEFT_STANDARD, SHAPED).survivors[0][0]
    rejected = enumerate_candidates("Z4", LEFT_STANDARD, RAW)[0]
    sides = []
    build = CLASSIFY.det_polynomial

    def counting(constant, left=True):
        sides.append(left)
        return build(constant, left)

    monkeypatch.setattr(CLASSIFY, "det_polynomial", counting)
    witnesses = {}
    witness = CLASSIFY._classify_one(rejected, witnesses)
    assert isinstance(witness, (SignChangeWitness, RealRootRejection))
    assert sides == [True] and len(witnesses) == 1
    sides.clear()
    calls = _count_searches(monkeypatch)
    assert CLASSIFY._classify_one(rejected, witnesses) is witness
    assert sides == [True] and not calls
    sides.clear()
    cert = CLASSIFY._classify_one(survivor, witnesses)
    assert isinstance(cert, CLASSIFY.SurvivorCertificate)
    assert sides == [True, False] and len(witnesses) == 1


@pytest.mark.parametrize("nvars", [2, 6])
def test_line_root_rejection_for_any_number_of_variables(nvars):
    """(y0^2 - 2 y1^2 - ... )^2 is PSD with only irrational zeros on the
    line through base (1, ..., 1)."""
    ys = MultiPoly.variables(tuple(f"y{i}" for i in range(nvars)))
    q = ys[0] * ys[0]
    for v in ys[1:]:
        q = q - 2 * v * v
    p = q * q
    witness = CLASSIFY.line_root_rejection(p)
    assert witness is not None and witness.verify(p)
    assert len(witness.base) == nvars - 1


def test_raw_mode_klein_pinned_counts():
    rep = classify("Z2xZ2", LEFT_STANDARD, RAW)
    assert rep.counts() == {
        "examined": 512, "rejected": 510, "survivors": 2, "undetermined": 0,
    }
    frozen = tuple(tuple(r) for r in TABLE_QUATERNION)
    transposed = tuple(tuple(TABLE_QUATERNION[b][a] for b in range(4))
                       for a in range(4))
    assert {c.constant.values for c, _ in rep.survivors} == {frozen, transposed}


def test_fingerprints_separate_quaternions_from_z4_survivor():
    fp_h = non_isomorphism_fingerprint(quaternion_algebra())
    fp_t = non_isomorphism_fingerprint(tesseranion_algebra())
    assert fp_h.power_associative and not fp_t.power_associative
    assert fp_h != fp_t
    assert dict(fp_t.identity_dims) == {(2, 1): 1, (4,): 2}


def test_trivial_group_classifies_to_the_reals():
    rep = classify("Z1")
    assert rep.counts() == {
        "examined": 1, "rejected": 0, "survivors": 1, "undetermined": 0,
    }
    assert rep.survivors[0][1].kind == "odd-dimension-unit"


def test_trivial_group_checks_the_enumeration_mode():
    assert classify("Z1", LEFT_STANDARD, RAW).counts()["survivors"] == 1
    with pytest.raises(ValueError, match="unknown enumeration mode"):
        classify("Z1", LEFT_STANDARD, "bogus")


def test_odd_dimension_unit_certificate_verifies():
    """Z1's determinants are y0 and x0, which vanish only at 0; a
    determinant in two variables, or the zero one, is not certified."""
    rep = classify("Z1")
    cand, cert = rep.survivors[0]
    det_l, det_r = det_polynomials(cand.constant)
    assert cert.verify(det_l, det_r) is True
    y0, _ = MultiPoly.variables(("y0", "y1"))
    assert cert.verify(y0, det_r) is False
    assert cert.verify(det_l, MultiPoly.zero(det_r.vars)) is False
    assert cert.verify(det_l, MultiPoly.constant(det_r.vars, 2)) is False


def _odd_order_support(witness):
    """The group elements on the witness's line: the base's support
    (position 0 runs over t) together with 0."""
    return {0} | {h for h, v in enumerate(witness.base, start=1) if v}


def test_odd_order_zero_divisor_cyclic3():
    G = group_by_name("Z3")
    constant = StructureConstant(G, [[1] * 3 for _ in range(3)], LEFT_STANDARD)
    witness = odd_order_zero_divisor(constant)
    assert witness.verify(det_polynomials(constant)[0])
    assert _odd_order_support(witness) == {0, 1, 2}
    assert len(witness.coefficients) == 4  # cubic
    assert witness.root_count >= 1
    lo, hi = witness.interval
    coeffs = [Fraction(c) for c in witness.coefficients]
    assert count_real_roots(coeffs, lo, hi) >= 1
    # trivial constant: det = y^3 + 2 - 3y = (y-1)^2 (y+2)
    assert sum(c * (-2) ** k for k, c in enumerate(coeffs)) == 0


def test_odd_order_zero_divisor_all_sign_constants_on_z3():
    import itertools

    G = group_by_name("Z3")
    for signs in itertools.product((1, -1), repeat=4):
        values = [
            [1, 1, 1],
            [1, signs[0], signs[1]],
            [1, signs[2], signs[3]],
        ]
        witness = odd_order_zero_divisor(StructureConstant(G, values, LEFT_STANDARD))
        assert witness.root_count >= 1


def test_every_z3_sign_table_gets_a_checkable_line_witness():
    G = group_by_name("Z3")
    for signs in itertools.product((1, -1), repeat=4):
        values = [[1, 1, 1], [1, *signs[:2]], [1, *signs[2:]]]
        constant = StructureConstant(G, values, LEFT_STANDARD)
        witness = odd_order_zero_divisor(constant)
        assert witness.verify(det_polynomials(constant)[0])
        assert witness.to_json()["kind"] == "real-root-on-line"


def test_odd_order_reduces_z6_to_its_order3_subgroup():
    G = group_by_name("Z6")
    constant = StructureConstant(G, [[1] * 6 for _ in range(6)], LEFT_STANDARD)
    witness = odd_order_zero_divisor(constant)
    assert witness.verify(det_polynomials(constant)[0])
    assert _odd_order_support(witness) == {0, 2, 4}


@pytest.mark.parametrize("n", [11, 22])
def test_odd_order_beyond_eight_is_a_value_error(n):
    """The least odd prime factor of 11 and 22 is 11; det M^L of an order
    above 8 is then refused by ``det_polynomial``."""
    G = cyclic(n)
    constant = StructureConstant(G, [[1] * n for _ in range(n)], LEFT_STANDARD)
    with pytest.raises(ValueError):
        odd_order_zero_divisor(constant)


def test_odd_order_rejects_power_of_two():
    G = group_by_name("Z4")
    constant = StructureConstant(G, [[1] * 4 for _ in range(4)], LEFT_STANDARD)
    with pytest.raises(ValueError):
        odd_order_zero_divisor(constant)


# sha256 over (values, convention label, parameters) of every candidate,
# in enumeration order, recorded before the shapes were described once in
# ``SHAPES``; the classify JSON writes the report's basis, not each
# table's convention label, so only this pins the labels
ENUMERATION_DIGESTS = {
    ("Z2", LEFT_STANDARD, SHAPED): "b71d65f54769061262ba253eaa80b76adea48a335cd40d6cc31a43f2efe00311",
    ("Z2", LEFT_STANDARD, RAW): "85bdc8bccc4086a36f93a0e86a30d0a00b3da3b4a09565ba8163a2e2cc1e2ccd",
    ("Z2", RIGHT_STANDARD, SHAPED): "f70939042b0e6cd3c797d326903618e4bb65a0d3fd43f639a152be58ac2e58cb",
    ("Z2", RIGHT_STANDARD, RAW): "6e0216084a13b67f421d675ef0de8901fb7cc30648625cf31da3162fd99ea22f",
    ("Z2xZ2", LEFT_STANDARD, SHAPED): "973d86f54d330dc7d28604fb124cea586cb15b6f5e708614ba30e46e07a461e1",
    ("Z2xZ2", LEFT_STANDARD, RAW): "3fafcaa0d404a491b7968ba6f17435e4b6865614a0664972116f98f0972aa6e3",
    ("Z2xZ2", RIGHT_STANDARD, SHAPED): "d7586c55e3b619a03a008cd9f0ecbcd0737af37d99d2fbe809434160d4807305",
    ("Z2xZ2", RIGHT_STANDARD, RAW): "83f696d202f3572e2875184f82ca09d19ae643b1bdb8dcad4983a655f36b630a",
    ("Z4", LEFT_STANDARD, SHAPED): "675f228f8ce7040df1734c5fbe128f9996bb9014d2ac9a51e4cd98d074326a32",
    ("Z4", LEFT_STANDARD, RAW): "3fafcaa0d404a491b7968ba6f17435e4b6865614a0664972116f98f0972aa6e3",
    ("Z4", RIGHT_STANDARD, SHAPED): "0eef3db33a4fd041b682f0465519ab78a2635b1af2c9372cde2677e683d91eb4",
    ("Z4", RIGHT_STANDARD, RAW): "83f696d202f3572e2875184f82ca09d19ae643b1bdb8dcad4983a655f36b630a",
}


@pytest.mark.parametrize(
    "group, convention, mode, digest",
    [(*key, digest) for key, digest in ENUMERATION_DIGESTS.items()],
)
def test_enumerations_are_pinned(group, convention, mode, digest):
    h = hashlib.sha256()
    for cand in enumerate_candidates(group, convention, mode):
        c = cand.constant
        h.update(repr((c.values, c.convention, cand.parameters)).encode())
    assert h.hexdigest() == digest
