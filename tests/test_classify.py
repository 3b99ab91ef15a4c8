import dataclasses
import hashlib
import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    classify,
    det_polynomials,
    enumerate_candidates,
    non_isomorphism_fingerprint,
    odd_order_zero_divisor,
    opposite_uniqueness_check,
)
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
    certifies_positive_definite,
    count_real_roots,
    symbolic_det,
    uni_eval,
    verify_sos,
)

# the package re-exports the function ``classify`` under the module's name
CLASSIFY = importlib.import_module("twistdiv.classify")


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


def test_line_root_transported_across_a_flipped_coordinate():
    """s flips y1, the coordinate the line runs along: the witness is
    rebuilt on C^s's own det M^L at the same position, with base s o base,
    and keeps its PSD annotation."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (cand, _), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    base = (1, 1, 0)
    witness = RealRootRejection.on_line(det_polynomials(cand.constant)[0], 1, base)
    assert witness is not None
    s = (1, -1, 1, 1)
    table = next(t for t, sv in CLASSIFY._rescaled_tables(cand.constant) if sv == s)
    flipped = CLASSIFY.CandidateConstant(
        StructureConstant(cand.constant.group, table, LEFT_STANDARD), ()
    )
    moved = CLASSIFY._transport(witness, s, flipped)
    det_l = det_polynomials(flipped.constant)[0]
    assert isinstance(moved, RealRootRejection) and moved.verify(det_l)
    assert moved.position == 1
    assert moved.base == tuple(si * v for si, v in zip((s[0],) + s[2:], base))
    assert moved.psd is not None and verify_sos(det_l, moved.psd)


@pytest.mark.parametrize(
    "change",
    [lambda w: {"base": w.base + (1,)}, lambda w: {"position": -1},
     lambda w: {"base": w.base[:2]}, lambda w: {"position": 7}],
    ids=["4-entry-base", "position-minus-1", "2-entry-base", "position-7"],
)
def test_line_root_verify_rejects_malformed_witnesses(change):
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (cand, witness), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    det_l, _ = det_polynomials(cand.constant)
    assert witness.verify(det_l)
    assert dataclasses.replace(witness, **change(witness)).verify(det_l) is False


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


def test_survivor_verify_checks_each_certificate_on_its_own_side():
    """cert_left is over y and cert_right over x, so swapping them fails."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    cand, cert = rep.survivors[0]
    det_l, det_r = det_polynomials(cand.constant)
    assert cert.verify(det_l, det_r)
    swapped = dataclasses.replace(
        cert, cert_left=cert.cert_right, cert_right=cert.cert_left
    )
    assert swapped.verify(det_l, det_r) is False


def test_each_witness_writes_its_own_kind(raw_z4_sign_change):
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (_, root), = [
        (c, w) for c, w in rep.rejected if isinstance(w, RealRootRejection)
    ]
    assert root.to_json()["kind"] == "real-root-on-line"
    assert raw_z4_sign_change[1].to_json()["kind"] == "sign-change"


def test_psd_candidate_sos_identity():
    """The no-sign-change candidate's determinant is PSD with an exact
    SOS decomposition, and its only rational zero is the origin on a
    dense grid."""
    rep = classify("Z4", LEFT_STANDARD, SHAPED)
    (idx, cert), = rep.psd_annotations.items()
    cand = enumerate_candidates("Z4", LEFT_STANDARD, SHAPED)[idx]
    det_l, det_r = det_polynomials(cand.constant)
    assert verify_sos(det_l, cert)
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
    assert opposite_uniqueness_check("Z2xZ2")
    assert opposite_uniqueness_check("Z4")
    assert opposite_uniqueness_check("Z2")
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


def _count_searches(monkeypatch):
    calls = []
    search = CLASSIFY._classify_one

    def counting(candidate):
        calls.append(candidate)
        return search(candidate)

    monkeypatch.setattr(CLASSIFY, "_classify_one", counting)
    return calls


@pytest.mark.parametrize(
    "group, mode, searches",
    [("Z2", SHAPED, 2), ("Z2xZ2", SHAPED, 32), ("Z4", SHAPED, 64),
     ("Z2xZ2", RAW, 256), ("Z4", RAW, 128)],
)
def test_one_search_per_rescaling_orbit(monkeypatch, group, mode, searches):
    """Raw Z4 is 128 orbits of 4 tables and raw Z2xZ2 256 orbits of 2; a
    shaped enumeration holds one table per orbit.  Every certificate,
    transported or not, verifies independently of the search code."""
    calls = _count_searches(monkeypatch)
    rep = classify(group, LEFT_STANDARD, mode)
    assert len(calls) == searches
    assert not rep.undetermined
    _assert_report_verifies(rep)


def test_a_certificate_that_fails_its_check_is_searched_again(monkeypatch):
    """Pair every table of an orbit with the identity rescaling, so that
    witness points are carried unflipped: those whose values change fail
    the exact re-check, and their candidates are classified themselves."""

    def unflipped(constant):
        n = constant.group.order
        for table, _ in rescalings(constant):
            yield table, (1,) * n

    rescalings = CLASSIFY._rescaled_tables
    monkeypatch.setattr(CLASSIFY, "_rescaled_tables", unflipped)
    calls = _count_searches(monkeypatch)
    rep = classify("Z4", LEFT_STANDARD, RAW)
    assert 128 < len(calls) < 512
    kinds = [type(w).__name__ for _, w in rep.rejected]
    assert (kinds.count("SignChangeWitness"), kinds.count("RealRootRejection"),
            len(rep.survivors)) == (504, 4, 4)
    _assert_report_verifies(rep)


@pytest.mark.parametrize("group, searches", [("Z2", 1), ("Z2xZ2", 31), ("Z4", 63)])
def test_survivors_are_certified_before_the_probes(monkeypatch, group, searches):
    """Only the rejected tables reach the sign-change search: a
    positive-definite certificate and a sign change exclude each other."""
    calls = []
    search = CLASSIFY.find_sign_change

    def counting(p):
        calls.append(p)
        return search(p)

    monkeypatch.setattr(CLASSIFY, "find_sign_change", counting)
    rep = classify(group, LEFT_STANDARD, SHAPED)
    assert len(calls) == searches
    assert len(rep.survivors) == 1


def test_det_m_r_is_built_only_for_survivors(monkeypatch):
    """A rejected table builds det M^L only; a survivor builds det M^R
    once det M^L has its certificate."""
    survivor = classify("Z4", LEFT_STANDARD, SHAPED).survivors[0][0]
    rejected = enumerate_candidates("Z4", LEFT_STANDARD, RAW)[0]
    sides = []
    build = CLASSIFY.det_polynomial

    def counting(constant, left=True):
        sides.append(left)
        return build(constant, left)

    monkeypatch.setattr(CLASSIFY, "det_polynomial", counting)
    witness = CLASSIFY._classify_one(rejected)
    assert isinstance(witness, (SignChangeWitness, RealRootRejection))
    assert sides == [True]
    sides.clear()
    assert isinstance(CLASSIFY._classify_one(survivor), CLASSIFY.SurvivorCertificate)
    assert sides == [True, False]


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
    assert uni_eval(coeffs, Fraction(-2)) == 0


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
    above 8 is then refused by ``symbolic_det``."""
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
