import random
from fractions import Fraction

import pytest

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
from twistdiv.groups import LEFT_STANDARD, RIGHT_STANDARD, group_by_name
from twistdiv.poly import (
    SignChangeWitness,
    count_real_roots,
    uni_eval,
    verify_sos,
)


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
    from twistdiv import _linalg

    rng = random.Random(55)
    for A in (quaternion_algebra(), tesseranion_algebra()):
        n = A.group.order
        count = 0
        while count < 100:
            y = A.element([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                           for _ in range(n)])
            if y.is_zero():
                continue
            assert _linalg.det(A.mult_matrix_left(y)) != 0
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
    import itertools

    G = group_by_name("Z4")
    orbit = set()
    for signs in itertools.product((1, -1), repeat=3):
        s = (1,) + signs
        orbit.add(tuple(
            tuple(s[a] * s[b] * s[G.mul(a, b)] * TABLE_TESSERANION[a][b]
                  for b in range(4))
            for a in range(4)
        ))
    assert len(orbit) == 4  # rescalings act through a 2-element kernel
    rep = classify("Z4", LEFT_STANDARD, RAW)
    assert {c.constant.values for c, _ in rep.survivors} == orbit


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


def test_odd_order_zero_divisor_cyclic3():
    G = group_by_name("Z3")
    constant = StructureConstant(G, [[1] * 3 for _ in range(3)], LEFT_STANDARD)
    witness = odd_order_zero_divisor(constant)
    assert witness.subgroup == (0, 1, 2)
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


def test_odd_order_reduces_z6_to_its_order3_subgroup():
    G = group_by_name("Z6")
    constant = StructureConstant(G, [[1] * 6 for _ in range(6)], LEFT_STANDARD)
    witness = odd_order_zero_divisor(constant)
    assert len(witness.subgroup) == 3
    assert all(G.element_order(g) in (1, 3) for g in witness.subgroup)


def test_odd_order_rejects_power_of_two():
    G = group_by_name("Z4")
    constant = StructureConstant(G, [[1] * 4 for _ in range(4)], LEFT_STANDARD)
    with pytest.raises(ValueError):
        odd_order_zero_divisor(constant)
