import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import twistdiv
from twistdiv.algebra import (
    RATIONALS,
    AlgebraElement,
    TABLE_TESSERANION,
    TwistedAlgebra,
    tesseranion_algebra,
)
from twistdiv.classify import (
    PARAM_NAMES,
    RealRootRejection,
    _restrict_to_line,
    det_polynomials,
    shaped_constant,
)
from twistdiv.deform import (
    TES_PARAMS,
    commutator_rescaling,
    family_constant,
    k_inverse_isomorphism,
    neccons_check,
    parametric_constant,
    structure_constant_from_generator,
    witness_search,
)
from twistdiv.groups import LEFT_STANDARD
from twistdiv.identities import loop_property_suite
from twistdiv.poly import MultiPoly, symbolic_det
from twistdiv.structure import (
    CHIRAL,
    anticommutator_algebra,
    chiral_inverse_check,
    jordan_check,
)

FROZEN_TES = tuple(tuple(Fraction(v) for v in row) for row in TABLE_TESSERANION)


def test_family_parameter_tables():
    """Frozen parameter maps of the eight families."""
    k = Fraction(5)
    expected = {
        1: {"alpha": -k, "beta": -1, "delta": 1, "epsilon": 1, "phi": -1, "omega": k},
        2: {"alpha": -1, "beta": -k, "delta": k, "epsilon": 1, "phi": -1, "omega": 1},
        3: {"alpha": -1, "beta": -1, "delta": 1, "epsilon": k, "phi": -1, "omega": k},
        4: {"alpha": -k, "beta": -1, "delta": 1, "epsilon": k, "phi": -1, "omega": k},
        5: {"alpha": -1, "beta": -1, "delta": k, "epsilon": 1, "phi": -1, "omega": 1},
        6: {"alpha": -1, "beta": -1, "delta": 1, "epsilon": 1, "phi": -1, "omega": k},
        7: {"alpha": -1, "beta": -k, "delta": 1, "epsilon": 1, "phi": -1, "omega": 1},
        8: {"alpha": -k, "beta": -1, "delta": 1, "epsilon": 1, "phi": -1, "omega": 1},
    }
    for fid, want in expected.items():
        got = family_constant(fid, k).parameter_map
        assert got == {n: Fraction(v) for n, v in want.items()}, fid


def test_every_family_degenerates_at_k_equal_1():
    for fid in range(1, 9):
        assert family_constant(fid, 1).constant().values == FROZEN_TES


def test_family_id_validation():
    with pytest.raises(ValueError):
        family_constant(9, 2)


def test_neccons():
    ok, violated = neccons_check(TES_PARAMS)
    assert ok and not violated
    bad = dict(TES_PARAMS)
    bad["phi"] = 1
    ok, violated = neccons_check(bad)
    assert not ok and "-phi > 0" in violated
    ok, violated = neccons_check(family_constant(1, 4).parameter_map)
    assert ok
    with pytest.raises(ValueError):
        neccons_check({**TES_PARAMS, "alpha": 0})


def test_validity_ranges():
    # family 4: k > (2/3) sqrt(3) - 1 ~ 0.1547
    assert not family_constant(4, Fraction(1, 10)).in_range
    assert family_constant(4, Fraction(1, 5)).in_range
    assert not family_constant(4, Fraction(-2)).in_range
    # families 5-8: 0 < k <= 3 + 2 sqrt(3) ~ 6.464
    for fid in (5, 6, 7, 8):
        assert family_constant(fid, Fraction(32, 5)).in_range   # 6.4
        assert not family_constant(fid, Fraction(13, 2)).in_range  # 6.5
        assert not family_constant(fid, -1).in_range
    for fid in (1, 2, 3):
        assert family_constant(fid, Fraction(1, 7)).in_range
        assert not family_constant(fid, Fraction(-1, 7)).in_range


def test_k_zero_builds_no_member():
    for family in range(1, 9):
        with pytest.raises(ValueError, match="k must be nonzero"):
            family_constant(family, 0)


def test_parametric_constant_validation():
    with pytest.raises(ValueError):
        parametric_constant({"alpha": 1})
    with pytest.raises(ValueError):
        parametric_constant({**TES_PARAMS, "omega": 0})


GENERIC_VARS = PARAM_NAMES + ("y0", "y1", "y2", "y3")


def generic_det_ml():
    """det M^L with all six parameters and all four components symbolic."""
    v = MultiPoly.variables(GENERIC_VARS)
    params = v[: len(PARAM_NAMES)]
    constant = shaped_constant("Z4", dict(zip(PARAM_NAMES, params)), LEFT_STANDARD)
    algebra = TwistedAlgebra(constant, RATIONALS)
    y = AlgebraElement(algebra, v[len(PARAM_NAMES) :])
    return symbolic_det(algebra.mult_matrix_left(y))


def generic_det_ml_reference():
    """The frozen exact expansion of the generic determinant.

    Equivalent to building the polynomial term by term:

        y0^4 - eb y1^4 - phi y2^4 - adw y3^4
        + (1 - phi) y0^2 y2^2 + (abw + ed) y1^2 y3^2
        + [(e(1+b) + phi b - 1) y1^2 + (a(d+phi) - w(1-d)) y3^2] y0 y2
        + [(w - ed - phi(ab - 1)) y2^2 - (a + bw + d + e) y0^2] y1 y3
    """
    V = GENERIC_VARS
    a, b, d, e, f, w, y0, y1, y2, y3 = MultiPoly.variables(V)
    one = MultiPoly.constant(V, 1)
    return (
        y0**4
        - (e * b) * y1**4
        - f * y2**4
        - (a * d * w) * y3**4
        + (one - f) * y0**2 * y2**2
        + (a * b * w + e * d) * y1**2 * y3**2
        + ((e * (one + b) + f * b - one) * y1**2
           + (a * (d + f) - w * (one - d)) * y3**2) * y0 * y2
        + ((w - e * d - f * (a * b - one)) * y2**2
           - (a + b * w + d + e) * y0**2) * y1 * y3
    )


def test_generic_determinant_matches_frozen_expansion():
    assert (generic_det_ml() - generic_det_ml_reference()).is_zero


def test_generic_determinant_matches_sympy_oracle():
    """Independent oracle: sympy determinant of the same symbolic matrix."""
    import sympy

    a, b, d, e, f, w = sympy.symbols("alpha beta delta epsilon phi omega")
    y0, y1, y2, y3 = sympy.symbols("y0 y1 y2 y3")
    values = [[1, 1, 1, 1], [1, 1, 1, a], [1, b, -1, d], [1, e, f, w]]
    ys = [y0, y1, y2, y3]
    m = sympy.Matrix(4, 4, lambda c, col: values[col][(c - col) % 4] * ys[(c - col) % 4])
    oracle = sympy.expand(m.det())
    mine = generic_det_ml()
    lookup = {n: s for n, s in zip(
        mine.vars, (a, b, d, e, f, w, y0, y1, y2, y3)
    )}
    rebuilt = sympy.Integer(0)
    for exp, coeff in mine.terms.items():
        term = sympy.Integer(coeff)
        for name, k in zip(mine.vars, exp):
            if k:
                term *= lookup[name] ** k
        rebuilt += term
    assert sympy.expand(oracle - rebuilt) == 0


def test_generic_determinant_slice_forms():
    """The displayed two-components-zero specializations, exactly."""
    det = generic_det_ml()
    from twistdiv.poly import MultiPoly

    V = det.vars
    a, b, d, e, f, w, y0, y1, y2, y3 = MultiPoly.variables(V)
    one = MultiPoly.constant(V, 1)
    cases = [
        ({"y0": 0, "y2": 0},
         (b * y1**2 - d * y3**2) * (-e * y1**2 + a * w * y3**2)),
        ({"y1": 0, "y3": 0}, (y0**2 + y2**2) * (y0**2 - f * y2**2)),
        ({"y2": 0, "y3": 0}, y0**4 - e * b * y1**4),
        ({"y1": 0, "y2": 0}, y0**4 - a * d * w * y3**4),
        ({"y0": 0, "y3": 0}, -f * y2**4 - e * b * y1**4),
        ({"y0": 0, "y1": 0}, -f * y2**4 - a * d * w * y3**4),
    ]
    for bindings, expected in cases:
        assert (det.specialize(bindings) - expected).is_zero


def test_constrained_one_zero_slices():
    """After the first constraint set, the one-component-zero slices have
    the quoted shapes y1^4 + 2(eps-1) y0 y2 y1^2 + (y0^2+y2^2)^2 etc."""
    det = generic_det_ml()
    from twistdiv.poly import MultiPoly

    y0, y1, y2, y3 = MultiPoly.variables(det.vars)[len(PARAM_NAMES) :]
    for eps in (1, -1):
        for om in (1, -1):
            bound = det.specialize({
                "alpha": -eps * om, "beta": -eps, "delta": eps,
                "epsilon": eps, "phi": -1, "omega": om,
            })
            got = bound.specialize({"y3": 0})
            want = (y1**4 + 2 * (eps - 1) * y2 * y0 * y1**2
                    + (y0**2 + y2**2) ** 2)
            assert (got - want).is_zero
    # the y2 = 0 slice shape is quoted after fixing eps = 1
    for om in (1, -1):
        bound = det.specialize({
            "alpha": -om, "beta": -1, "delta": 1,
            "epsilon": 1, "phi": -1, "omega": om,
        })
        got2 = bound.specialize({"y2": 0})
        want2 = (y0**4 + 2 * (om - 1) * y3 * y1 * y0**2
                 + (y1**2 + y3**2) ** 2)
        assert (got2 - want2).is_zero


def test_witness_searches_for_valid_members_come_up_empty():
    for fid, k in [(1, 4), (2, 3), (3, 2), (4, 2), (5, 2), (6, 3),
                   (7, Fraction(1, 2)), (8, 4)]:
        member = family_constant(fid, k)
        assert member.in_range
        assert witness_search(member.constant()) is None


# sha256 of repr([(repr(witness_search), chirality kind, [repr(c) for c
# in the chirality witness]) for k in (2, 3, 1/2, -2, 10)]) per family,
# as computed by kernels that multiply the raw Fraction cells; repr tells
# an int from a Fraction, so these pin value types as well as values
NARROWED_KERNEL_SHA256 = {
    1: "0be09fd89cd7992091960e02a8b7501e7dbed7a7e1ad6c3f427eb0c6e0ec7eb4",
    2: "2e563c3d95878b8045e69270b5bab0f4feb1ef28efd6450732114799f71bc51d",
    3: "2e563c3d95878b8045e69270b5bab0f4feb1ef28efd6450732114799f71bc51d",
    4: "94bb31b11b82d0a96b0234b82f4727e19781feb005262f6525a7bb2ea2cef569",
    5: "9748eb07e76583bf6902f98db9166405b21eca45376861a2b62e56425aa68c3f",
    6: "90510b8f20a15b7c8ee69b1cda528e17601e62544eb5683d852cdd4cb201b091",
    7: "8872f4a65473a019f92fb1c61da39ba17c2049c649a0ff9274f36793242bf16e",
    8: "2d40cdde8dfffa72293a60fd5f2a26d5c59f281e312cd19754802b77961471e2",
}


@pytest.mark.parametrize("family", sorted(NARROWED_KERNEL_SHA256))
def test_witness_and_chirality_match_the_raw_fraction_kernels(family):
    """Integral cells enter the kernels as ints; the zero-divisor witness
    and the chiral witness stay what the Fraction arithmetic gave."""
    out = []
    for k in (2, 3, Fraction(1, 2), -2, 10):
        constant = family_constant(family, k).constant()
        kind, element = chiral_inverse_check(TwistedAlgebra(constant))
        coeffs = None if element is None else [repr(c) for c in element.coeffs]
        out.append((repr(witness_search(constant)), kind, coeffs))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == NARROWED_KERNEL_SHA256[family]


def test_out_of_range_member_still_constructible():
    """k outside the validity bound is flagged but usable for experiments;
    no absence-of-zero-divisors claim attaches to its search result."""
    member = family_constant(5, 100)
    assert not member.in_range
    constant = member.constant()
    assert constant.values[2][3] == 100  # delta = k
    witness_search(constant)  # must run without error; result unclaimed


def test_neccons_violations_yield_witnesses():
    """Violating sign assignments with small entries always produce a
    sign-change witness."""
    rng = random.Random(14)
    names = sorted(TES_PARAMS)
    found = 0
    for values in itertools.product((1, -1, 2, -2), repeat=6):
        params = dict(zip(names, values))
        ok, _ = neccons_check(params)
        if ok or rng.random() > 0.02:
            continue
        assert witness_search(parametric_constant(params)) is not None
        found += 1
        if found >= 12:
            break
    assert found >= 10


def test_witness_search_takes_the_line_root_route():
    """No structured probe finds a sign change on this table; a rational
    line restriction of det M^L has a Sturm-certified real root."""
    names = ("alpha", "beta", "delta", "epsilon", "phi", "omega")
    values = (Fraction(-1, 5), Fraction(-3, 2), 1, 3, -5, Fraction(1, 3))
    constant = parametric_constant(dict(zip(names, values)))
    witness = witness_search(constant)
    assert isinstance(witness, RealRootRejection)
    assert witness.verify(det_polynomials(constant)[0])


def test_exact_routes_run_without_numpy():
    """Every submodule imports, and classify and witness_search run, with
    numpy unimportable.  A subprocess, since hypothesis imports numpy."""
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys
        sys.modules["numpy"] = None  # any import of numpy now fails
        import twistdiv
        for info in pkgutil.iter_modules(twistdiv.__path__):
            importlib.import_module("twistdiv." + info.name)
        from twistdiv.classify import classify
        from twistdiv.deform import family_constant, witness_search
        assert not classify("Z4").undetermined
        assert witness_search(family_constant(1, 2).constant()) is None
        assert sys.modules["numpy"] is None
        """
    )
    src = str(Path(twistdiv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_eps_minus_one_probe_slice():
    probe = dict(TES_PARAMS)
    probe.update({"alpha": 1, "beta": 1, "delta": -1, "epsilon": -1})
    det_l, _ = det_polynomials(parametric_constant(probe))
    restricted = _restrict_to_line(det_l, 1, (1, 1, 0))
    assert restricted == [
        Fraction(4), Fraction(0), Fraction(-4), Fraction(0), Fraction(1),
    ]


def test_generator_rebuild_on_undeformed_algebra():
    T = tesseranion_algebra()
    rebuilt = structure_constant_from_generator(T, T.element([0, 1, 0, 0]))
    assert rebuilt.values == T.constant.values
    # mixed odd generators work only in the undeformed algebra
    for a1, a3 in [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))]:
        assert a1 * a1 + a3 * a3 == 1
        rebuilt = structure_constant_from_generator(T, T.element([0, a1, 0, a3]))
        assert rebuilt is not None and rebuilt.values == T.constant.values
    # non-generators are rejected
    assert structure_constant_from_generator(T, T.element([1, 0, 0, 0])) is None
    assert structure_constant_from_generator(T, T.element([1, 1, 0, 0])) is None


def test_k_inverse_isomorphism():
    assert k_inverse_isomorphism(4)
    assert k_inverse_isomorphism(9)
    assert k_inverse_isomorphism(1)
    assert k_inverse_isomorphism(Fraction(1, 4))
    with pytest.raises(ValueError):
        k_inverse_isomorphism(2)  # not a rational square


def test_commutator_rescaling():
    assert commutator_rescaling(7) == (True, True)
    assert commutator_rescaling(49) == (True, True)
    assert commutator_rescaling(1) == (True, True)
    possible, _ = commutator_rescaling(2)
    assert not possible  # (1+2)/2 is not an inverse rational square
    # at k = -1 the bracket [v3, v1] = (1+k)/2 v0 vanishes
    assert commutator_rescaling(-1) == (False, False)


def test_deformed_commutator_bracket():
    """[v3, v1] picks up the factor (1+k)/2 in family 1."""
    from twistdiv.structure import commutator_algebra

    k = Fraction(7)
    L = commutator_algebra(family_constant(1, k).algebra())
    v3 = [Fraction(0), 0, 0, 1]
    v1 = [Fraction(0), 1, 0, 0]
    assert L.product(v3, v1) == [Fraction(1 + k, 2), 0, 0, 0]


def test_family1_members_keep_chirality_and_fingerprint():
    for k in (2, 3, 4, Fraction(1, 2)):
        A = family_constant(1, k).algebra()
        kind, witness = chiral_inverse_check(A)
        assert kind == CHIRAL and witness is not None
        li, ri = A.left_inverse(witness), A.right_inverse(witness)
        assert li != ri
        assert li * witness == A.one() and witness * ri == A.one()
        props = loop_property_suite(A)
        assert not props.power_associative and not props.flexible


def test_jordan_and_chirality_witnesses_on_a_deformation_member():
    A = family_constant(5, 3).algebra()
    Ap = anticommutator_algebra(A)
    holds, (x, y) = jordan_check(Ap)
    xx = Ap.product(x, x)
    assert not holds
    assert Ap.product(Ap.product(x, y), xx) != Ap.product(x, Ap.product(y, xx))
    kind, w = chiral_inverse_check(A)
    li, ri = A.left_inverse(w), A.right_inverse(w)
    assert kind == CHIRAL and li != ri
    assert li * w == A.one() and w * ri == A.one()
