import hashlib
import importlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistdiv.algebra import ModInt
from twistdiv.classify import RAW, det_polynomial, enumerate_candidates
from twistdiv.groups import LEFT_STANDARD
from twistdiv.poly import (
    MultiPoly,
    SosCertificate,
    certifies_positive_definite,
    count_real_roots,
    find_diagonal_sos,
    find_psd_sos,
    find_sign_change,
    isolate_real_root,
    nonzero_point,
    perfect_square_root,
    squarefree_part,
    structured_probes,
    sturm_chain,
    symbolic_det,
    verify_sos,
)

POLY = importlib.import_module("twistdiv.poly")

YVARS = ("y0", "y1", "y2", "y3")


def _ys():
    return MultiPoly.variables(YVARS)


def test_arithmetic_and_equality():
    y0, y1, y2, y3 = _ys()
    p = (y0 + y1) * (y0 - y1)
    assert p == y0 * y0 - y1 * y1
    assert (p - p).is_zero
    assert (y0 + 1) * (y0 - 1) == y0 * y0 - 1
    assert y0**3 == y0 * y0 * y0
    assert p.degree() == 2 and p.is_homogeneous()
    assert not (p + 1).is_homogeneous()


RING_VARS = ("y0", "y1", "y2")
_RING_POLY = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(RING_VARS)),
    st.one_of(st.integers(-5, 5),
              st.fractions(min_value=-5, max_value=5, max_denominator=4)),
    max_size=5,
).map(lambda terms: MultiPoly(RING_VARS, terms))


def _to_sympy(p):
    syms = sympy.symbols(RING_VARS)
    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
         * sympy.prod([s**k for s, k in zip(syms, e)])
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


@settings(max_examples=80, deadline=None)
@given(_RING_POLY, _RING_POLY, _RING_POLY)
def test_multipoly_ring_laws_against_sympy(p, q, r):
    """* and + are commutative, associative and distributive, and every
    product agrees with sympy's expansion of the same polynomials."""
    assert p * q == q * p and p + q == q + p
    assert (p * q) * r == p * (q * r) and (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert all(c != 0 for c in (p * q).terms.values())
    oracle = sympy.expand(_to_sympy(p) * _to_sympy(q))
    assert sympy.expand(_to_sympy(p * q) - oracle) == 0


def test_variable_mismatch_raises():
    a = MultiPoly.variables(("a",))[0]
    b = MultiPoly.variables(("b",))[0]
    with pytest.raises(ValueError):
        _ = a + b


def test_evaluate_and_specialize_commute():
    rng = random.Random(5)
    y = _ys()
    p = (y[0] + 2 * y[1]) * (y[2] - y[3]) + y[1] * y[1] * y[2]
    for _ in range(20):
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
        partial = p.specialize({"y0": point[0], "y2": point[2]})
        rest = partial.specialize({"y1": point[1], "y3": point[3]})
        assert rest == MultiPoly.constant(YVARS, p.evaluate(point))


def test_specialize_unknown_name():
    p = _ys()[0]
    with pytest.raises(KeyError):
        p.specialize({"zz": 1})
    assert p.specialize({}) == p


def test_json_round_trip():
    y0, y1, _, _ = _ys()
    p = Fraction(3, 7) * y0 * y0 - y1 + 2
    again = MultiPoly.from_json(p.to_json())
    assert again == p


def _random_matrix(rng, n):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symbolic_det_matches_sympy_on_numeric_matrices(n):
    """Oracle: sympy exact determinant on random rational matrices."""
    rng = random.Random(n)
    for _ in range(5):
        m = _random_matrix(rng, n)
        mine = symbolic_det(m)
        oracle = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m]
        ).det()
        assert sympy.Rational(mine.numerator, mine.denominator) == oracle


def test_symbolic_det_agrees_with_numeric_evaluation():
    """det of a polynomial matrix evaluated == det of the evaluated matrix."""
    rng = random.Random(17)
    y = _ys()
    mat = [[y[(i + j) % 4] + (1 if i == j else 0) for j in range(4)] for i in range(4)]
    d = symbolic_det(mat)
    for _ in range(100):
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(4)]
        numeric = [[e.evaluate(pt) for e in row] for row in mat]
        assert d.evaluate(pt) == symbolic_det(numeric)


def test_symbolic_det_keeps_scalars_of_other_rings():
    p = 13
    det = symbolic_det([[ModInt(1, p), ModInt(2, p)], [ModInt(3, p), ModInt(4, p)]])
    assert isinstance(det, ModInt) and repr(det) == "11 (mod 13)"


def test_symbolic_det_rejects_non_square():
    y = _ys()
    with pytest.raises(ValueError):
        symbolic_det([[y[0], y[1]]])


def test_verify_sos_examples():
    y0, y1, y2, y3 = _ys()
    quat = (y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3) ** 2
    cert = SosCertificate(((Fraction(1), y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3),))
    assert verify_sos(quat, cert)
    assert certifies_positive_definite(quat, cert)

    tes = (y0 * y0 + y2 * y2) ** 2 + (y1 * y1 + y3 * y3) ** 2
    cert2 = SosCertificate(
        ((Fraction(1), y0 * y0 + y2 * y2), (Fraction(1), y1 * y1 + y3 * y3))
    )
    assert verify_sos(tes, cert2)
    assert certifies_positive_definite(tes, cert2)

    indefinite = y0 * y0 - y1 * y1
    assert not verify_sos(indefinite, cert2)
    assert not verify_sos(indefinite, SosCertificate(((Fraction(1), y0),)))


def test_an_empty_certificate_proves_only_the_zero_polynomial():
    """An empty sum of squares is 0: it certifies the zero polynomial and
    no other, so it cannot pass as a certificate for y0^2."""
    y0 = _ys()[0]
    empty = SosCertificate(())
    assert verify_sos(MultiPoly.zero(y0.vars), empty) is True
    assert verify_sos(y0 * y0, empty) is False
    assert certifies_positive_definite(y0 * y0, empty) is False


@pytest.mark.parametrize("weight", [-1, 0], ids=["negative", "zero"])
def test_a_weight_of_at_most_zero_is_refused_though_the_sum_matches(weight):
    """y0^2 + w y1^2 + y2^2 + y3^2 is exactly the polynomial of the parts,
    and each base is a diagonal form, but with w <= 0 it is not positive
    definite (it vanishes at v1, or changes sign): no weight <= 0 may
    pass."""
    y0, y1, y2, y3 = _ys()
    p = y0 * y0 + weight * y1 * y1 + y2 * y2 + y3 * y3
    cert = SosCertificate(tuple(
        (Fraction(w), b) for w, b in ((1, y0), (weight, y1), (1, y2), (1, y3))
    ))
    assert (cert.polynomial() - p).is_zero
    assert verify_sos(p, cert) is False
    assert certifies_positive_definite(p, cert) is False


def test_sos_positivity_spot_check():
    """verify_sos true implies nonnegative values at random points."""
    rng = random.Random(23)
    y0, y1, y2, y3 = _ys()
    p = (y0 * y0 + y2 * y2) ** 2 + (y1 * y1 + y3 * y3) ** 2
    cert = find_diagonal_sos(p)
    assert cert is not None and verify_sos(p, cert)
    for _ in range(50):
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
        assert p.evaluate(pt) >= 0


def test_psd_certificate_is_not_positive_definite():
    """The PSD-but-not-PD quartic from the rejected sign array."""
    y0, y1, y2, y3 = _ys()
    q1 = y0 * y0 + y2 * y2 - y1 * y1 - y3 * y3
    q2 = y1 * y2 - y2 * y3 - y0 * y1 - y0 * y3
    p = q1 * q1 + 2 * q2 * q2
    cert = find_psd_sos(p)
    assert cert is not None and verify_sos(p, cert)
    assert not certifies_positive_definite(p, cert)
    assert find_diagonal_sos(p) is None


def test_diagonal_sos_reads_off_higher_degrees_and_cross_terms():
    """(sum of 8 squares)^4 has 330 terms and degree 8; the cross term of
    y0^4 + 10 y0^2 y1^2 + y1^4 fits no 0/1 diagonal quadratic form."""
    ys = MultiPoly.variables(tuple(f"y{i}" for i in range(8)))
    norm = ys[0] * ys[0]
    for v in ys[1:]:
        norm = norm + v * v
    octo = norm**4
    assert len(octo.terms) == 330
    y0, y1 = MultiPoly.variables(("y0", "y1"))
    mixed = y0**4 + 10 * y0 * y0 * y1 * y1 + y1**4
    for p in (octo, mixed):
        cert = find_diagonal_sos(p)
        assert cert is not None and certifies_positive_definite(p, cert)
        assert all(len(base.terms) == 1 for _, base in cert.parts)


def test_positive_definite_needs_every_variable_pinned():
    """y0^4 + y0^2 y1^2 is a verified SOS but vanishes at (0, 1): the
    monomial y0*y1 pins no variable, so y1 stays uncovered."""
    y0, y1 = MultiPoly.variables(("y0", "y1"))
    p = y0**4 + y0 * y0 * y1 * y1
    cert = SosCertificate(((Fraction(1), y0 * y0), (Fraction(1), y0 * y1)))
    assert verify_sos(p, cert)
    assert p.evaluate((0, 1)) == 0
    assert not certifies_positive_definite(p, cert)
    assert find_diagonal_sos(p) is None


@st.composite
def _even_positive_polys(draw):
    """(p, every variable has a pure even power) for random p with even
    exponents and positive coefficients."""
    nvars = draw(st.integers(2, 4))
    names = tuple(f"y{i}" for i in range(nvars))
    halves = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = draw(st.dictionaries(halves, st.integers(1, 9), min_size=1, max_size=6))
    p = MultiPoly(names, {tuple(2 * k for k in h): c for h, c in terms.items()})
    pure = {
        next(i for i, k in enumerate(h) if k)
        for h in terms
        if sum(1 for k in h if k) == 1
    }
    return p, pure == set(range(nvars))


@settings(max_examples=80, deadline=None)
@given(_even_positive_polys(), st.data())
def test_diagonal_sos_certifies_exactly_the_pinned_polynomials(case, data):
    p, pinned = case
    cert = find_diagonal_sos(p)
    assert (cert is not None) == pinned
    if cert is None:
        return
    assert certifies_positive_definite(p, cert)
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    for _ in range(5):
        point = data.draw(st.tuples(*[coord] * len(p.vars)))
        if any(point):
            assert p.evaluate(point) > 0


def test_perfect_square_root():
    y0, y1, _, _ = _ys()
    q = y0 * y0 - 2 * y0 * y1 + y1 * y1
    r = perfect_square_root(q)
    assert r is not None and (r * r - q).is_zero
    assert perfect_square_root(y0 * y0 + y1 * y1) is None


def test_find_sign_change_indefinite():
    p = MultiPoly(("y0", "y1"), {(2, 0): 1, (0, 2): -1})
    w = find_sign_change(p)
    assert w is not None
    assert w.positive_value > 0 and w.nonpositive_value <= 0
    assert any(w.nonpositive_point)


def test_find_sign_change_absent_for_positive_definite():
    """Oracle: direct evaluation at every integer grid point in [-3,3]^4."""
    y0, y1, y2, y3 = _ys()
    p = (y0 * y0 + y2 * y2) ** 2 + (y1 * y1 + y3 * y3) ** 2
    assert find_sign_change(p) is None
    import itertools

    for pt in itertools.product(range(-3, 4), repeat=4):
        if any(pt):
            assert p.evaluate(pt) > 0


def _reference_sign_change(p):
    """The first positive and first nonpositive probe, by full evaluation."""
    positive = nonpositive = None
    for pt in structured_probes(len(p.vars)):
        v = p.evaluate(pt)
        if v > 0:
            positive = positive or (pt, v)
        elif nonpositive is None:
            nonpositive = (pt, v)
        if positive and nonpositive:
            return positive, nonpositive
    return None


@st.composite
def _probe_polys(draw):
    """Polynomials in 1-5 variables: homogeneous or not, with int or
    Fraction coefficients, and constants and 0.  One variable has no
    probe slice, so the search finds nothing."""
    nvars = draw(st.integers(1, 5))
    names = tuple(f"y{i}" for i in range(nvars))
    coeff = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )
    kind = draw(st.sampled_from(
        ("homogeneous", "mixed", "definite", "constant", "zero")
    ))
    if kind == "zero":
        return MultiPoly.zero(names)
    if kind == "constant":
        return MultiPoly.constant(names, draw(coeff))
    if kind == "homogeneous":
        degree = draw(st.integers(1, 4))
        sizes = {"min_size": degree, "max_size": degree}
    else:
        sizes = {"min_size": 0, "max_size": 4}
    exponent = st.lists(st.integers(0, nvars - 1), **sizes).map(
        lambda idx: tuple(idx.count(i) for i in range(nvars))
    )
    if kind != "definite":
        return MultiPoly(names, draw(st.dictionaries(exponent, coeff, max_size=8)))
    # even exponents and one-signed coefficients make many slices
    # sign-definite, which random exponents almost never do; a few
    # random terms may break that on some slices
    sign = draw(st.sampled_from((1, -1)))
    even = exponent.map(lambda e: tuple(2 * k for k in e))
    terms = draw(st.dictionaries(
        even, coeff.filter(bool).map(lambda c: sign * abs(c)), min_size=1, max_size=6
    ))
    terms.update(draw(st.dictionaries(exponent, coeff, max_size=2)))
    return MultiPoly(names, terms)


def _assert_matches_reference(p):
    """``find_sign_change(p)`` has the reference walk's points and values,
    the values as Fractions."""
    found = find_sign_change(p)
    expected = _reference_sign_change(p)
    if expected is None:
        assert found is None
        return
    (pos, pos_value), (nonpos, nonpos_value) = expected
    assert (found.positive_point, found.nonpositive_point) == (pos, nonpos)
    assert (found.positive_value, found.nonpositive_value) == (
        pos_value, nonpos_value
    )
    assert type(found.positive_value) is Fraction
    assert type(found.nonpositive_value) is Fraction


@settings(max_examples=120, deadline=None)
@given(_probe_polys())
def test_find_sign_change_matches_full_evaluation(p):
    """The integer slice kernel, skipping sign-definite slices, finds the
    reference walk's points and values, always as Fractions."""
    _assert_matches_reference(p)


def _slice_rule_cases():
    y0, y1, y2 = MultiPoly.variables(("y0", "y1", "y2"))
    z0, z1, z2, z3 = _ys()
    half = Fraction(1, 2)
    return {
        # the y1-y2 slice has no term: p reads 0 there, which is <= 0
        "empty-slice-is-nonpositive": y0 * y0,
        # y0^3 y3 lives only on slices with y0 and y3 nonzero
        "odd-term-off-the-slice": z0**3 * z3 + z0 * z0 * z1 * z1,
        # -y0^2 - 3 y1^4 is < 0 on the y0-y1 plane; y2 y3 changes sign later
        "negative-definite-slice": -(z0 * z0) - 3 * z1**4 + z2 * z3,
        # > 0 on the slices with y0 or y1, < 0 on the y2-y3 plane
        "definite-slices-of-both-signs": z0 * z0 + z1 * z1 - z2 * z2 * z3 * z3,
        "positive-constant": MultiPoly.constant(YVARS, 3),
        "negative-constant": MultiPoly.constant(YVARS, -2),
        "zero": MultiPoly.zero(YVARS),
        "fraction-definite": Fraction(2, 3) * z0**4 + Fraction(5, 7) * z1 * z1,
        "fraction-indefinite": y0 * y0 - Fraction(5, 2) * y0 * y1 + y1 * y1
        + half * y2**4,
        "fraction-negative-then-odd": -Fraction(1, 3) * y0 * y0 * y1 * y1
        + Fraction(7, 4) * y1 * y2**3,
        # <= 0 at (1, 1, 0); the positive point (1, 1/2, 0) has D = 2, and
        # the y0 term and the constant have deficits d - |e| of 1 and 2
        "half-coordinate-positive-point": 2 * y0 - 4 * y1 * y1 + Fraction(1, 3),
        # both kept points, (1, 2, 2) and (1, 1, 0), have D = 1
        "int-points-fraction-coefficients": y0 * y1 * y2 + Fraction(1, 3) * y0
        - Fraction(5, 2),
    }


@pytest.mark.parametrize("name, positive, nonpositive", [
    ("half-coordinate-positive-point", (1, Fraction(1, 2), 0), (1, 1, 0)),
    ("int-points-fraction-coefficients", (1, 2, 2), (1, 1, 0)),
])
def test_slice_rule_cases_keep_the_points_they_are_built_for(
    name, positive, nonpositive
):
    witness = find_sign_change(_slice_rule_cases()[name])
    assert (witness.positive_point, witness.nonpositive_point) == (
        positive, nonpositive
    )


@pytest.mark.parametrize("name", sorted(_slice_rule_cases()))
def test_sign_definite_slices_keep_the_reference_witness(name):
    _assert_matches_reference(_slice_rule_cases()[name])


def test_sign_change_search_matches_the_reference_on_raw_determinants():
    """Every det M^L of the raw Z2xZ2 and Z4 tables (512 each)."""
    dets = [
        det_polynomial(cand.constant)
        for group in ("Z2xZ2", "Z4")
        for cand in enumerate_candidates(group, LEFT_STANDARD, RAW)
    ]
    assert len(dets) == 1024
    for p in dets:
        _assert_matches_reference(p)


def test_order_eight_norm_power_has_no_sign_change(monkeypatch):
    """(y0^2 + ... + y7^2)^4 is positive on all 70 912 probes of 8
    variables.  Every slice is positive-definite, so the search draws one
    probe, where walking them all took about 20 s.  Each draw from
    ``poly._slice_draws`` is recorded as the full point it stands for."""
    ys = MultiPoly.variables(tuple(f"y{i}" for i in range(8)))
    norm = ys[0] * ys[0]
    for v in ys[1:]:
        norm = norm + v * v
    drawn = []
    slice_draws = POLY._slice_draws

    def counted(nonzero, den):
        for values, scaled in slice_draws(nonzero, den):
            point = [0] * 8
            for i, v in zip(nonzero, values):
                point[i] = v
            drawn.append(tuple(point))
            yield values, scaled

    monkeypatch.setattr(POLY, "_slice_draws", counted)
    assert find_sign_change(norm**4) is None
    assert drawn == [(1, 1, 0, 0, 0, 0, 0, 0)]


@pytest.mark.parametrize("nvars", range(1, 7))
def test_each_slice_draws_its_values_and_their_int_multiples(nvars):
    """On every slice the second draw is D times the first, as ints, and
    D clears every value: 2 on pair slices, 1 on the others."""
    for nonzero, den in POLY._probe_slices(nvars):
        assert den == (2 if len(nonzero) == 2 else 1)
        for values, scaled in POLY._slice_draws(nonzero, den):
            assert len(values) == len(scaled) == len(nonzero)
            assert all(type(x) is int for x in scaled)
            assert scaled == tuple(den * v for v in values)


def test_layout_reads_an_exponent_once():
    POLY._layout.cache_clear()
    assert POLY._layout((2, 0, 1, 0)) == (0b101, ((0, 2), (2, 1)), 3, False)
    assert POLY._layout((0, 4, 0, 2)) == (0b1010, ((1, 4), (3, 2)), 6, True)
    assert POLY._layout((0, 0)) == (0, (), 0, True)
    assert POLY._layout((2, 0, 1, 0)) == (0b101, ((0, 2), (2, 1)), 3, False)
    assert POLY._layout.cache_info()[:2] == (1, 3)  # (hits, misses)


def test_structured_probes_exclude_origin():
    for pt in structured_probes(4):
        assert any(pt)


@pytest.mark.parametrize("n,length", [
    (1, 0), (2, 64), (3, 256), (4, 896),
    (5, 2304), (6, 6336), (7, 19968), (8, 70912),
])
def test_structured_probes_pinned_order(n, length):
    """Three stages with supports of exactly 2, 3 and n components, in
    that order; no point repeats and the origin never appears."""
    points = list(structured_probes(n))
    assert len(points) == length
    assert len(set(points)) == length
    assert all(any(pt) for pt in points)
    pairs, triples = 64 * math.comb(n, 2), 64 * math.comb(n, 3)
    supports = [sum(1 for x in pt if x) for pt in points]
    assert supports == [2] * pairs + [3] * triples + [n] * (length - pairs - triples)
    firsts = {
        0: (1, 1) + (0,) * (n - 2),
        pairs: (0,) * (n - 3) + (1, 1, 1),
        pairs + triples: (1,) * n,
    }
    for index, point in firsts.items():
        if index < length:
            assert points[index] == point


# sha256 of repr(list(structured_probes(n))), taken from the generator that
# drew full points, so they pin the probe order apart from ``_slice_draws``;
# the repr pins each value and its type (1/2 a Fraction, 2 an int).
PROBE_DIGESTS = {
    2: "ae8f36115dbcb2767368747a5d208ffd147ab6c60cf40179b20840faf30158bf",
    3: "5e402a8e080a7219148b216e87a09f274c607ec76be637f377aed06c5c67d33d",
    4: "535f2568652d2c1329a6114526a0ba394254a9394c9a6609231ee9ccef56c9b4",
    5: "5dd276c6b2fa90ceb21d02c28dc77ad02932631dd0fa17f0ef829c4f0a7361a2",
}


@pytest.mark.parametrize("n", sorted(PROBE_DIGESTS))
def test_structured_probes_digest_is_pinned(n):
    text = repr(list(structured_probes(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == PROBE_DIGESTS[n]


def test_real_root_decisions():
    assert count_real_roots([-2, 0, 0, 1]) == 1  # s^3 - 2
    assert count_real_roots([1, 0, 1]) == 0  # s^2 + 1
    assert count_real_roots([-4, 0, 0, 0, 1]) == 2  # s^4 - 4


@pytest.mark.parametrize(
    "coeffs",
    [
        [-2, 0, 1],            # s^2 - 2
        [-4, 0, 0, 0, 1],      # s^4 - 4
        [2, -3, 0, 1],         # s^3 - 3s + 2 (double root at 1)
        [1, 0, 1],             # no real roots
        [-6, 11, -6, 1],       # (s-1)(s-2)(s-3)
    ],
)
def test_sturm_count_matches_sympy(coeffs):
    """Oracle: sympy's real root counting on the same polynomial."""
    s = sympy.Symbol("s")
    poly = sum(sympy.Integer(c) * s**k for k, c in enumerate(coeffs))
    distinct = len(set(sympy.Poly(poly, s).real_roots()))
    assert count_real_roots([Fraction(c) for c in coeffs]) == distinct


def test_real_root_edge_cases():
    with pytest.raises(ValueError, match="empty"):
        count_real_roots([])
    with pytest.raises(ValueError, match="empty"):
        isolate_real_root([])
    with pytest.raises(ValueError, match="lo 2 > hi 1"):
        count_real_roots([-2, 0, 1], 2, 1)
    assert count_real_roots([-2, 0, 1], 1, 1) == 0


@pytest.mark.parametrize("zero", [[0], [Fraction(0)], [0, 0, 0]])
def test_the_zero_polynomial_is_refused(zero):
    """The zero polynomial vanishes everywhere, so neither a count nor an
    isolating interval says anything about it."""
    with pytest.raises(ValueError, match="zero polynomial"):
        count_real_roots(zero)
    with pytest.raises(ValueError, match="zero polynomial"):
        count_real_roots(zero, -1, 1)
    with pytest.raises(ValueError, match="zero polynomial"):
        isolate_real_root(zero)


def test_isolate_real_root_brackets_a_root():
    lo, hi = isolate_real_root([Fraction(-2), Fraction(0), Fraction(1)])
    sf = squarefree_part([Fraction(-2), Fraction(0), Fraction(1)])
    assert count_real_roots(sf, lo, hi) == 1
    assert uni_eval(sf, lo) * uni_eval(sf, hi) <= 0
    assert isolate_real_root([Fraction(1), Fraction(0), Fraction(1)]) is None


def test_isolate_real_root_builds_one_sturm_chain(monkeypatch):
    """Every bisection step counts sign variations against one chain."""
    calls = []
    chain = POLY.sturm_chain

    def counting(coeffs):
        calls.append(coeffs)
        return chain(coeffs)

    monkeypatch.setattr(POLY, "sturm_chain", counting)
    interval = isolate_real_root([Fraction(c) for c in (-4, 0, 0, 0, 1)])
    assert len(calls) == 1
    assert interval == (Fraction(-185, 128), Fraction(-45, 32))  # -sqrt(2)


def test_bisection_evaluates_the_chain_once_per_step(monkeypatch):
    """The chain is evaluated at both ends of the Cauchy interval, then
    once per step: (-5, 5] halves 8 times to the width 5/128."""
    calls = []
    variations = POLY._variations

    def counting(chain, a, b):
        calls.append(Fraction(a, b))
        return variations(chain, a, b)

    monkeypatch.setattr(POLY, "_variations", counting)
    lo, hi = isolate_real_root([-4, 0, 0, 0, 1])
    assert hi - lo == Fraction(5, 128) and len(calls) == 2 + 8


def _sympy_rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=7).filter(
        lambda c: c[-1] != 0
    )
)
def test_sturm_code_against_sympy_oracle(coeffs):
    """Distinct real roots agree with sympy's count, and the isolating
    interval (lo, hi] holds exactly one of them.  sympy counts over the
    closed interval, so a root at lo is taken off."""
    oracle = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("s"))
    coeffs = [Fraction(c) for c in coeffs]
    assert count_real_roots(coeffs) == oracle.count_roots()
    interval = isolate_real_root(coeffs)
    if oracle.count_roots() == 0:
        assert interval is None
        return
    lo, hi = (_sympy_rational(x) for x in interval)
    at_lo = 1 if oracle.eval(lo) == 0 else 0
    assert oracle.count_roots(lo, hi) - at_lo == 1


def test_homogeneous_determinant_degree():
    """det M^L of any unital sign constant is homogeneous of degree |G|."""
    from twistdiv.classify import det_polynomials, enumerate_candidates
    from twistdiv.groups import LEFT_STANDARD

    rng = random.Random(4)
    candidates = enumerate_candidates("Z4", LEFT_STANDARD, "raw")
    for cand in rng.sample(candidates, 12):
        det_l, det_r = det_polynomials(cand.constant)
        assert det_l.is_homogeneous() and det_l.degree() == 4
        assert det_r.is_homogeneous() and det_r.degree() == 4


def test_nonzero_point_reaches_past_the_roots():
    """x^3 - x vanishes on {0, 1, -1}; the box {0..3} must reach 2."""
    (x,) = MultiPoly.variables(("x",))
    p = x**3 - x
    point = nonzero_point(p)
    assert point == (2,) and p.evaluate(point) != 0


def test_nonzero_point_multivariate_residual():
    y0, y1, y2, y3 = _ys()
    # vanishes on {0, 1}^4 and wherever y0 = y1, yet is nonzero
    p = (y0 - y1) * (y0**2 - y0) * y2 * (y3 + 5)
    point = nonzero_point(p)
    assert p.evaluate(point) != 0
    top = max(sum(e) for e in p.terms)
    assert all(0 <= v <= top for v in point)


def test_nonzero_point_rejects_the_zero_polynomial():
    with pytest.raises(ValueError):
        nonzero_point(MultiPoly.zero(YVARS))


def test_psd_sos_of_an_exact_square_and_of_an_indefinite_quartic():
    """A square of a signed sum of squares is its own one-part
    certificate; y0^4 - y1^4 takes negative values and has none."""
    y0, y1, y2 = MultiPoly.variables(("y0", "y1", "y2"))
    q = y0 * y0 - y1 * y1 + y2 * y2
    cert = find_psd_sos(q * q)
    assert cert is not None and cert.parts == ((1, q),)
    assert verify_sos(q * q, cert)
    assert find_psd_sos(y0**4 - y1**4) is None


# -- reference oracle: the classical Sturm route over the rationals -------
#
# Remainders by Fraction long division, the squarefree part p / gcd(p, p')
# with a monic gcd, and bisection that counts roots in (lo, mid] from
# scratch at each step.  The integer core must give the same counts and
# intervals, and chains that are positive multiples of these.


def uni_eval(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _oracle_derivative(coeffs):
    if len(coeffs) <= 1:
        return [Fraction(0)]
    return [Fraction(k * c) for k, c in enumerate(coeffs)][1:]


def _oracle_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = _trim([Fraction(c) for c in b])
    db = len(b) - 1
    q = [Fraction(0)] * max(1, len(a) - db)
    r = list(a)
    while len(r) - 1 >= db and any(c != 0 for c in r):
        f = r[-1] / b[-1]
        shift = len(r) - 1 - db
        q[shift] = f
        for i in range(db + 1):
            r[shift + i] -= f * b[i]
        r = _trim(r)
        if all(c == 0 for c in r):
            break
    return _trim(q), _trim(r)


def _oracle_gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while any(c != 0 for c in b):
        a, b = b, _oracle_divmod(a, b)[1]
    if all(c == 0 for c in a):
        return [Fraction(0)]
    return [c / a[-1] for c in a]


def oracle_squarefree_part(coeffs):
    g = _oracle_gcd(coeffs, _oracle_derivative(coeffs))
    if len(g) == 1:
        return _trim([Fraction(c) for c in coeffs])
    return _oracle_divmod(coeffs, g)[0]


def oracle_sturm_chain(coeffs):
    p0 = _trim([Fraction(c) for c in coeffs])
    chain = [p0, _oracle_derivative(p0)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        r = _oracle_divmod(chain[-2], chain[-1])[1]
        if all(c == 0 for c in r):
            break
        chain.append([-c for c in r])
        if len(chain[-1]) == 1:
            break
    return chain


def _oracle_roots_between(chain, lo, hi):
    def variations(x):
        values = [v for v in (uni_eval(c, x) for c in chain) if v != 0]
        return sum(1 for a, b in zip(values, values[1:]) if a * b < 0)

    return variations(lo) - variations(hi)


def _oracle_bound(coeffs):
    lead = abs(coeffs[-1])
    return 1 + max((abs(c) / lead for c in coeffs[:-1]), default=Fraction(0))


def oracle_count_real_roots(coeffs, lo=None, hi=None):
    sf = oracle_squarefree_part(coeffs)
    if len(sf) == 1:
        return 0
    bound = _oracle_bound(sf)
    return _oracle_roots_between(
        oracle_sturm_chain(sf),
        -bound if lo is None else lo,
        bound if hi is None else hi,
    )


def oracle_isolate_real_root(coeffs):
    sf = oracle_squarefree_part(coeffs)
    if len(sf) == 1:
        return None
    chain = oracle_sturm_chain(sf)
    bound = _oracle_bound(sf)
    lo, hi = -bound, bound
    if _oracle_roots_between(chain, lo, hi) == 0:
        return None
    while _oracle_roots_between(chain, lo, hi) > 1 or hi - lo > Fraction(1, 16):
        mid = (lo + hi) / 2
        if _oracle_roots_between(chain, lo, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _expand(factors, scale):
    """Ascending coefficients of scale * prod(factors)."""
    coeffs = [scale]
    for f in factors:
        out = [Fraction(0)] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return coeffs


_RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=6)
# den * t - num has the root num / den, dyadic for den in {1, 2, 4, 8}, so
# it can land on a bisection midpoint; a factor drawn twice is a repeated
# root, t^2 - k an irrational or no real root
_LINEAR = st.builds(
    lambda num, den: [Fraction(-num), Fraction(den)],
    st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 8)),
)
_QUADRATIC = st.builds(
    lambda k: [Fraction(-k), Fraction(0), Fraction(1)], st.integers(-3, 5)
)
_POLYNOMIALS = st.one_of(
    st.lists(_RATIONALS, min_size=1, max_size=7).filter(lambda c: c[-1] != 0),
    st.builds(
        _expand,
        st.lists(st.one_of(_LINEAR, _QUADRATIC), min_size=1, max_size=5),
        _RATIONALS.filter(bool),
    ),
)
_ENDS = st.one_of(st.none(), st.fractions(min_value=-8, max_value=8,
                                          max_denominator=8))


def _positive_multiple(ints, fractions):
    """True iff ``ints`` is lambda * ``fractions`` for some lambda > 0."""
    if not any(fractions):
        return ints == [0] and fractions == [0]
    scale = Fraction(ints[-1]) / fractions[-1]
    return len(ints) == len(fractions) and scale > 0 and all(
        i == scale * f for i, f in zip(ints, fractions)
    )


@settings(max_examples=300, deadline=None)
@given(_POLYNOMIALS, _ENDS, _ENDS)
# t (2t - 1) (t + 3): roots -3, 0 and 1/2, a bisection midpoint
@example([0, -3, 5, 2], Fraction(1, 4), Fraction(3, 4))
@example([0, -3, 5, 2], None, None)
@example([Fraction(1, 2), 0, Fraction(-1, 4)], None, None)  # -(t^2 - 2) / 4
@example([-8, 12, -6, 1], 0, 2)  # (t - 2)^3
@example([0, 0, 4, 0, -1], None, None)  # t^2 (4 - t^2)
def test_integer_sturm_core_matches_the_fraction_oracle(coeffs, lo, hi):
    """Counts, intervals, squarefree parts and chains of the integer core
    agree with the classical Fraction route: counts and intervals exactly,
    polynomials up to a positive factor, with int coefficients."""
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    sf = squarefree_part(coeffs)
    assert _positive_multiple(sf, oracle_squarefree_part(coeffs))
    for chain, oracle in ((sturm_chain(coeffs), oracle_sturm_chain(coeffs)),
                          (sturm_chain(sf), oracle_sturm_chain(sf))):
        assert all(type(c) is int for member in chain for c in member)
        assert len(chain) == len(oracle)
        assert all(map(_positive_multiple, chain, oracle))
    assert count_real_roots(coeffs) == oracle_count_real_roots(coeffs)
    assert count_real_roots(coeffs, lo, hi) == oracle_count_real_roots(coeffs, lo, hi)
    interval = oracle_isolate_real_root(coeffs)
    if interval is not None:
        assert count_real_roots(coeffs, *interval) == 1
    # last: with wrong counts the bisection need not end
    assert isolate_real_root(coeffs) == interval
