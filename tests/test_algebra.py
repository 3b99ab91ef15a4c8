import json
import random
import time
from fractions import Fraction

import pytest

from twistdiv.algebra import (
    IntegersModP,
    ModInt,
    StructureConstant,
    TwistedAlgebra,
    complex_algebra,
    quaternion_algebra,
    tesseranion_algebra,
)
from twistdiv.groups import LEFT_STANDARD, group_by_name
from twistdiv.poly import MultiPoly, symbolic_det


def tes_product_oracle(x, y):
    """The explicit 4-component product formula, used as an independent
    oracle for the Cayley-table product route."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 - x2 * y2 - x1 * y3 + x3 * y1,
        x0 * y1 + x2 * y3 + x1 * y0 - x3 * y2,
        x0 * y2 + x2 * y0 + x1 * y1 + x3 * y3,
        x0 * y3 - x2 * y1 + x1 * y2 + x3 * y0,
    ]


def test_product_frozen_examples():
    T = tesseranion_algebra()
    p = T.element([1, 1, 0, 0])
    assert (p * p).coeffs == (1, 2, 1, 0)
    s, t = T.element([1, 1, 1, 0]), T.element([1, -1, 1, 0])
    assert (s * t).coeffs == (0, 0, 1, 2)
    y = T.element([3, -2, 5, 7])
    assert (T.one() * y) == y and (y * T.one()) == y


def test_product_matches_component_formula_on_random():
    rng = random.Random(12)
    T = tesseranion_algebra()
    for _ in range(50):
        xc = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        yc = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        out = (T.element(xc) * T.element(yc)).coeffs
        assert list(out) == tes_product_oracle(xc, yc)


def test_product_matches_component_formula_symbolically():
    T = tesseranion_algebra()
    x, y = T.generic_elements("x", "y")
    got = (x * y).coeffs
    want = tes_product_oracle(list(x.coeffs), list(y.coeffs))
    assert all((a - b).is_zero for a, b in zip(got, want))


def test_bilinearity_random():
    rng = random.Random(3)
    T = quaternion_algebra()
    for _ in range(25):
        a, b, c = (
            T.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)])
            for _ in range(3)
        )
        assert (a + b) * c == a * c + b * c
        assert c * (a + b) == c * a + c * b
    assert (T.zero() * a).is_zero() and (a * T.zero()).is_zero()


def test_grading_of_basis_products():
    for A in (complex_algebra(), quaternion_algebra(), tesseranion_algebra()):
        n = A.group.order
        for a in range(n):
            for b in range(n):
                prod = A.basis_element(a) * A.basis_element(b)
                assert prod.support() == {A.group.mul(a, b)}


def test_mult_matrix_consistency():
    rng = random.Random(8)
    for A in (complex_algebra(), quaternion_algebra(), tesseranion_algebra()):
        n = A.group.order
        for _ in range(20):
            x = A.element([Fraction(rng.randint(-5, 5)) for _ in range(n)])
            y = A.element([Fraction(rng.randint(-5, 5)) for _ in range(n)])
            prod = (x * y).coeffs
            ml = A.mult_matrix_left(y)
            mr = A.mult_matrix_right(x)
            via_l = [sum(ml[c][a] * x.coeffs[a] for a in range(n)) for c in range(n)]
            via_r = [sum(mr[c][b] * y.coeffs[b] for b in range(n)) for c in range(n)]
            assert via_l == list(prod) and via_r == list(prod)


def test_complex_mult_matrices_closed_form():
    C = complex_algebra()
    (y,) = C.generic_elements("y")
    y0, y1 = MultiPoly.variables(("y0", "y1"))
    assert C.mult_matrix_left(y) == [[y0, -y1], [y1, y0]]
    (x,) = C.generic_elements("y")
    assert C.mult_matrix_right(x) == [[y0, -y1], [y1, y0]]


def test_mult_matrix_at_unit_is_identity():
    T = tesseranion_algebra()
    ml = T.mult_matrix_left(T.one())
    assert ml == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    mr = T.mult_matrix_right(T.one())
    assert mr == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_mult_matrix_right_columns_reproduce_products():
    T = tesseranion_algebra()
    w = T.element([0, 1, 0, 0])
    mr = T.mult_matrix_right(w)
    for b in range(4):
        col = [mr[c][b] for c in range(4)]
        assert col == list((w * T.basis_element(b)).coeffs)


def test_parametric_mult_matrix_layout():
    """The generic order-4 table produces the documented M^L layout."""
    for alpha, beta, delta, epsilon, phi, omega in [
        (2, -3, 5, 7, -1, 4), (-1, -1, 1, 1, -1, 1),
    ]:
        values = [
            [1, 1, 1, 1],
            [1, 1, 1, Fraction(alpha)],
            [1, Fraction(beta), -1, Fraction(delta)],
            [1, Fraction(epsilon), Fraction(phi), Fraction(omega)],
        ]
        A = TwistedAlgebra(
            StructureConstant(group_by_name("Z4"), values, LEFT_STANDARD)
        )
        y = A.element([2, 3, 5, 7])
        y0, y1, y2, y3 = y.coeffs
        expected = [
            [y0, alpha * y3, -y2, epsilon * y1],
            [y1, y0, delta * y3, phi * y2],
            [y2, y1, y0, omega * y3],
            [y3, y2, beta * y1, y0],
        ]
        assert A.mult_matrix_left(y) == expected


def test_conjugation():
    T = tesseranion_algebra()
    x = T.element([1, 2, 3, 4])
    assert x.conj().coeffs == (1, -2, -3, -4)
    assert x.conj().conj() == x
    assert (x + x.conj()).support() <= {0}
    w = T.element([0, 1, 0, 0])
    assert (w * w.conj()).coeffs == (0, 0, -1, 0)
    H = quaternion_algebra()
    (hx,) = H.generic_elements("x")
    prod = hx * hx.conj()
    x0, x1, x2, x3 = MultiPoly.variables(("x0", "x1", "x2", "x3"))
    norm = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    assert (prod.coeffs[0] - norm).is_zero
    assert all(c.is_zero for c in prod.coeffs[1:])


def test_conjugation_unsupported_group():
    G = group_by_name("Z8")
    values = [[1] * 8 for _ in range(8)]
    A = TwistedAlgebra(StructureConstant(G, values, LEFT_STANDARD))
    with pytest.raises(ValueError):
        A.conjugate(A.one())


def test_conjugate_of_product_relation():
    """conj(x*y) is reproduced by the generator-sandwich expression."""
    T = tesseranion_algebra()
    x, y = T.generic_elements("x", "y")
    w = T.element([0, 1, 0, 0])
    w3 = T.element([0, 0, 0, 1])
    lhs = (x * y).conj()
    rhs = w3 * (((w3 * (y.conj() * w)) * (w3 * (x.conj() * w))) * w)
    assert all((a - b).is_zero for a, b in zip(lhs.coeffs, rhs.coeffs))


def test_opposite_algebra():
    rng = random.Random(2)
    for A in (quaternion_algebra(), tesseranion_algebra()):
        op = A.opposite()
        n = A.group.order
        assert op.constant.values == tuple(
            tuple(A.constant(b, a) for b in range(n)) for a in range(n)
        )
        assert op.opposite().constant == A.constant
        assert op.constant.convention != A.constant.convention
        for _ in range(10):
            x = A.element([rng.randint(-4, 4) for _ in range(n)])
            y = A.element([rng.randint(-4, 4) for _ in range(n)])
            assert (op.product(op.element(x.coeffs), op.element(y.coeffs))).coeffs == (
                (y * x).coeffs
            )


@pytest.mark.parametrize("group_name", ["D4", "Q8"])
def test_opposite_refuses_a_non_abelian_grading(group_name):
    """Transposing C keeps G's Cayley table, so on a non-abelian grading
    the transposed algebra does not reverse products: with C = 1, 24 of
    the 64 basis products differ from the reversed ones."""
    group = group_by_name(group_name)
    n = group.order
    A = TwistedAlgebra(StructureConstant(group, [[1] * n] * n))
    transposed = TwistedAlgebra(A.constant.transpose())

    def differs(a, b):
        forward = transposed.basis_element(a) * transposed.basis_element(b)
        return forward.coeffs != (A.basis_element(b) * A.basis_element(a)).coeffs

    assert sum(differs(a, b) for a in range(n) for b in range(n)) == 24
    with pytest.raises(ValueError, match=group_name):
        A.opposite()


def test_right_standard_basis_of_opposite_is_sign_rescale():
    """The basis (1, w, w^2, w^2 w) = (1, w, w^2, -w^3) carries the
    transposed constant: flipping the last basis vector's sign maps the
    Z4 survivor's table onto its transpose."""
    T = tesseranion_algebra()
    n = 4
    signs = (1, 1, 1, -1)
    rescaled = [
        [signs[a] * signs[b] * signs[(a + b) % 4] * T.constant(a, b)
         for b in range(n)]
        for a in range(n)
    ]
    assert tuple(tuple(r) for r in rescaled) == T.constant.transpose().values


def test_symbolic_det_with_symbolic_structure_parameter():
    """2x2 left-multiplication determinant with the table entry symbolic."""
    names = ("alpha", "y0", "y1")
    alpha, y0, y1 = MultiPoly.variables(names)
    m = [[y0, alpha * y1], [y1, y0]]
    assert symbolic_det(m) == y0 * y0 - alpha * y1 * y1


def test_json_round_trip_table_v_encoding():
    """The documented JSON encoding of the Z4 survivor round-trips."""
    doc = {
        "group": "Z4",
        "basis": "left-standard",
        "ring": "rational",
        "C": [[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, -1, 1], [1, 1, -1, 1]],
    }
    A = TwistedAlgebra.from_json(doc)
    assert A.constant == tesseranion_algebra().constant
    assert A.to_json() == doc
    assert json.loads(json.dumps(A.to_json())) == doc


@pytest.mark.parametrize(
    "left, right",
    [
        (tesseranion_algebra(), tesseranion_algebra(IntegersModP(7))),
        (tesseranion_algebra(), quaternion_algebra()),
        (tesseranion_algebra(), complex_algebra()),
        (complex_algebra(), tesseranion_algebra()),
    ],
    ids=["T-T7", "T-H", "T-C", "C-T"],
)
def test_ring_mismatch_rejected(left, right):
    with pytest.raises(ValueError, match="different algebras"):
        left.basis_element(1) * right.basis_element(1)
    with pytest.raises(ValueError, match="different algebras"):
        left.product(left.one(), right.one())


@pytest.mark.parametrize(
    "method", ["mult_matrix_left", "mult_matrix_right", "left_inverse", "right_inverse"]
)
@pytest.mark.parametrize(
    "foreign", [quaternion_algebra(), complex_algebra()], ids=["T-H", "T-C"]
)
def test_matrices_and_inverses_reject_foreign_elements(foreign, method):
    y = foreign.element([1, 1] + [0] * (foreign.group.order - 2))
    with pytest.raises(ValueError, match="elements belong to different algebras"):
        getattr(tesseranion_algebra(), method)(y)


def test_structure_constant_validation():
    G = group_by_name("Z2")
    with pytest.raises(ValueError):
        StructureConstant(G, [[1, 2], [1, 1]])  # not unital? 2 in identity row
    with pytest.raises(ValueError):
        StructureConstant(G, [[1, 1], [1, 0]])  # zero entry
    with pytest.raises(ValueError):
        StructureConstant(G, [[1, 1]], LEFT_STANDARD)  # wrong shape


def test_mod_int_arithmetic():
    a = ModInt(5, 7)
    assert a + 4 == ModInt(2, 7)
    assert (a * a).value == 4
    assert (-a).value == 2
    assert a.inverse() * a == ModInt(1, 7)
    assert a**3 == ModInt(6, 7)
    with pytest.raises(ZeroDivisionError):
        ModInt(0, 7).inverse()
    with pytest.raises(ValueError):
        IntegersModP(2)
    with pytest.raises(ValueError):
        IntegersModP(9)


@pytest.mark.parametrize("p", [7.0, True], ids=["float", "bool"])
def test_modulus_must_be_an_int(p):
    with pytest.raises(ValueError):
        IntegersModP(p)


def test_mod_p_products_match_rational_reduction():
    rng = random.Random(77)
    T = tesseranion_algebra()
    Tp = tesseranion_algebra(IntegersModP(11))
    for _ in range(25):
        xc = [rng.randint(0, 10) for _ in range(4)]
        yc = [rng.randint(0, 10) for _ in range(4)]
        exact = (T.element(xc) * T.element(yc)).coeffs
        modular = (Tp.element(xc) * Tp.element(yc)).coeffs
        assert [v.value for v in modular] == [int(c) % 11 for c in exact]


def test_left_right_inverse_solves():
    T = tesseranion_algebra()
    x = T.element([1, 2, 0, -1])
    li = T.left_inverse(x)
    ri = T.right_inverse(x)
    assert li * x == T.one()
    assert x * ri == T.one()
    with pytest.raises(ZeroDivisionError):
        T.left_inverse(T.zero())


@pytest.mark.parametrize("method", ["left_inverse", "right_inverse"])
def test_inverse_solves_name_the_ring_over_z_p(method):
    Tp = tesseranion_algebra(IntegersModP(7))
    with pytest.raises(ValueError, match="mod-7.*norms.inverse_formulas"):
        getattr(Tp, method)(Tp.element([1, 2, 0, 0]))


def test_moduli_are_certified_by_miller_rabin():
    """2^61 - 1 is a Mersenne prime, out of reach of trial division; the
    second modulus is a strong pseudoprime to the twelve bases 2..37, and
    the last is beyond the bound below which the test is exact."""
    start = time.perf_counter()
    assert IntegersModP(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="odd prime"):
        IntegersModP(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        IntegersModP(10**400 + 1)


@pytest.mark.parametrize("cell", [Fraction(1, 2), Fraction(1, 7), Fraction(3), 7, -14])
def test_mod_p_tables_need_int_cells_nonzero_mod_p(cell):
    """Z_7 multiplies by int cells only, and a cell 0 mod 7 would make
    v1 v1 = 0; each is refused where the algebra is built."""
    constant = StructureConstant(group_by_name("Z2"), [[1, 1], [1, cell]])
    assert TwistedAlgebra(constant).constant == constant
    with pytest.raises(ValueError, match="mod-7 table needs int cells"):
        TwistedAlgebra(constant, IntegersModP(7))


@pytest.mark.parametrize("cell", [{"num": 1, "den": 2}, {"num": 1, "den": 7}, 7])
def test_mod_p_json_documents_need_int_cells_nonzero_mod_p(cell):
    doc = {"group": "Z2", "ring": "mod-7", "C": [[1, 1], [1, cell]]}
    with pytest.raises(ValueError, match="mod-7 table needs int cells"):
        TwistedAlgebra.from_json(doc)


def test_json_round_trip_mod_p():
    A = tesseranion_algebra(IntegersModP(13))
    doc = A.to_json()
    assert doc["ring"] == "mod-13"
    B = TwistedAlgebra.from_json(json.loads(json.dumps(doc)))
    assert B.ring == IntegersModP(13) and B.constant == A.constant
    assert B.to_json() == doc
