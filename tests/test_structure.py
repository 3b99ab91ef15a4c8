import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistdiv.algebra import (
    StructureConstant,
    TwistedAlgebra,
    complex_algebra,
    quaternion_algebra,
    tesseranion_algebra,
)
from twistdiv.groups import group_by_name
from twistdiv.identities import L as leaf
from twistdiv.identities import N as node
from twistdiv.identities import identity_residual
from twistdiv.poly import MultiPoly, indeterminates
from twistdiv.structure import (
    CHIRAL,
    DERIVED,
    LOWER_CENTRAL,
    TWO_SIDED,
    BilinearAlgebra,
    anticommutator_algebra,
    chiral_inverse_check,
    commutator_algebra,
    heisenberg_ideal_check,
    is_ideal,
    jacobi_check,
    jordan_check,
    jordan_residual,
    series,
)

T = tesseranion_algebra()
H = quaternion_algebra()
C = complex_algebra()


def e(k, n=4):
    return [Fraction(int(i == k)) for i in range(n)]


def test_commutator_brackets_of_tesseranions():
    Tm = commutator_algebra(T)
    assert Tm.is_antisymmetric()
    assert Tm.product(e(1), e(2)) == e(3)
    assert Tm.product(e(2), e(3)) == e(1)
    assert Tm.product(e(3), e(1)) == e(0)
    # all other basis brackets vanish (v0 is central)
    for i in range(4):
        assert Tm.product(e(0), e(i)) == [0, 0, 0, 0]
    assert Tm.product(e(1), e(3)) == [Fraction(-1), 0, 0, 0]


def test_commutator_of_commutative_algebra_is_zero():
    Cm = commutator_algebra(C)
    for i in range(2):
        for j in range(2):
            assert Cm.product(e(i, 2), e(j, 2)) == [0, 0]


def test_anticommutator_products():
    Tp = anticommutator_algebra(T)
    assert Tp.is_symmetric()
    assert Tp.product(e(1), e(1)) == e(2)
    assert Tp.product(e(3), e(3)) == e(2)
    assert Tp.product(e(2), e(2)) == [Fraction(-1), 0, 0, 0]
    for i in range(4):
        assert Tp.product(e(0), e(i)) == e(i)
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        assert Tp.product(e(i), e(j)) == [0, 0, 0, 0]
    Hp = anticommutator_algebra(H)
    for i in range(1, 4):
        assert Hp.product(e(i), e(i)) == [Fraction(-1), 0, 0, 0]
        for j in range(1, 4):
            if i != j:
                assert Hp.product(e(i), e(j)) == [0, 0, 0, 0]


def test_commutative_algebra_equals_its_anticommutator():
    Cp = anticommutator_algebra(C)
    for i in range(2):
        for j in range(2):
            prod = (C.basis_element(i) * C.basis_element(j)).coeffs
            assert Cp.product(e(i, 2), e(j, 2)) == list(prod)


def test_symmetrizing_a_bilinear_algebra():
    """A^- and A^+ of T's A^-, which has no grading group: for an
    antisymmetric product (xy - yx)/2 = xy and (xy + yx)/2 = 0."""
    Tm = commutator_algebra(T)
    assert commutator_algebra(Tm).coefficients() == Tm.coefficients()
    assert anticommutator_algebra(Tm).entries == ()


def test_jacobi():
    assert jacobi_check(commutator_algebra(T)) == (True, None)
    assert jacobi_check(commutator_algebra(H)) == (True, None)
    with pytest.raises(ValueError):
        jacobi_check(anticommutator_algebra(T))


def test_jacobi_failure_carries_a_basis_triple():
    # antisymmetric [e0,e1] = e2, [e1,e2] = e1, [e0,e2] = e0: not a Lie algebra
    n = 3
    entries = []
    for (i, j), k in {(0, 1): 2, (1, 2): 1, (0, 2): 0}.items():
        entries += [(i, j, k, 1), (j, i, k, -1)]
    L = BilinearAlgebra(n, entries)
    holds, (i, j, k) = jacobi_check(L)
    a, b, c = ([int(m == t) for m in range(n)] for t in (i, j, k))
    lhs = L.product(a, L.product(b, c))
    rhs = [p + q for p, q in zip(L.product(L.product(a, b), c),
                                 L.product(b, L.product(a, c)))]
    assert not holds and lhs != rhs


@st.composite
def unital_sign_algebras(draw):
    """Twisted algebra of a random unital sign table on Z2xZ2, Z4 or D4."""
    group = group_by_name(draw(st.sampled_from(("Z2xZ2", "Z4", "D4"))))
    n = group.order
    signs = st.sampled_from((1, -1))
    values = [[1] * n] + [
        [1] + [draw(signs) for _ in range(n - 1)] for _ in range(n - 1)
    ]
    return TwistedAlgebra(StructureConstant(group, values))


def _generic_lists(n, prefixes):
    v = MultiPoly.variables(indeterminates(prefixes, n))
    return [v[i:i + n] for i in range(0, len(v), n)]


def _jacobi_defect(Lm, i, j, k):
    """x(yz) - (xy)z - y(xz) at basis vectors, from ``product`` alone."""
    x, y, z = (e(t, Lm.dimension) for t in (i, j, k))
    lhs = Lm.product(x, Lm.product(y, z))
    a = Lm.product(Lm.product(x, y), z)
    b = Lm.product(y, Lm.product(x, z))
    return [p - q - r for p, q, r in zip(lhs, a, b)]


@settings(deadline=None, max_examples=30)
@given(unital_sign_algebras())
def test_jacobi_check_agrees_with_basis_triples(A):
    Lm = commutator_algebra(A)
    n = Lm.dimension
    defective = [
        (i, j, k)
        for i in range(n) for j in range(n) for k in range(n)
        if any(_jacobi_defect(Lm, i, j, k))
    ]
    holds, triple = jacobi_check(Lm)
    assert holds == (not defective)
    if not holds:
        assert any(_jacobi_defect(Lm, *triple))


@settings(deadline=None, max_examples=30)
@given(unital_sign_algebras())
def test_jordan_residual_matches_product_reference(A):
    Jp = anticommutator_algebra(A)
    x, y = _generic_lists(Jp.dimension, "xy")
    xx = Jp.product(x, x)
    lhs = Jp.product(Jp.product(x, y), xx)
    rhs = Jp.product(x, Jp.product(y, xx))
    assert jordan_residual(Jp) == [a - b for a, b in zip(lhs, rhs)]


def test_expand_monomial_on_a_bilinear_algebra():
    Tm = commutator_algebra(T)
    x, y = _generic_lists(4, "xy")
    assert identity_residual(Tm, [(1, node(leaf(0), leaf(1)))]) == Tm.product(x, y)


def test_jordan():
    Tp = anticommutator_algebra(T)
    ok, ce = jordan_check(Tp)
    assert not ok and ce is not None
    x, y = ce
    xx = Tp.product(x, x)
    lhs = Tp.product(Tp.product(x, y), xx)
    rhs = Tp.product(x, Tp.product(y, xx))
    assert lhs != rhs
    assert jordan_check(anticommutator_algebra(C)) == (True, None)
    with pytest.raises(ValueError):
        jordan_check(commutator_algebra(T))


def test_jordan_residual_closed_form():
    names = indeterminates(("x", "y"), 4)
    v = MultiPoly.variables(names)
    x1, x3, y1, y2, y3 = v[1], v[3], v[5], v[6], v[7]
    factor = x1 * x1 + x3 * x3
    closed = [
        -(y1 * x1 + y3 * x3) * factor,
        x1 * y2 * factor,
        MultiPoly.zero(names),
        x3 * y2 * factor,
    ]
    residual = jordan_residual(anticommutator_algebra(T))
    assert all((a - b).is_zero for a, b in zip(residual, closed))


def test_jordan_residual_example_and_pure_even():
    Tp = anticommutator_algebra(T)
    w, v2 = e(1), e(2)
    xx = Tp.product(w, w)
    residual = [
        a - b
        for a, b in zip(
            Tp.product(Tp.product(w, v2), xx), Tp.product(w, Tp.product(v2, xx))
        )
    ]
    assert residual == [0, 1, 0, 0]
    # pure even x: identity holds
    rng = random.Random(4)
    for _ in range(20):
        x = [Fraction(rng.randint(-5, 5)), 0, Fraction(rng.randint(-5, 5)), 0]
        y = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        xx = Tp.product(x, x)
        lhs = Tp.product(Tp.product(x, y), xx)
        rhs = Tp.product(x, Tp.product(y, xx))
        assert lhs == rhs


def test_anticommutator_not_power_associative_explicit():
    """((x.x).x).x differs from (x.x).(x.x) at x = v1 + v3."""
    Tp = anticommutator_algebra(T)
    x = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    xx = Tp.product(x, x)
    assert xx == [0, 0, 2, 0]
    lhs = Tp.product(Tp.product(xx, x), x)
    rhs = Tp.product(xx, xx)
    assert lhs == [0, 0, 0, 0]
    assert rhs == [Fraction(-4), 0, 0, 0]
    assert lhs != rhs


def test_series_of_tesseranion_commutator():
    Tm = commutator_algebra(T)
    der = series(Tm, DERIVED)
    assert der.dimensions == [4, 3, 1, 0]
    assert der.solvable
    low = series(Tm, LOWER_CENTRAL)
    assert low.dimensions == [4, 3, 3]
    assert low.stabilizes and not low.nilpotent


def test_series_of_abelian_algebra():
    A = BilinearAlgebra(2, [])
    der = series(A, DERIVED)
    assert der.dimensions == [2, 0]
    assert der.solvable
    low = series(A, LOWER_CENTRAL)
    assert low.dimensions == [2, 0] and low.nilpotent


def test_series_of_8_dimensional_filiform_algebra():
    """[e0, ei] = e(i+1) for 1 <= i <= 6: the lower central series runs
    down one dimension at a time, past six steps, to {0}."""
    entries = []
    for i in range(1, 7):
        entries += [(0, i, i + 1, 1), (i, 0, i + 1, -1)]
    L = BilinearAlgebra(8, entries)
    low = series(L, LOWER_CENTRAL)
    assert low.dimensions == [8, 6, 5, 4, 3, 2, 1, 0]
    assert low.nilpotent
    assert series(L, DERIVED).dimensions == [8, 6, 0]


def test_heisenberg_ideal():
    Tm = commutator_algebra(T)
    assert heisenberg_ideal_check(Tm)
    # span{v0, v2} is not an ideal: [v1, v2] = v3 escapes
    rows = [e(0), e(2)]
    assert not is_ideal(Tm, rows)
    # in the zero algebra every subspace is an ideal
    zero = BilinearAlgebra(4, [])
    assert is_ideal(zero, rows)


def test_bracket_map_is_not_a_derivation_of_the_full_product():
    """y -> [x, y] respects the commutator bracket (Jacobi) but fails the
    Leibniz rule for the twisted product itself."""
    Tm = commutator_algebra(T)
    w = T.element([0, 1, 0, 0])

    def ad(x, y):
        return T.element(Tm.product([*x.coeffs], [*y.coeffs]))

    lhs = ad(w, w * w)
    rhs = ad(w, w) * w + w * ad(w, w)
    assert lhs.coeffs == (0, 0, 0, 1)
    assert rhs.is_zero()
    assert lhs != rhs


def test_chirality():
    kind, witness = chiral_inverse_check(T)
    assert kind == CHIRAL and witness is not None
    li = T.left_inverse(witness)
    ri = T.right_inverse(witness)
    assert li != ri and li * witness == T.one() and witness * ri == T.one()
    assert chiral_inverse_check(H)[0] == TWO_SIDED
    assert chiral_inverse_check(C)[0] == TWO_SIDED


def test_inverses_on_random_elements():
    """LI(x) x = 1 and x RI(x) = 1 for random nonzero elements."""
    rng = random.Random(31)
    for A in (C, H, T):
        n = A.group.order
        count = 0
        while count < 100:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
            x = A.element(coeffs)
            if x.is_zero():
                continue
            assert A.left_inverse(x) * x == A.one()
            assert x * A.right_inverse(x) == A.one()
            count += 1
