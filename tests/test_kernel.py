"""Property tests of the structure-tensor kernel.

Random unital sign tables on Z2, Z2xZ2 and Z4, in both basis
conventions, with small rational vectors.  Products, both
multiplication matrices and the commutator/anticommutator algebras are
compared with the product formula written out here.  The nonabelian D4
is drawn too: there v_a v_b and v_b v_a can lie on different basis
vectors, so A^- and A^+ must be built from xy - yx and xy + yx, not from
C(a,b) - C(b,a) and C(a,b) + C(b,a) on v_ab.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from twistdiv.algebra import IntegersModP, ModInt, StructureConstant, TwistedAlgebra
from twistdiv.groups import CONVENTIONS, group_by_name
from twistdiv.structure import anticommutator_algebra, commutator_algebra

GROUPS = tuple(group_by_name(name) for name in ("Z2", "Z2xZ2", "Z4", "D4"))

SCALARS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def sign_algebras(draw):
    group = draw(st.sampled_from(GROUPS))
    n = group.order
    signs = st.sampled_from((1, -1))
    values = [[1] * n] + [
        [1] + [draw(signs) for _ in range(n - 1)] for _ in range(n - 1)
    ]
    convention = draw(st.sampled_from(CONVENTIONS))
    return TwistedAlgebra(StructureConstant(group, values, convention))


def vectors(n, elements=SCALARS):
    return st.lists(elements, min_size=n, max_size=n)


def reference_product(algebra, x, y):
    """sum_a x_a C(a, a^-1 c) y_{a^-1 c} on v_c."""
    group = algebra.group
    n = group.order
    out = []
    for c in range(n):
        bs = [group.mul(group.inverse(a), c) for a in range(n)]
        out.append(sum(x[a] * algebra.constant(a, b) * y[b] for a, b in enumerate(bs)))
    return out


def apply(matrix, v):
    return [sum(m * t for m, t in zip(row, v)) for row in matrix]


@settings(deadline=None)
@given(st.data())
def test_kernel_matches_the_written_out_product(data):
    A = data.draw(sign_algebras())
    n = A.group.order
    xs, ys = data.draw(vectors(n)), data.draw(vectors(n))
    x, y = A.element(xs), A.element(ys)
    xy = list((x * y).coeffs)
    assert xy == reference_product(A, xs, ys)
    assert apply(A.mult_matrix_left(y), xs) == xy
    assert apply(A.mult_matrix_right(x), ys) == xy
    yx = (y * x).coeffs
    assert commutator_algebra(A).product(xs, ys) == [
        (p - q) / 2 for p, q in zip(xy, yx)
    ]
    assert anticommutator_algebra(A).product(xs, ys) == [
        (p + q) / 2 for p, q in zip(xy, yx)
    ]


@settings(deadline=None)
@given(st.data())
def test_mod_p_zero_products_keep_mod_p_components(data):
    # norms.encrypt reads .value off every component
    A = data.draw(sign_algebras())
    Ap = TwistedAlgebra(A.constant, IntegersModP(7))
    y = Ap.element(data.draw(vectors(A.group.order, st.integers(-20, 20))))
    for prod in (Ap.zero() * y, y * Ap.zero()):
        assert all(isinstance(c, ModInt) and c.value == 0 for c in prod.coeffs)
