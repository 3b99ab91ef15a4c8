"""Commutator and anticommutator structure of a twisted algebra.

From a twisted algebra A this builds the bilinear algebras A^- (product
[x,y] = (xy - yx)/2) and A^+ (product (xy + yx)/2) and analyzes them:
Jacobi and Jordan identities (bracket-tree combinations expanded by
``identities.identity_residual``), derived and lower central series with
solvable/nilpotent flags, the Heisenberg ideal of the Z4 survivor, and
the chirality of inverses in the original algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .algebra import _narrow, tensor_product
from .identities import Leaf, Node, counterexample, identity_residual
from .poly import _minors, nonzero_point, symbolic_det


class BilinearAlgebra:
    """Finite-dimensional algebra given by its structure tensor.

    The tensor is stored as sparse entries (i, j, k, c), c nonzero and
    each (i, j, k) once, meaning "e_i * e_j has coefficient c on e_k",
    an integral c as an int (``_narrow``); products of coefficient
    vectors go through the same kernel as twisted group algebras.
    """

    def __init__(self, dimension, entries):
        self.dimension = dimension
        self.entries = tuple((i, j, k, _narrow(c)) for i, j, k, c in entries)

    def coefficients(self):
        """{(i, j, k): c} for the nonzero coefficients of e_i * e_j on e_k."""
        return {(i, j, k): c for i, j, k, c in self.entries}

    def product(self, x, y):
        return tensor_product(self.entries, x, y, 0)

    def is_antisymmetric(self):
        coeffs = self.coefficients()
        return all(coeffs.get((j, i, k), 0) == -c for (i, j, k), c in coeffs.items())

    def is_symmetric(self):
        coeffs = self.coefficients()
        return all(coeffs.get((j, i, k), 0) == c for (i, j, k), c in coeffs.items())


def _symmetrized(algebra, sign):
    """Bilinear algebra with product (xy + sign yx)/2 over ``algebra``."""
    coeffs = {}
    for i, j, k, c in algebra.entries:
        for key, v in (((i, j, k), c), ((j, i, k), sign * c)):
            coeffs[key] = coeffs.get(key, 0) + Fraction(v, 2)
    return BilinearAlgebra(
        algebra.dimension,
        [(i, j, k, c) for (i, j, k), c in coeffs.items() if c != 0],
    )


def commutator_algebra(algebra):
    """A^- with [x, y] = (xy - yx)/2; for an abelian grading group
    [v_i, v_j] = (C(i,j) - C(j,i))/2 v_{ij}."""
    return _symmetrized(algebra, -1)


def anticommutator_algebra(algebra):
    """A^+ with x . y = (xy + yx)/2; for an abelian grading group
    v_i . v_j = (C(i,j) + C(j,i))/2 v_{ij}."""
    return _symmetrized(algebra, 1)


_X, _Y, _Z = Leaf(0), Leaf(1), Leaf(2)
_XX = Node(_X, _X)

# x(yz) - (xy)z - y(xz), the Jacobi defect of an antisymmetric product
JACOBI = (
    (1, Node(_X, Node(_Y, _Z))),
    (-1, Node(Node(_X, _Y), _Z)),
    (-1, Node(_Y, Node(_X, _Z))),
)

# (xy)(xx) - x(y(xx)), the Jordan defect of a symmetric product
JORDAN = ((1, Node(Node(_X, _Y), _XX)), (-1, Node(_X, Node(_Y, _XX))))


def jacobi_check(L):
    """Symbolic Jacobi identity for an antisymmetric product.

    Returns (holds, None) or (False, (i, j, k)): the residual of
    ``JACOBI`` is trilinear, so the vectors that ``counterexample`` reads
    off it are basis vectors (e_i, e_j, e_k) at which the Jacobi defect
    is nonzero.
    """
    if not L.is_antisymmetric():
        raise ValueError("jacobi_check requires an antisymmetric tensor")
    vectors = counterexample(identity_residual(L, JACOBI), L.dimension)
    if vectors is None:
        return True, None
    return False, tuple(v.index(1) for v in vectors)


def jordan_residual(J):
    """Symbolic (x.y).(x.x) - x.(y.(x.x)) for a symmetric product."""
    if not J.is_symmetric():
        raise ValueError("jordan_check requires a symmetric tensor")
    return identity_residual(J, JORDAN)


def jordan_check(J):
    """(holds, counterexample) for the Jordan identity.

    A failure carries integer vectors (x, y), as lists, at which the
    residual of ``jordan_residual`` is nonzero, read off it by
    ``counterexample``.
    """
    vectors = counterexample(jordan_residual(J), J.dimension)
    if vectors is None:
        return True, None
    return False, tuple(list(v) for v in vectors)


DERIVED = "derived"
LOWER_CENTRAL = "lower-central"

# catalogue identification of the Z4 survivor's commutator algebra, kept
# as an annotation rather than re-derived: in de Graaf's list of solvable
# 4-dimensional Lie algebras it is M^14_a with a = -1
Z4_COMMUTATOR_CLASSIFICATION = "M^14_a (a = -1), solvable, not nilpotent"


@dataclass
class SeriesResult:
    kind: str
    dimensions: list
    terminates: bool
    stabilizes: bool

    @property
    def solvable(self):
        return self.kind == DERIVED and self.terminates

    @property
    def nilpotent(self):
        return self.kind == LOWER_CENTRAL and self.terminates


def _span_products(L, rows_a, rows_b):
    products = []
    for a in rows_a:
        for b in rows_b:
            v = L.product(a, b)
            if any(c != 0 for c in v):
                products.append(v)
    reduced, _ = _linalg.rref(products) if products else ([], [])
    return reduced


def series(L, kind):
    """Derived or lower central series by exact span closure.

    Stops at {0} or at stabilization (span equal to the previous step).
    For any bilinear product each term lies inside the one before it, so
    every step that does not stop lowers the dimension, and the loop ends
    within ``L.dimension`` steps.  The Z4 survivor's commutator algebra
    stabilizes at the 3-dimensional Heisenberg ideal, so stabilization
    detection is required for termination.
    """
    if kind not in (DERIVED, LOWER_CENTRAL):
        raise ValueError(f"unknown series kind {kind!r}")
    n = L.dimension
    full = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    current = full
    dims = [n]
    terminates = False
    stabilizes = False
    while True:
        left = current if kind == DERIVED else full
        nxt = _span_products(L, left, current)
        dims.append(len(nxt))
        if not nxt:
            terminates = True
            break
        # both spans are in reduced row echelon form, which is unique
        if nxt == current:
            stabilizes = True
            break
        current = nxt
    return SeriesResult(kind, dims, terminates, stabilizes)


def is_ideal(L, rows):
    """True if the row span S satisfies [L, S] <= S."""
    n = L.dimension
    basis = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    for x in basis:
        for s in rows:
            if not _linalg.in_rowspace(rows, L.product(x, s)):
                return False
    return True


HEISENBERG_SPAN = (0, 1, 3)


def heisenberg_ideal_check(L):
    """Check that span{v0, v1, v3} is an ideal isomorphic to the
    Heisenberg algebra: one independent bracket landing on a central
    element of the ideal."""
    n = L.dimension
    rows = [
        [Fraction(int(i == k)) for i in range(n)] for k in HEISENBERG_SPAN
    ]
    if not is_ideal(L, rows):
        return False
    v0 = rows[0]
    # v0 central within the ideal
    for s in rows:
        if any(c != 0 for c in L.product(v0, s)):
            return False
    # the bracket of the two non-central generators is +-v0
    b = L.product(rows[2], rows[1])
    if b != v0 and b != [-c for c in v0]:
        return False
    # and the derived algebra of the ideal is exactly span{v0}
    derived = _span_products(L, rows, rows)
    return len(derived) == 1 and _linalg.in_rowspace([v0], derived[0])


# -- chirality of inverses ---------------------------------------------

TWO_SIDED = "two-sided"
CHIRAL = "chiral"


def _adjugate_column0(rows):
    """First column of the adjugate: signed minors along row 0.

    (adj M . e0)_i = (-1)^i det(M with row 0 and column i removed), so
    M^-1 e0 = that vector divided by det M.  All n minors come from one
    expansion of rows 1..n-1; for n = 1 it is the empty minor 1.
    """
    n = len(rows)
    minors = _minors(rows[1:], n)
    full = (1 << n) - 1
    out = []
    for i in range(n):
        d = minors.get(full ^ (1 << i), 0)
        out.append(d if i % 2 == 0 else -d)
    return out


def chiral_inverse_check(algebra):
    """Decide symbolically whether inverses are two-sided or chiral.

    Solves M^L LI = e0 and M^R RI = e0 by adjugates over generic
    components; inverses are two-sided iff LI det^R = RI det^L as
    polynomial vectors.  For the chiral case returns a witness element
    whose left and right inverses both exist and differ: an integer point
    where diff_i det^L det^R is nonzero, read off by ``nonzero_point``.
    """
    (x,) = algebra.generic_elements("x")
    ml = algebra.mult_matrix_left(x)
    mr = algebra.mult_matrix_right(x)
    det_l = symbolic_det(ml)
    det_r = symbolic_det(mr)
    li_num = _adjugate_column0(ml)
    ri_num = _adjugate_column0(mr)
    diff = [a * det_r - b * det_l for a, b in zip(li_num, ri_num)]
    if all(p.is_zero for p in diff):
        return TWO_SIDED, None
    # both inverses exist and differ wherever diff_i det^L det^R != 0
    d = next(p for p in diff if not p.is_zero)
    return CHIRAL, algebra.element(nonzero_point(d * det_l * det_r))
