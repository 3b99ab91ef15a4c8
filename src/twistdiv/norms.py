"""Norms, Schwarz defects, closed-form inverses, and Z_p encryption.

The Z4-graded survivor carries a quartic scalar |x|^4 =
(x0^2 + x2^2)^2 + (x1^2 + x3^2)^2 whose fourth root is a genuine norm
(positive homogeneous, triangle inequality) but fails the Schwarz
equality.  Every claim about all inputs is decided exactly: by an
identity in generic elements, or by induction on the norm level.

The final section implements the linear-equation solver a*x = c in the
mod-p algebra, which round-trips exactly and acts as an encryption
primitive: x encodes the message c under the key a.

Only the instantiated norm chain (4-dimensional algebra -> its complex
even subalgebra -> the reals) is implemented; iterating the higher-order
norm construction to wider algebras is out of scope.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import IntegersModP, tesseranion_algebra
from .poly import MultiPoly, indeterminates, symbolic_det


def quartic_norm4(x):
    """The exact fourth power |x|^4 = (x0^2+x2^2)^2 + (x1^2+x3^2)^2."""
    x0, x1, x2, x3 = x.coeffs
    return (x0 * x0 + x2 * x2) ** 2 + (x1 * x1 + x3 * x3) ** 2


def norm4_monomial_expressions(x):
    """The five product expressions that all equal [|x|^4, 0, 0, 0].

    Computed independently of the closed form: each is a bracketed
    product of x, its square and its conjugate.
    """
    xbar = x.conj()
    xx = x * x
    xxbar = x * xbar
    return [
        xxbar * xxbar.conj(),
        (x * xxbar).conj() * x,
        (xbar * xx).conj() * x,
        x * (xxbar * x).conj(),
        x * (xx * xbar).conj(),
    ]


def schwarz_defect4(x, y):
    """|x|^4 |y|^4 - |x*y|^4, on the fourth-power convention.

    The displayed Schwarz numbers -16, 0, 8 for the pairs (p,p), (p,q),
    (s,t) are reproduced by this fourth-power reading.
    """
    return quartic_norm4(x) * quartic_norm4(y) - quartic_norm4(x * y)


def schwarz_table(algebra):
    """Defects of the pairs (p,p), (p,q), (s,t), keyed by pair.

    p = [1,1,0,0], q = [1,-1,0,0], s = [1,1,1,0], t = [1,-1,1,0]; the Z4
    survivor gives -16, 0 and 8.
    """
    p, q, s, t = (
        algebra.element(v)
        for v in ([1, 1, 0, 0], [1, -1, 0, 0], [1, 1, 1, 0], [1, -1, 1, 0])
    )
    return {
        "(p,p)": schwarz_defect4(p, p),
        "(p,q)": schwarz_defect4(p, q),
        "(s,t)": schwarz_defect4(s, t),
    }


def pure_factor_equality(algebra):
    """True iff the Schwarz defect of a 4-dimensional algebra is 0 in
    generic y with x pure even (x1 = x3 = 0) or pure odd (x0 = x2 = 0),
    on either side of y."""
    x, y = algebra.generic_elements("x", "y")
    zero = MultiPoly.zero(y[0].vars)
    even = algebra.element([x[0], zero, x[2], zero])
    odd = algebra.element([zero, x[1], zero, x[3]])
    pairs = [(even, y), (y, even), (odd, y), (y, odd)]
    return all(schwarz_defect4(a, b).is_zero for a, b in pairs)


def _inverse_numerators(x):
    """(conj(x*(x*conj x)), conj((x*conj x)*x)): |x|^4 times LI(x) and RI(x)."""
    xbar = x.conj()
    return (x * (x * xbar)).conj(), ((x * xbar) * x).conj()


def inverse_formulas(x):
    """(LI, RI) = ``_inverse_numerators(x)`` / |x|^4, so that LI*x = 1 = x*RI
    exactly; x must be nonzero."""
    if x.is_zero():
        raise ZeroDivisionError("zero element has no inverse")
    n4 = quartic_norm4(x)
    inv = Fraction(1) / n4 if isinstance(n4, (int, Fraction)) else n4.inverse()
    return tuple(v * inv for v in _inverse_numerators(x))


def generates_whole_algebra(x):
    """True when {1, x, x^2, x*x^2} spans the 4-dimensional algebra."""
    xx = x * x
    rows = [x.algebra.one().coeffs, x.coeffs, xx.coeffs, (x * xx).coeffs]
    return symbolic_det(rows) != 0


# -- iterated even-power norms ------------------------------------------


class IteratedNormSpec:
    """Level j >= 1 over base tuples of width n; input length n * 2^(j-1)."""

    __slots__ = ("j", "n")

    def __init__(self, j, n):
        if j < 1 or n < 1:
            raise ValueError("level and width must be positive")
        self.j = j
        self.n = n

    @property
    def length(self):
        return self.n * 2 ** (self.j - 1)


def iterated_norm_power(spec, vec):
    """The exact 2^j-th power of the level-j norm.

    Level 1 is the squared Euclidean norm; level j applies
    P_j((u, r)) = P_{j-1}(u)^2 + P_{j-1}(r)^2 on the two halves.
    """
    vec = list(vec)
    if len(vec) != spec.length:
        raise ValueError(f"expected length {spec.length}, got {len(vec)}")
    if spec.j == 1:
        total = None
        for v in vec:
            sq = v * v
            total = sq if total is None else total + sq
        return total
    half = len(vec) // 2
    sub = IteratedNormSpec(spec.j - 1, spec.n)
    return (
        iterated_norm_power(sub, vec[:half]) ** 2
        + iterated_norm_power(sub, vec[half:]) ** 2
    )


def _is_sum_of_squares(spec):
    """True iff the spec's norm power is x0^2 + ... + x(m-1)^2 exactly."""
    x = MultiPoly.variables(indeterminates(("x",), spec.length))
    return iterated_norm_power(spec, x) == sum((v * v for v in x[1:]), x[0] * x[0])


def triangle_claims():
    """Triangle inequality of the level-j, width-n norm M_j for j = 1..4
    and n = 1..3; {"j=<j>,n=<n>": holds}.

    M_1 is Euclidean when P_1 is the sum of squares, checked exactly.
    The recursion P_j = P_(j-1)(u)^2 + P_(j-1)(r)^2 of
    ``iterated_norm_power`` makes M_j = l_(2^j)(M_(j-1)(u), M_(j-1)(r));
    l_p is a norm monotone on the nonnegative orthant, so by Minkowski
    M_j is a norm if M_(j-1) is one, and each j >= 2 entry carries the
    j = 1 verdict of its width.
    """
    base = {n: _is_sum_of_squares(IteratedNormSpec(1, n)) for n in range(1, 4)}
    return {f"j={j},n={n}": base[n] for j in range(1, 5) for n in range(1, 4)}


# -- linear equation solving / encryption over Z_p -----------------------


class InvalidKey(ValueError):
    """Key rejected: |a|^4 vanishes mod p, so a is not invertible."""


def _check_side(side):
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")


def _solution_numerator(a, c, side):
    """|a|^4 times the solution of a*x = c (left) or of y*a = c (right)."""
    abar = a.conj()
    if side == "left":
        return (abar * c) * (a * abar).conj()
    return (a * abar).conj() * (c * abar)


def encrypt(key, message, p, side="left"):
    """Encode the message c as the solution x of a*x = c over Z_p.

    side="left" solves a*x = c and side="right" solves y*b = d, each as
    |key|^-4 times ``_solution_numerator``.  Raises InvalidKey when
    |key|^4 = 0 mod p.
    """
    _check_side(side)
    algebra = tesseranion_algebra(IntegersModP(p))
    a = algebra.element(key)
    n4 = quartic_norm4(a)
    if n4 == 0:
        raise InvalidKey(f"|key|^4 = 0 mod {p}")
    x = _solution_numerator(a, algebra.element(message), side)
    return tuple(v.value for v in (x * n4.inverse()).coeffs)


def decrypt(key, encoded, p, side="left"):
    """Recover c = a*x (or c = y*b for the right-sided scheme)."""
    _check_side(side)
    algebra = tesseranion_algebra(IntegersModP(p))
    a = algebra.element(key)
    x = algebra.element(encoded)
    out = a * x if side == "left" else x * a
    return tuple(v.value for v in out.coeffs)
