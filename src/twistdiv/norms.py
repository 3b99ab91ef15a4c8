"""Norms, Schwarz defects, closed-form inverses, and Z_p encryption.

The Z4-graded survivor carries a quartic scalar |x|^4 =
(x0^2 + x2^2)^2 + (x1^2 + x3^2)^2 whose fourth root is a genuine norm
(positive homogeneous, triangle inequality) but fails the Schwarz
equality.  Exactness policy: every comparison happens on the rational
2^j-th powers, with integer-root enclosures for the few comparisons that
genuinely need the root; floats are display only.

The final section implements the linear-equation solver a*x = c in the
mod-p algebra, which round-trips exactly and acts as an encryption
primitive: x encodes the message c under the key a.

Only the instantiated norm chain (4-dimensional algebra -> its complex
even subalgebra -> the reals) is implemented; iterating the higher-order
norm construction to wider algebras is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import IntegersModP, tesseranion_algebra
from .poly import integer_root, rational_root, symbolic_det


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


def pure_factor_defects(algebra, rng, samples):
    """How many of ``samples`` seeded pairs have a nonzero defect.

    Each pair has one pure factor (even or odd, integer components in
    [-9, 9]) on a random side; the other factor's components are
    rationals with numerators in [-9, 9] and denominators 1 to 3.
    """
    bad = 0
    for _ in range(samples):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        other = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
        pure = [a, 0, b, 0] if rng.random() < 0.5 else [0, a, 0, b]
        x, y = algebra.element(pure), algebra.element(other)
        if rng.random() < 0.5:
            x, y = y, x
        bad += schwarz_defect4(x, y) != 0
    return bad


def inverse_formulas(x):
    """(LI, RI) from the conjugate closed forms; x must be nonzero.

    LI(x) = conj(x*(x*conj x)) / |x|^4 and RI(x) = conj((x*conj x)*x) / |x|^4,
    so that LI*x = 1 = x*RI exactly.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero element has no inverse")
    n4 = quartic_norm4(x)
    xbar = x.conj()
    li = (x * (x * xbar)).conj()
    ri = ((x * xbar) * x).conj()
    if isinstance(n4, (int, Fraction)):
        inv = Fraction(1, 1) / Fraction(n4)
    else:
        inv = n4.inverse()
    return li * inv, ri * inv


def generates_whole_algebra(x):
    """True when {1, x, x^2, x*x^2} spans the 4-dimensional algebra."""
    xx = x * x
    rows = [x.algebra.one().coeffs, x.coeffs, xx.coeffs, (x * xx).coeffs]
    return symbolic_det(rows) != 0


# -- iterated even-power norms ------------------------------------------


@dataclass(frozen=True)
class IteratedNormSpec:
    """Level j >= 1 over base tuples of width n; input length n * 2^(j-1)."""

    j: int
    n: int

    def __post_init__(self):
        if self.j < 1 or self.n < 1:
            raise ValueError("level and width must be positive")

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


MAX_ROOT_SCALE = 256


def nth_root_leq(a_power, parts_powers, k):
    """Exact decision of a^(1/k) <= sum_i b_i^(1/k) for rationals >= 0.

    When every ratio b_i/b_0 is the k-th power of a rational r_i, the sum
    is the single root (b_0 (sum_i r_i)^k)^(1/k) and the comparison is
    exact.  Otherwise the k-th roots of positive rationals in different
    classes modulo k-th powers are linearly independent over the
    rationals (Mordell, 1953), so the sum is no k-th root of a rational and
    no exact tie is possible: the scaled integer k-th root enclosures,
    refined by doubling the scale, always separate.
    """
    a = Fraction(a_power)
    bs = [Fraction(b) for b in parts_powers if b != 0]
    if a == 0:
        return True
    if not bs:
        return False
    ratios = [rational_root(b / bs[0], k) for b in bs]
    if None not in ratios:
        return a <= bs[0] * sum(ratios) ** k
    scale = 16
    while scale <= MAX_ROOT_SCALE:
        shift = 1 << (k * scale)
        a_lo = integer_root(a.numerator * shift // a.denominator, k)
        a_hi = a_lo + 1
        b_lo = sum(integer_root(b.numerator * shift // b.denominator, k) for b in bs)
        b_hi = b_lo + len(bs)
        if a_hi <= b_lo:
            return True
        if a_lo > b_hi:
            return False
        scale *= 2
    raise ArithmeticError("root comparison undecided at maximum precision")


def triangle_check(spec, samples):
    """Triangle inequality on explicit sample pairs, decided exactly.

    samples is an iterable of (x, y) tuples of rational sequences.
    Returns True when M(x + y) <= M(x) + M(y) for every pair.
    """
    k = 2**spec.j
    for x, y in samples:
        s = [a + b for a, b in zip(x, y)]
        lhs = iterated_norm_power(spec, s)
        px = iterated_norm_power(spec, x)
        py = iterated_norm_power(spec, y)
        if not nth_root_leq(lhs, (px, py), k):
            return False
    return True


def triangle_sweep(rng, samples):
    """Triangle inequality of the level-j, width-n norm for j = 1..4 and
    n = 1..3, each on ``samples`` seeded pairs of integer vectors with
    components in [-9, 9]; {"j=<j>,n=<n>": holds}."""
    results = {}
    for j in range(1, 5):
        for n in range(1, 4):
            spec = IteratedNormSpec(j, n)
            pairs = [
                (
                    [rng.randint(-9, 9) for _ in range(spec.length)],
                    [rng.randint(-9, 9) for _ in range(spec.length)],
                )
                for _ in range(samples)
            ]
            results[f"j={j},n={n}"] = triangle_check(spec, pairs)
    return results


def positive_homogeneity_check(spec, samples):
    """M(a x)^(2^j) == a^(2^j) M(x)^(2^j), exactly, on (scalar, vector) pairs."""
    k = 2**spec.j
    for alpha, x in samples:
        lhs = iterated_norm_power(spec, [Fraction(alpha) * Fraction(v) for v in x])
        rhs = Fraction(alpha) ** k * iterated_norm_power(spec, x)
        if lhs != rhs:
            return False
    return True


# -- linear equation solving / encryption over Z_p -----------------------


class InvalidKey(ValueError):
    """Key rejected: |a|^4 vanishes mod p, so a is not invertible."""


def encrypt(key, message, p, side="left"):
    """Encode the message c as the solution x of a*x = c over Z_p.

    side="left" solves a*x = c via x = |a|^-4 (conj(a)*c) * conj(a*conj(a));
    side="right" solves y*b = d via y = |b|^-4 conj(b*conj(b)) * (d*conj(b)).
    Raises InvalidKey when |key|^4 = 0 mod p.
    """
    algebra = tesseranion_algebra(IntegersModP(p))
    a = algebra.element(key)
    c = algebra.element(message)
    n4 = quartic_norm4(a)
    if n4 == 0:
        raise InvalidKey(f"|key|^4 = 0 mod {p}")
    inv = n4.inverse()
    abar = a.conj()
    if side == "left":
        x = (abar * c) * (a * abar).conj()
    elif side == "right":
        x = (a * abar).conj() * (c * abar)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return tuple(v.value for v in (x * inv).coeffs)


def decrypt(key, encoded, p, side="left"):
    """Recover c = a*x (or c = y*b for the right-sided scheme)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    algebra = tesseranion_algebra(IntegersModP(p))
    a = algebra.element(key)
    x = algebra.element(encoded)
    out = a * x if side == "left" else x * a
    return tuple(v.value for v in out.coeffs)
