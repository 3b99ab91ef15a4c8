"""Exact multivariate polynomial arithmetic and positivity tooling.

This module provides the symbolic backbone of the project:

* ``MultiPoly`` -- sparse multivariate polynomials with exact rational
  coefficients (a dict from exponent tuples to coefficients),
* exact determinants of small polynomial or scalar matrices,
* sum-of-squares certificates for determinant positivity,
* rational sign-change searches used to exhibit zero divisors, and
* exact univariate real-root machinery (Sturm chains, isolation).

Everything here is exact rational arithmetic; no decision touches a
float.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction


def indeterminates(prefixes, n):
    """The names of the components of generic elements of dimension n, one
    element per prefix: p0, ..., p{n-1} for each prefix p, in order."""
    return tuple(f"{p}{i}" for p in prefixes for i in range(n))


class MultiPoly:
    """Sparse polynomial in named indeterminates over the rationals.

    ``vars`` is the fixed tuple of indeterminate names; ``terms`` maps an
    exponent tuple (one slot per name) to a nonzero coefficient.  Two
    polynomials can be combined only when their variable tuples agree, so
    equality is structural.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None, _normalize=True):
        self.vars = tuple(variables)
        if terms is None:
            self.terms = {}
        elif _normalize:
            self.terms = {tuple(e): c for e, c in terms.items() if c != 0}
        else:
            self.terms = terms

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {}, _normalize=False)

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        if value == 0:
            return cls.zero(variables)
        exp = (0,) * len(variables)
        return cls(variables, {exp: value}, _normalize=False)

    @classmethod
    def variables(cls, names):
        names = tuple(names)
        k = len(names)
        return [
            cls(names, {(0,) * i + (1,) + (0,) * (k - 1 - i): 1}, _normalize=False)
            for i in range(k)
        ]

    # -- ring operations ------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiPoly(self.vars, terms, _normalize=False)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(
            self.vars, {e: -c for e, c in self.terms.items()}, _normalize=False
        )

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.constant(self.vars, other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if other == 0:
                return MultiPoly.zero(self.vars)
            return MultiPoly(
                self.vars,
                {e: c * other for e, c in self.terms.items()},
                _normalize=False,
            )
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(self.vars, terms, _normalize=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        return self.terms == MultiPoly.constant(self.vars, other).terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    # -- queries ----------------------------------------------------

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def evaluate(self, point):
        """Evaluate at a full point (sequence aligned with ``vars``)."""
        if len(point) != len(self.vars):
            raise ValueError("point length mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return total

    def specialize(self, bindings):
        """Exact partial substitution; unknown names raise KeyError."""
        for name in bindings:
            if name not in self.vars:
                raise KeyError(f"unknown indeterminate {name!r}")
        idx = {self.vars.index(n): v for n, v in bindings.items()}
        terms = {}
        for e, c in self.terms.items():
            new_c = c
            new_e = list(e)
            for i, val in idx.items():
                if e[i]:
                    new_c *= val ** e[i]
                new_e[i] = 0
            if new_c == 0:
                continue
            key = tuple(new_e)
            s = terms.get(key, 0) + new_c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return MultiPoly(self.vars, terms, _normalize=False)

    # -- presentation / serialization -------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def to_json(self):
        terms = []
        for e in sorted(self.terms):
            c = Fraction(self.terms[e])
            terms.append(
                {"exp": list(e), "num": c.numerator, "den": c.denominator}
            )
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, data):
        variables = tuple(data["vars"])
        terms = {
            tuple(t["exp"]): Fraction(t["num"], t["den"]) for t in data["terms"]
        }
        return cls(variables, terms)


def _is_zero(c):
    """Zero test for a scalar or a polynomial that builds no polynomial."""
    return c.is_zero if isinstance(c, MultiPoly) else c == 0


# -- determinants ----------------------------------------------------


def symbolic_det(rows):
    """Exact determinant of a small square matrix of polynomials or scalars.

    Uses minor expansion with shared sub-minors over column subsets
    (O(n * 2^n) multiplications), which is exact and cheap for the n <= 8
    matrices that occur here.  The expansion starts from the int 1, so
    integer entries keep integer coefficients.  The result is a
    ``MultiPoly`` when some entry is one; otherwise it is a ``Fraction``
    for integer or rational entries and a scalar of the entries' own ring
    (such as ``ModInt``) for any other.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    if n > 8:
        raise ValueError("matrix larger than 8x8")
    det = _minors(rows, n).get((1 << n) - 1, 0)
    if isinstance(det, MultiPoly):
        return det
    template = next(
        (x for row in rows for x in row if isinstance(x, MultiPoly)), None
    )
    if template is not None:
        return MultiPoly.constant(template.vars, det)
    return Fraction(det) if isinstance(det, int) else det


def _minors(rows, ncols):
    """{mask: det of ``rows`` on the column set ``mask``}, expanded from
    the int 1 (no rows: {0: 1}); a structurally zero minor has no key."""
    minors = {0: 1}
    for k, row in enumerate(rows):
        new = {}
        for mask, sub in minors.items():
            pos = 0
            for col in range(ncols):
                bit = 1 << col
                if mask & bit:
                    pos += 1
                    continue
                entry = row[col]
                if _is_zero(entry):
                    continue
                # position of col within the new mask decides the sign
                term = entry * sub if (k - pos) % 2 == 0 else -(entry * sub)
                key = mask | bit
                acc = new.get(key)
                new[key] = term if acc is None else acc + term
        minors = new
    return minors


def nonzero_point(p):
    """Integer point at which the polynomial ``p`` does not vanish.

    Combinatorial Nullstellensatz (Alon 1999): if prod x_i^t_i is a
    monomial of maximal total degree with a nonzero coefficient, ``p`` is
    nonzero somewhere on the box prod {0..t_i}.  The smallest such box is
    searched (coordinates outside the monomial stay 0; on the others the
    values 1..t_i come before 0), so at most 2^deg(p) exact evaluations
    are made.
    Raises ValueError on the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    top = max(p.terms, key=lambda e: (sum(e), -math.prod(t + 1 for t in e), e))
    for point in itertools.product(*((*range(1, t + 1), 0) for t in top)):
        if p.evaluate(point) != 0:
            return point
    raise AssertionError("no nonzero point on the Nullstellensatz box")


# -- sum-of-squares certificates --------------------------------------


@dataclass(frozen=True)
class SosCertificate:
    """Positive combination of squares: sum(coeff * base**2)."""

    parts: tuple

    def polynomial(self):
        total = None
        for coeff, base in self.parts:
            term = base * base * coeff
            total = term if total is None else total + term
        return total

    def to_json(self):
        return [
            {
                "coeff": {"num": Fraction(c).numerator, "den": Fraction(c).denominator},
                "base": b.to_json(),
            }
            for c, b in self.parts
        ]


def verify_sos(p, cert):
    """True iff sum(c_i * base_i^2) - p is exactly the zero polynomial.

    A base over other indeterminates than p's makes the check False.
    """
    if not cert.parts:
        return p.is_zero
    if any(Fraction(c) <= 0 or b.vars != p.vars for c, b in cert.parts):
        return False
    return (cert.polynomial() - p).is_zero


def _even_sign(terms):
    """Sign shared by (exponent, coefficient) terms with only even
    exponents: 1 if every coefficient is > 0, -1 if every one is < 0, 0
    for no term, None for an odd exponent or mixed signs.

    A sum of terms of sign 1 (or -1) is > 0 (or < 0) at every point whose
    coordinates are nonzero on the terms' variables.
    """
    sign = 0
    for e, c in terms:
        s = 1 if c > 0 else -1
        if sign == -s or any(k % 2 for k in e):
            return None
        sign = s
    return sign


def _diagonal_support(base):
    """Variable set of a base that is a one-signed sum of pure powers.

    Returns the set of variable indices the base pins to zero, or None if
    the base is not of that shape.  A base c1*v1^k1 + ... + cm*vm^km with
    all coefficients of one sign vanishes exactly on {v1 = .. = vm = 0}
    when every exponent is even or there is a single summand.
    """
    support = set()
    for e in base.terms:
        nz = [i for i, k in enumerate(e) if k]
        if len(nz) != 1:
            return None
        support.add(nz[0])
    if len(base.terms) > 1 and not _even_sign(base.terms.items()):
        return None
    return support or None


def certifies_positive_definite(p, cert):
    """Soundly decide that a verified SOS certificate pins p > 0 off 0.

    Every base is squared with a positive weight, so p(y) = 0 forces each
    base to vanish at y.  A base that is a one-signed diagonal form (pure
    powers of single variables) vanishes only where all its variables are
    0, so it pins them; any other base pins nothing and is skipped.  When
    the pinned variables cover the ambient ring, the only real zero of p
    is the origin.
    """
    if not verify_sos(p, cert):
        return False
    covered = set()
    for _, base in cert.parts:
        covered |= _diagonal_support(base) or set()
    return covered == set(range(len(p.vars)))


def find_diagonal_sos(p):
    """Positive-definiteness certificate read off p's terms, or None.

    When every term c * y^e has even exponents and c > 0, p is the sum of
    c * (y^(e/2))^2: a sum of squares of monomials, i.e. a diagonal Gram
    matrix.  The certificate is returned only if it proves p positive
    definite, which happens exactly when every variable has a pure even
    power among p's terms.
    """
    if _even_sign(p.terms.items()) != 1:
        return None
    cert = SosCertificate(tuple(
        (Fraction(p.terms[e]),
         MultiPoly(p.vars, {tuple(k // 2 for k in e): 1}, _normalize=False))
        for e in sorted(p.terms)
    ))
    return cert if certifies_positive_definite(p, cert) else None


def perfect_square_root(p):
    """Exact square root of a polynomial, or None.

    Greedy extraction under graded-lex term order; valid because a
    polynomial square's leading term is the square of the factor's
    leading term.
    """
    if p.is_zero:
        return MultiPoly.zero(p.vars)
    order = lambda e: (sum(e), e)
    lead = max(p.terms, key=order)
    lc = Fraction(p.terms[lead])
    if lc < 0 or any(k % 2 for k in lead):
        return None
    root_lc = rational_root(lc)
    if root_lc is None:
        return None
    root_lead = tuple(k // 2 for k in lead)
    root = MultiPoly(p.vars, {root_lead: root_lc})
    residual = p - root * root
    # repeatedly match the leading residual term against 2*root_leading.
    # Each step cancels the residual's leading term and adds only smaller
    # terms, so the leading term falls strictly in the graded order, which
    # has finitely many monomials below it: the loop ends.
    while not residual.is_zero:
        r_lead = max(residual.terms, key=order)
        new_exp = tuple(a - b for a, b in zip(r_lead, root_lead))
        if any(k < 0 for k in new_exp):
            return None
        coeff = Fraction(residual.terms[r_lead]) / (2 * root_lc)
        root = root + MultiPoly(p.vars, {new_exp: coeff})
        residual = p - root * root
        if residual.terms and max(residual.terms, key=order) == r_lead:
            return None  # leading term did not drop; not a square
    return root


def integer_root(n, k):
    """Floor of the integer k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_root(x, k=2):
    """Exact rational k-th root of x, or None when x has none."""
    x = Fraction(x)
    if x < 0:
        return None
    num = integer_root(x.numerator, k)
    den = integer_root(x.denominator, k)
    if num**k == x.numerator and den**k == x.denominator:
        return Fraction(num, den)
    return None


def find_psd_sos(p):
    """Certificate that p >= 0 for indefinite-looking PSD quartics.

    Tries p = (sum eps_i v_i^2)^2 + c * q^2 with eps in {+-1} and q an
    exact square root of the remainder, c in {1, 2, 4}.  This covers the
    positive semidefinite determinants that occur for rejected sign
    arrays whose real zeros are all irrational.  Those determinants have
    nontrivial real zeros, so their certificates verify as SOS but never
    as positive definite.
    """
    if p.degree() != 4 or not p.is_homogeneous():
        return None
    gens = MultiPoly.variables(p.vars)
    squares = [g * g for g in gens]
    for signs in itertools.product((1, -1), repeat=len(gens) - 1):
        q1 = squares[0]
        for s, sq in zip(signs, squares[1:]):
            q1 = q1 + sq if s > 0 else q1 - sq
        rem = p - q1 * q1
        if rem.is_zero:
            cert = SosCertificate(((Fraction(1), q1),))
            if verify_sos(p, cert):
                return cert
            continue
        for c in (1, 2, 4):
            scaled = rem * Fraction(1, c)
            root = perfect_square_root(scaled)
            if root is not None:
                cert = SosCertificate(((Fraction(1), q1), (Fraction(c), root)))
                if verify_sos(p, cert):
                    return cert
    return None


# -- sign-change witnesses ---------------------------------------------


@dataclass(frozen=True, slots=True)
class SignChangeWitness:
    """Rational points with p(pos) > 0 and p(nonpos) <= 0.

    By continuity p has a real zero on the segment joining them; both
    points are nonzero, so the zero certifies a nontrivial zero divisor
    when p is a multiplication-matrix determinant.
    """

    positive_point: tuple
    nonpositive_point: tuple
    positive_value: Fraction
    nonpositive_value: Fraction

    def verify(self, value_at):
        """True iff ``value_at`` gives both recorded values and they differ
        in sign as claimed, with the nonpositive point off the origin."""
        return (
            any(self.nonpositive_point)
            and value_at(self.positive_point) == self.positive_value > 0
            and value_at(self.nonpositive_point) == self.nonpositive_value <= 0
        )

    def to_json(self):
        def pt(v):
            return [[Fraction(x).numerator, Fraction(x).denominator] for x in v]

        return {
            "kind": "sign-change",
            "positive_point": pt(self.positive_point),
            "nonpositive_point": pt(self.nonpositive_point),
            "positive_value": str(self.positive_value),
            "nonpositive_value": str(self.nonpositive_value),
        }


_SLICE_VALUES_2 = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, -3)
_SLICE_VALUES_1 = (1, -1, 2, -2)


def _probe_slices(nvars):
    """(support bitmask, lazy points) for each slice of the structured
    probes, in their order; a slice is the set of probes with one support.

    The triples' zero sets in lexicographic order are the triples in
    reverse lexicographic order.
    """
    supports = [*itertools.combinations(range(nvars), 2)]
    supports += reversed([*itertools.combinations(range(nvars), 3)])
    if nvars > 3:
        supports.append(range(nvars))
    for nonzero in supports:
        yield sum(1 << i for i in nonzero), _slice_points(nvars, nonzero)


def _slice_points(nvars, nonzero):
    values = _SLICE_VALUES_2 if len(nonzero) == 2 else _SLICE_VALUES_1
    point = [0] * nvars
    for vals in itertools.product(values, repeat=len(nonzero)):
        for i, v in zip(nonzero, vals):
            point[i] = v
        yield tuple(point)


def structured_probes(nvars):
    """Deterministic probe points, coarse to fine.

    Mirrors the rejection route used for the order-4 case analyses: slices
    with two components nonzero first, then three, then the
    all-components-nonzero sign patterns.  Every slice value is nonzero,
    so the stages have supports of exactly 2, 3 and ``nvars`` components
    and no point repeats; at ``nvars`` = 3 the last stage would repeat the
    second, so it runs only for ``nvars`` > 3.
    """
    for _, points in _probe_slices(nvars):
        yield from points


def find_sign_change(p):
    """Search rational points u, v with p(u) > 0 and p(v) <= 0.

    Walks the structured probes and keeps the first point of each sign.
    Returns a SignChangeWitness, whose values are ``Fraction``s, or None;
    absence is *not* a positivity proof.

    The probes are walked one slice (one support) at a time, and only the
    terms whose exponent is 0 off the slice's support are kept.  When
    those terms all have even exponents and coefficients of one sign, p
    has one sign on the whole slice, because no probe coordinate is 0:
    > 0 if every coefficient is > 0, and <= 0 if every one is < 0 or no
    term is left.  Then only the slice's first point can be kept, so it
    is evaluated only if no point of that sign is kept yet, and the rest
    of the slice is skipped.  The kept points and values are those of the
    full walk.

    Each probe is evaluated over the integers on the nonzero coordinates
    of each term: with L the lcm of p's coefficient denominators, D that
    of the probe's (1 for an all-int probe, which is taken as it stands)
    and d = deg p,

        p(x) = (L D^d)^-1 * sum (L c) D^(d - |e|) (D x)^e,

    whose sum is an integer of the sign of p(x).  The one division is
    made only for the two points kept.
    """
    if not p.vars:
        raise ValueError("polynomial must have at least one indeterminate")
    degree = max(p.degree(), 0)
    lcm = math.lcm(*[c.denominator for c in p.terms.values()])
    # (support bitmask, e, L c, nonzero (index, exponent) pairs, d - |e|)
    # per term; e is p's own tuple and the pairs a list, since a tuple built
    # from a generator is shrunk and, once freed, kept in CPython's free
    # list of its final size, which raised peak memory.
    scaled = [
        (sum(1 << i for i, _ in pairs), e, int(c * lcm), pairs, degree - sum(e))
        for e, c in p.terms.items()
        for pairs in [[(i, k) for i, k in enumerate(e) if k]]
    ]
    kept = {}  # total > 0 -> (point, value) of the first probe of that sign
    for support, points in _probe_slices(len(p.vars)):
        terms = [t for t in scaled if t[0] | support == support]
        sign = _even_sign([(e, c) for _, e, c, _, _ in terms])
        if sign is not None:
            points = () if (sign > 0) in kept else (next(points),)
        for pt in points:
            den, xs = 1, pt
            if Fraction in map(type, pt):
                den = math.lcm(*[x.denominator for x in pt])
                xs = [x.numerator * (den // x.denominator) for x in pt]
            total = 0
            for _, _, c, pairs, deficit in terms:
                for i, k in pairs:
                    c *= xs[i] ** k
                total += c * den**deficit
            if (total > 0) not in kept:
                kept[total > 0] = pt, Fraction(total, lcm * den**degree)
                if len(kept) == 2:
                    (pos, pos_value), (nonpos, nonpos_value) = kept[True], kept[False]
                    return SignChangeWitness(pos, nonpos, pos_value, nonpos_value)
    return None


# -- univariate exact real-root analysis over the integers ---------------


def _trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _primitive(coeffs):
    """The positive multiple of ``coeffs`` (ints or Fractions) with coprime
    integer coefficients, trimmed; [0] for the zero polynomial."""
    den = math.lcm(*[c.denominator for c in coeffs])
    ints = _trim([c.numerator * (den // c.denominator) for c in coeffs])
    content = math.gcd(*ints)
    return [c // content for c in ints] if content else ints


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [0]


def _pseudo_divmod(a, b):
    """(q, r) with |lc(b)|^k a = q b + r, deg r < deg b, for integer lists
    a and b != 0: q and r are positive multiples of the rational quotient
    and remainder, as each step scales by |lc(b)| > 0 alone."""
    lead, db = abs(b[-1]), len(b) - 1
    q, r = [0] * max(len(a) - db, 1), list(a)
    while len(r) > db and any(r):
        f = r[-1] if b[-1] > 0 else -r[-1]
        shift = len(r) - 1 - db
        q = [lead * c for c in q]
        q[shift] += f
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r = _trim(r[:-1])  # the leading term cancelled
    return q, r


def squarefree_part(coeffs):
    """p / gcd(p, p') as coprime integers, a positive multiple of the
    rational squarefree part: the distinct roots of p, each once.  The
    gcd comes from Collins' primitive remainder sequence."""
    p = _primitive(coeffs)
    a, b = p, _derivative(p)
    while any(b):
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    # times lc(a), the quotient is a positive multiple of p / monic(a)
    return p if len(a) == 1 else _primitive(
        [a[-1] * c for c in _pseudo_divmod(p, a)[0]])


def sturm_chain(coeffs):
    """Sturm chain p, p', -rem(p, p'), ... of ``coeffs`` as integer lists,
    up to a zero remainder or a constant member.  Each member is the
    primitive part of a negated pseudo-remainder, a positive multiple of
    the classical member, so every sign variation count is classical."""
    p0 = _primitive(coeffs)
    chain = [p0, _primitive(_derivative(p0))]
    while len(chain[-1]) > 1:
        r = _primitive(_pseudo_divmod(chain[-2], chain[-1])[1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _variations(chain, a, b):
    """Sign variations of the chain at a / b (b > 0), zeros dropped; a
    member c_0 .. c_d is evaluated as the integer
    sum c_i a^i b^(d - i) = b^d p(a / b), of the sign of p(a / b)."""
    signs = []
    for coeffs in chain:
        value, power = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            power *= b
            value = value * a + c * power
        if value:
            signs.append(value > 0)
    return sum(map(operator.ne, signs, signs[1:]))


def _squarefree_chain(coeffs):
    """(Sturm chain, Cauchy bound) of the squarefree part; a nonzero
    constant has no chain, so no sign variations anywhere.  An empty list
    or the zero polynomial, which vanishes everywhere, is a ValueError."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    if not any(coeffs):
        raise ValueError("zero polynomial")
    sf = squarefree_part(coeffs)
    return ([], 1) if len(sf) == 1 else (sturm_chain(sf), cauchy_bound(sf))


def count_real_roots(coeffs, lo=None, hi=None):
    """Distinct real roots of the polynomial in (lo, hi] via Sturm.

    Counts on the integer chain of the squarefree part, so a multiple
    root counts once.  An omitted end is taken at minus or plus the
    ``cauchy_bound``, which strictly encloses every root, so the count is
    the same as at -inf or +inf.  An empty list, the zero polynomial or
    lo > hi is a ValueError.
    """
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"empty interval: lo {lo} > hi {hi}")
    chain, bound = _squarefree_chain(coeffs)
    lo = Fraction(-bound if lo is None else lo)
    hi = Fraction(bound if hi is None else hi)
    return (_variations(chain, lo.numerator, lo.denominator)
            - _variations(chain, hi.numerator, hi.denominator))


def cauchy_bound(coeffs):
    coeffs = _trim(list(coeffs))
    lead = abs(coeffs[-1])
    if lead == 0:
        raise ValueError("zero polynomial")
    return 1 + Fraction(max(map(abs, coeffs[:-1]), default=0), lead)


ROOT_INTERVAL_WIDTH = Fraction(1, 16)


def isolate_real_root(coeffs):
    """Rational interval (lo, hi] of width at most ``ROOT_INTERVAL_WIDTH``
    holding exactly one real root, or None when there is none; an empty
    list or the zero polynomial is a ValueError.  Sturm-guided bisection
    of the Cauchy interval on one integer chain: the ends share a
    denominator, doubled at each step, and their sign variations are
    kept, so a step evaluates the chain once, at the midpoint."""
    chain, bound = _squarefree_chain(coeffs)
    a_lo, a_hi, den = -bound.numerator, bound.numerator, bound.denominator
    v_lo, v_hi = _variations(chain, a_lo, den), _variations(chain, a_hi, den)
    if v_lo == v_hi:
        return None
    while v_lo - v_hi > 1 or a_hi - a_lo > ROOT_INTERVAL_WIDTH * den:
        mid, a_lo, a_hi, den = a_lo + a_hi, 2 * a_lo, 2 * a_hi, 2 * den
        v_mid = _variations(chain, mid, den)
        if v_lo > v_mid:  # a root in (lo, mid]
            a_hi, v_hi = mid, v_mid
        else:
            a_lo, v_lo = mid, v_mid
    return Fraction(a_lo, den), Fraction(a_hi, den)
