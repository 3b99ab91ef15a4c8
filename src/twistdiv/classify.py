"""Classification of sign-valued structure constants into division algebras.

For a grading group of order <= 4, every unital {1,-1} structure constant
is either

* rejected, with an exact certificate of a nontrivial zero divisor, or
* certified as a division algebra via positive-definiteness certificates
  for both multiplication-matrix determinants, or
* left in an explicit "undetermined" bucket (sound incompleteness).

Each table is decided by exact routes, in this order: a survivor is
certified when both determinants have only even exponents and positive
coefficients, with a pure even power of every variable, which makes
each a positive-definite sum of squares of monomials (det M^R is built
only once det M^L has passed, since no other route reads it); otherwise
the structured probes look for a rational sign-change pair for det M^L
(``find_sign_change``: each probe is evaluated over the integers on the
nonzero coordinates of each term, and a probe slice on which det M^L is
a one-signed sum of even monomials has one sign, so at most its first
probe is evaluated); failing that, det M^L is restricted to rational
lines until one has a real root, isolated with a Sturm certificate over
the integers (the handful of sign arrays this rejects have positive
*semi*definite determinants whose nontrivial real zeros are all
irrational; the line witness is the whole verdict, and the PSD evidence
for its determinant is computed only on request, by ``psd_certificate``);
a table no route decides is left undetermined.  A
positive-definite certificate and a zero witness exclude each other, so
the order of the routes cannot change a verdict.  Tables with the same
det M^L have the same zero-divisor answer, so within one ``classify``
call each distinct det M^L goes through the probes and the line search
once, and a later table with it gets that witness with no other route.

Both determinants are read off one Leibniz table per (group, side),
built on first use (``_leibniz_table``): each entry of M^L(y) is one cell
C(a, b) times one y_b, so each permutation's sign, monomial and cells
depend on the group alone, and ``det_polynomial`` only multiplies out,
in plain loops, the cells of the flat table at hand (sign and rational
deformation cells alike, an integral one as an int).  ``verify_verdict``
reads no Leibniz table, so it shares neither the table nor the
polynomial it checks: it re-checks a sign change on the numeric matrix
M^L at its two points, built by ``algebra.mult_matrix`` at the point
itself and reduced by the fraction-free ``_linalg.det``, which does the
one clearing of denominators, row by row; it re-checks a line root or a
survivor on determinants that ``symbolic_det`` expands from the
polynomial matrices ``algebra.mult_matrix`` builds.

Every zero divisor on a rational line, whether found by the line search
or forced by an odd-order cyclic subgroup, is built by
``RealRootRejection.on_line``, which shares its restriction to the line
with ``RealRootRejection.verify``: ``_restrict_to_line`` reads the
coefficients in t straight off the determinant's terms.
``verify_verdict`` is the one re-check of any verdict on its table's own
determinants.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .algebra import StructureConstant, _narrow, mult_matrix, structure_entries
from .groups import LEFT_STANDARD, RIGHT_STANDARD, group_by_name
from .identities import identity_space, loop_property_suite
from .poly import (
    MultiPoly,
    SignChangeWitness,
    _trim,
    certifies_positive_definite,
    count_real_roots,
    find_diagonal_sos,
    find_psd_sos,
    find_sign_change,
    indeterminates,
    isolate_real_root,
    symbolic_det,
)

SHAPED = "shaped"
RAW = "raw"

# Each group's sign table in a normalized standard basis (power cells 1,
# half-order squares -1), in the basis convention it is written in: a cell
# is a sign the basis forces or the name of a free parameter.
SHAPES = {
    "Z1": (LEFT_STANDARD, ((1,),)),
    "Z2": (LEFT_STANDARD, ((1, 1), (1, "alpha"))),
    "Z2xZ2": (RIGHT_STANDARD, (
        (1, 1, 1, 1),
        (1, -1, 1, "alpha"),
        (1, "beta", -1, "delta"),
        (1, "epsilon", "phi", -1),
    )),
    "Z4": (LEFT_STANDARD, (
        (1, 1, 1, 1),
        (1, 1, 1, "alpha"),
        (1, "beta", -1, "delta"),
        (1, "epsilon", "phi", "omega"),
    )),
}


def _shape(group_name):
    if group_name not in SHAPES:
        raise ValueError(f"no table shape for group {group_name}")
    return SHAPES[group_name]


def shape_parameters(group_name):
    """The free cells of a group's shape, in row-major order."""
    _, rows = _shape(group_name)
    return tuple(cell for row in rows for cell in row if isinstance(cell, str))


PARAM_NAMES = shape_parameters("Z4")


def shaped_constant(group, params, convention):
    """The group's shape with each free cell set from ``params`` (a map
    from parameter name to value), in the requested basis convention."""
    if isinstance(group, str):
        group = group_by_name(group)
    written_in, rows = _shape(group.name)
    values = [[params[c] if isinstance(c, str) else c for c in row] for row in rows]
    constant = StructureConstant(group, values, written_in)
    return constant if convention == written_in else constant.transpose()


@dataclass(frozen=True)
class CandidateConstant:
    constant: StructureConstant
    parameters: tuple  # ((name, value), ...) for shaped candidates, () for raw

    @property
    def parameter_map(self):
        return dict(self.parameters)


def _restrict_to_line(det_poly, position, base):
    """Ascending coefficients in t of ``det_poly`` with component
    ``position`` set to t and the others to ``base``; None when the line
    is malformed (position out of range, wrong base length, zero base).

    Each term's coefficient times the base powers is added into slot
    ``e[position]``; a zero product is skipped and a slot that sums to
    zero is reset to the int 0, so an int stays an int and a Fraction a
    Fraction."""
    nvars = len(det_poly.vars)
    if not 0 <= position < nvars or len(base) != nvars - 1 or not any(base):
        return None
    point = list(base)
    point.insert(position, 1)
    coeffs = [0] * (max((e[position] for e in det_poly.terms), default=0) + 1)
    for e, c in det_poly.terms.items():
        for x, k in zip(point, e):
            if k:
                c *= x**k
        if c:
            coeffs[e[position]] = coeffs[e[position]] + c or 0
    return _trim(coeffs)


@dataclass(frozen=True)
class RealRootRejection:
    """Zero divisor via a real root of the determinant on a rational line.

    The line fixes every component except one: component ``position``
    runs over t and the others take the rational values in ``base`` (not
    all zero, so the line avoids the origin).  ``coefficients`` is the
    restricted determinant, which has a real root inside ``interval``.
    The witness carries no PSD evidence: ``psd_certificate`` gives the
    determinant's certificate of nonnegativity to a caller that asks.
    """

    position: int
    base: tuple
    coefficients: tuple
    interval: tuple
    root_count: int

    @classmethod
    def on_line(cls, det_poly, position, base):
        """The verified witness on this line, or None when the restriction
        has no real root or the line is malformed."""
        coeffs = _restrict_to_line(det_poly, position, base)
        if coeffs is None or len(coeffs) <= 1:
            return None
        interval = isolate_real_root(coeffs)
        if interval is None:
            return None
        # the isolating interval holds exactly one root
        witness = cls(position, tuple(base), tuple(coeffs), interval, 1)
        return witness if witness.verify(det_poly) else None

    def verify(self, det_poly):
        """True iff the restriction to the line is ``coefficients`` and it
        has a root in the interval; False, not an error, for a malformed
        line, a constant or zero restriction, or an interval with
        lo >= hi."""
        coeffs = _restrict_to_line(det_poly, self.position, self.base)
        if coeffs is None or [Fraction(c) for c in self.coefficients] != coeffs:
            return False
        lo, hi = self.interval
        return (
            len(coeffs) > 1
            and lo < hi
            and count_real_roots(coeffs, lo, hi) >= self.root_count >= 1
        )

    def to_json(self):
        return {
            "kind": "real-root-on-line",
            "position": self.position,
            "base": [str(v) for v in self.base],
            "coefficients": [str(c) for c in self.coefficients],
            "interval": [str(v) for v in self.interval],
            "root_count": self.root_count,
        }


@dataclass(frozen=True)
class SurvivorCertificate:
    kind: str  # "positive-definite-sos" or "odd-dimension-unit"
    cert_left: object
    cert_right: object

    def verify(self, det_l, det_r):
        """True iff the certificates prove det M^L and det M^R positive
        definite; for an odd-dimension unit, iff each determinant is a
        single term c * v^k (k >= 1) in its one variable, so that it
        vanishes only at 0."""
        if self.kind == "odd-dimension-unit":
            return all(
                len(d.vars) == 1 and len(d.terms) == 1 and d.degree() > 0
                for d in (det_l, det_r)
            )
        return certifies_positive_definite(
            det_l, self.cert_left
        ) and certifies_positive_definite(det_r, self.cert_right)


@dataclass
class ClassificationReport:
    group_name: str
    convention: str
    mode: str
    candidates_examined: int
    rejected: list  # (CandidateConstant, witness)
    survivors: list  # (CandidateConstant, SurvivorCertificate)
    undetermined: list  # CandidateConstant

    def counts(self):
        return {
            "examined": self.candidates_examined,
            "rejected": len(self.rejected),
            "survivors": len(self.survivors),
            "undetermined": len(self.undetermined),
        }


def enumerate_candidates(group, convention, mode=SHAPED):
    """Candidate unital sign arrays for the group and basis convention.

    Shaped mode fills the group's ``SHAPES`` entry (the cells a normalized
    standard basis forces) with every sign choice for its free cells, the
    first in row-major order varying slowest; raw mode enumerates every
    unital sign array.
    """
    if isinstance(group, str):
        group = group_by_name(group)
    n = group.order
    if n not in (1, 2, 4):
        raise ValueError("candidate enumeration supports orders 1, 2 and 4 only")
    out = []
    if mode == RAW:
        cells = [(a, b) for a in range(1, n) for b in range(1, n)]
        for signs in itertools.product((1, -1), repeat=len(cells)):
            values = [[1] * n for _ in range(n)]
            for (a, b), s in zip(cells, signs):
                values[a][b] = s
            constant = StructureConstant(group, values, convention)
            out.append(CandidateConstant(constant, ()))
        return out
    if mode != SHAPED:
        raise ValueError(f"unknown enumeration mode {mode!r}")
    names = shape_parameters(group.name)
    for signs in itertools.product((1, -1), repeat=len(names)):
        params = tuple(zip(names, signs))
        constant = shaped_constant(group, dict(params), convention)
        out.append(CandidateConstant(constant, params))
    return out


@functools.cache
def _leibniz_table(group, left):
    """det M^L (``left``) or det M^R of every table over ``group``, as
    (variables, ((exponent, ((sign, cells), ...)), ...)); built once per
    (group, side) on first use.

    Cell (ab, a) of M^L(y) is C(a, b) y_b and cell (ab, b) of M^R(x) is
    x_a C(a, b), so each permutation of the Leibniz sum contributes its
    sign times a product of cells times a monomial, and which cells and
    which monomial depend on the group alone.  ``cells`` indexes the
    row-major flattened table; a unit cell (a or b the identity) is 1
    and left out.  The coefficient of each exponent is then
    sum(sign * prod(C[cells])) for any commutative cell values.
    """
    n = group.order
    if n > 8:  # the table has n! permutations: 40 320 at order 8
        raise ValueError("determinant of an order above 8")
    # (variable, cells) of matrix cell (row, column)
    entries = [[None] * n for _ in range(n)]
    for a, row in enumerate(group.cayley):
        for b, ab in enumerate(row):
            cell = (a * n + b,) if a and b else ()
            entries[ab][a if left else b] = (b if left else a, cell)
    terms = {}  # exponent -> [(sign, cells), ...]
    # permutations come in lexicographic order, as do their Lehmer codes,
    # whose digit sum is the number of inversions
    codes = itertools.product(*map(range, range(n, 0, -1)))
    for perm, code in zip(itertools.permutations(range(n)), codes):
        exponent, cells = [0] * n, ()
        for row, col in zip(entries, perm):
            var, cell = row[col]
            exponent[var] += 1
            cells += cell
        terms.setdefault(tuple(exponent), []).append(
            (-1 if sum(code) & 1 else 1, cells)
        )
    names = indeterminates(("y" if left else "x",), n)
    return names, tuple((e, tuple(products)) for e, products in terms.items())


def det_polynomial(constant, left=True):
    """det M^L in y (``left``) or det M^R in x, as an exact polynomial,
    read off the group's Leibniz table (``_leibniz_table``); a coefficient
    is a ``Fraction`` exactly when a product reads a non-integral cell."""
    names, table = _leibniz_table(constant.group, left)
    flat = [_narrow(v) for row in constant.values for v in row]
    terms = {}
    for exponent, products in table:
        coeff = 0
        for sign, idx in products:
            for i in idx:
                sign *= flat[i]
            coeff += sign
        if coeff:
            terms[exponent] = coeff
    return MultiPoly(names, terms, _normalize=False)


def det_polynomials(constant):
    """(det M^L in y, det M^R in x) as exact polynomials."""
    return det_polynomial(constant), det_polynomial(constant, left=False)


def line_root_rejection(det_poly):
    """First rational-line restriction of the determinant with a real root,
    as ``RealRootRejection.on_line`` verified it.  The Sturm-certified root
    decides the table; no PSD search runs here (see ``psd_certificate``)."""
    nvars = len(det_poly.vars)
    bases = list(itertools.product((1, 0, -1, 2), repeat=nvars - 1))
    for position in range(nvars):
        for base in bases:
            witness = RealRootRejection.on_line(det_poly, position, base)
            if witness is not None:
                return witness
    return None


def psd_certificate(constant):
    """``find_psd_sos``'s certificate that det M^L of the table is
    nonnegative everywhere, or None.  The one place PSD evidence is
    computed: a line-root rejection does not carry it, and no route of
    ``classify`` reads it."""
    return find_psd_sos(det_polynomial(constant))


def zero_divisor_witness(det_l):
    """Zero-divisor witness on det M^L, or None.

    The structured probes look for a rational sign change; failing that,
    rational lines are tried until one restriction has a Sturm-certified
    real root.  None only says no zero divisor was found, not that the
    determinant is positive definite.
    """
    return find_sign_change(det_l) or line_root_rejection(det_l)


def _classify_one(candidate, witnesses):
    """The table's survivor certificate or zero-divisor witness, or None;
    det M^R is built only once det M^L has its survivor certificate.

    ``witnesses`` maps the terms of each det M^L searched so far to its
    ``zero_divisor_witness``: a table whose det M^L is there with a
    witness gets it, with no search and no survivor check, which it
    would fail; one stored with None may still have a survivor's det M^R.
    """
    det_l = det_polynomial(candidate.constant)
    key = frozenset(det_l.terms.items())
    witness = witnesses.get(key)
    if witness is not None:
        return witness
    cert_l = find_diagonal_sos(det_l)
    if cert_l is not None:
        cert_r = find_diagonal_sos(det_polynomial(candidate.constant, left=False))
        if cert_r is not None:
            return SurvivorCertificate("positive-definite-sos", cert_l, cert_r)
    if key not in witnesses:
        witnesses[key] = zero_divisor_witness(det_l)
    return witnesses[key]


def _det_left_at(constant):
    """det M^L of the table as an exact function of a rational point (None
    for a point of the wrong length), with no polynomial built: M^L at the
    point, scaled to ints by its common denominator D, comes from the
    product kernel ``mult_matrix``; its determinant from ``_linalg.det``
    is divided by D^n, as det M^L is homogeneous of degree n.
    """
    entries = structure_entries(constant)
    n = constant.group.order

    def det_l(point):
        if len(point) != n:
            return None
        den, ints = _linalg.clear_denominators(point)
        d = _linalg.det(mult_matrix(entries, ints, True, 0))
        return d if den == 1 else Fraction(d, den**n)

    return det_l


def _det_expanded(constant, left=True):
    """det M^L in y (``left``) or det M^R in x, the same polynomial as
    ``det_polynomial``, by ``symbolic_det``'s minor expansion of the
    polynomial matrix that ``mult_matrix`` builds: no Leibniz table."""
    names = indeterminates(("y" if left else "x",), constant.group.order)
    v = MultiPoly.variables(names)
    return symbolic_det(mult_matrix(structure_entries(constant), v, left, 0))


def verify_verdict(constant, verdict):
    """True iff ``verdict`` certifies ``constant``: a sign change by the
    exact det M^L at its two points (``_det_left_at``), a line root by
    ``RealRootRejection.verify`` on det M^L, a survivor by
    ``SurvivorCertificate.verify`` on both, each determinant expanded by
    ``_det_expanded``.  No branch reads the Leibniz table that the search
    used."""
    if isinstance(verdict, SignChangeWitness):
        return verdict.verify(_det_left_at(constant))
    if isinstance(verdict, RealRootRejection):
        return verdict.verify(_det_expanded(constant))
    if isinstance(verdict, SurvivorCertificate):
        return verdict.verify(_det_expanded(constant), _det_expanded(constant, False))
    return False


def classify(group, convention=LEFT_STANDARD, mode=SHAPED):
    """Full classification run; deterministic given the enumeration order.

    Every rejected candidate carries a verified zero-divisor certificate
    and every survivor carries verified positive-definiteness
    certificates for both determinants.  Candidates with neither land in
    the undetermined bucket; for the shaped runs of the supported groups
    that bucket is empty.

    A table is rejected exactly when det M^L or det M^R vanishes off 0,
    so tables with the same det M^L share one zero-divisor answer: each
    distinct det M^L is searched once per call, and its witness is kept
    only until the call returns.
    """
    if isinstance(group, str):
        group = group_by_name(group)
    candidates = enumerate_candidates(group, convention, mode)
    if group.order == 1:
        cert = SurvivorCertificate("odd-dimension-unit", None, None)
        return ClassificationReport(
            group.name, convention, mode, 1, [], [(candidates[0], cert)], []
        )
    rejected, survivors, undetermined = [], [], []
    witnesses = {}  # terms of det M^L -> its zero_divisor_witness
    for cand in candidates:
        result = _classify_one(cand, witnesses)
        if isinstance(result, SurvivorCertificate):
            survivors.append((cand, result))
        elif result is None:
            undetermined.append(cand)
        else:
            rejected.append((cand, result))
    return ClassificationReport(group.name, convention, mode, len(candidates),
                                rejected, survivors, undetermined)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-separating invariants of a 4-dimensional candidate."""

    power_associative: bool
    flexible: bool
    commutative: bool
    identity_dims: tuple  # ((pattern, dim), ...)

    def to_json(self):
        return {
            "power_associative": self.power_associative,
            "flexible": self.flexible,
            "commutative": self.commutative,
            "identity_dims": {
                ",".join(map(str, p)): d for p, d in self.identity_dims
            },
        }


FINGERPRINT_PATTERNS = ((2, 1), (4,))


def non_isomorphism_fingerprint(algebra):
    """Fingerprint used to separate the order-4 survivors.

    The quaternion algebra is power associative while the Z4 survivor is
    not (its generator w satisfies w * w^2 = -(w^2) * w), so the first
    bit already distinguishes them.
    """
    if algebra.group.order != 4:
        raise ValueError("fingerprints are defined for 4-dimensional algebras")
    props = loop_property_suite(algebra)
    dims = tuple(
        (p, identity_space(algebra, p).dimension) for p in FINGERPRINT_PATTERNS
    )
    return Fingerprint(
        power_associative=props.power_associative,
        flexible=props.flexible,
        commutative=props.commutative,
        identity_dims=dims,
    )


def odd_order_zero_divisor(constant):
    """Line witness for any grading group whose order has an odd prime factor.

    Let g have odd prime order p and H = <g>.  The line is y_0 = t with
    y_h = 1 for h in H minus 0 and every other component 0, so y lies in
    the subalgebra graded by H.  Then M^L(y) maps each coset block
    span{v_a : a in c + H} into itself, and det M^L(y) is the product of
    the block determinants.  The H block has t times a sign on its
    diagonal and constants elsewhere, so its determinant has odd degree p
    in t and a real root, which is a real root of the restriction: the
    witness always exists.
    """
    group = constant.group
    n = group.order
    if n & (n - 1) == 0:
        raise ValueError("group order is a power of 2; no odd-order subalgebra")
    odd = n // (n & -n)
    p = next(q for q in range(3, odd + 1, 2) if odd % q == 0)  # least odd prime factor
    g = next(h for h in range(1, n) if group.element_order(h) == p)
    powers = set()  # H minus 0
    x = g
    while x != 0:
        powers.add(x)
        x = group.mul(x, g)
    base = tuple(int(h in powers) for h in range(1, n))
    return RealRootRejection.on_line(det_polynomial(constant), 0, base)
