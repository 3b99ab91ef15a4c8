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
only once det M^L has passed, since no other route reads it); otherwise the
structured probes look for a rational sign-change pair for det M^L (a
point with positive value and a nonzero point with nonpositive value);
failing that, det M^L is restricted to rational lines until one has a
real root, isolated with a Sturm certificate (the handful of sign arrays
this rejects have positive *semi*definite determinants whose nontrivial
real zeros are all irrational, so no rational sign-change pair exists,
and each line witness carries the ``find_psd_sos`` evidence of its
determinant); a table no route decides is left undetermined.  A
positive-definite certificate and a sign change exclude each other, so
the order of the first two routes cannot change a verdict.

Every zero divisor on a rational line, whether found by the line search,
carried along a sign-rescaling orbit, or forced by an odd-order cyclic
subgroup, is built by ``RealRootRejection.on_line``, which shares its
restriction to the line with ``RealRootRejection.verify``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import RATIONALS, AlgebraElement, StructureConstant, TwistedAlgebra
from .groups import LEFT_STANDARD, RIGHT_STANDARD, group_by_name
from .identities import identity_space, loop_property_suite
from .poly import (
    SignChangeWitness,
    certifies_positive_definite,
    count_real_roots,
    find_diagonal_sos,
    find_psd_sos,
    find_sign_change,
    isolate_real_root,
    symbolic_det,
    uni_coeffs,
    verify_sos,
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
    is malformed (position out of range, wrong base length, zero base)."""
    nvars = len(det_poly.vars)
    if not 0 <= position < nvars or len(base) != nvars - 1 or not any(base):
        return None
    others = (v for i, v in enumerate(det_poly.vars) if i != position)
    bindings = {name: Fraction(v) for name, v in zip(others, base)}
    return uni_coeffs(det_poly.specialize(bindings), det_poly.vars[position])


@dataclass(frozen=True)
class RealRootRejection:
    """Zero divisor via a real root of the determinant on a rational line.

    The line fixes every component except one: component ``position``
    runs over t and the others take the rational values in ``base`` (not
    all zero, so the line avoids the origin).  ``coefficients`` is the
    restricted determinant, which has a real root inside ``interval``.
    ``psd`` is an SOS certificate that the determinant is nonnegative
    everywhere, when ``find_psd_sos`` finds one.
    """

    position: int
    base: tuple
    coefficients: tuple
    interval: tuple
    root_count: int
    psd: object = None

    @classmethod
    def on_line(cls, det_poly, position, base):
        """The verified witness on this line, or None when the restriction
        has no real root (or the line is malformed)."""
        coeffs = _restrict_to_line(det_poly, position, base)
        if coeffs is None or len(coeffs) <= 1:
            return None
        interval = isolate_real_root(coeffs)
        if interval is None:
            return None
        # the isolating interval holds exactly one root
        witness = cls(
            position, tuple(base), tuple(coeffs), interval, 1, find_psd_sos(det_poly)
        )
        return witness if witness.verify(det_poly) else None

    def verify(self, det_poly):
        coeffs = _restrict_to_line(det_poly, self.position, self.base)
        if coeffs is None or [Fraction(c) for c in self.coefficients] != coeffs:
            return False
        lo, hi = self.interval
        return count_real_roots(coeffs, lo, hi) >= self.root_count >= 1 and (
            self.psd is None or verify_sos(det_poly, self.psd)
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
    psd_annotations: dict  # candidate index -> SosCertificate (PSD evidence)

    def counts(self):
        return {
            "examined": self.candidates_examined,
            "rejected": len(self.rejected),
            "survivors": len(self.survivors),
            "undetermined": len(self.undetermined),
        }


def _sign_options(k):
    return itertools.product((1, -1), repeat=k)


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
        for signs in _sign_options(len(cells)):
            values = [[1] * n for _ in range(n)]
            for (a, b), s in zip(cells, signs):
                values[a][b] = s
            constant = StructureConstant(group, values, convention)
            out.append(CandidateConstant(constant, ()))
        return out
    if mode != SHAPED:
        raise ValueError(f"unknown enumeration mode {mode!r}")
    names = shape_parameters(group.name)
    for signs in _sign_options(len(names)):
        params = tuple(zip(names, signs))
        constant = shaped_constant(group, dict(params), convention)
        out.append(CandidateConstant(constant, params))
    return out


def det_polynomial(constant, left=True):
    """det M^L in y (``left``) or det M^R in x, as an exact polynomial."""
    algebra = TwistedAlgebra(constant, RATIONALS)
    prefix = "y" if left else "x"
    names = tuple(f"{prefix}{i}" for i in range(constant.group.order))
    v = algebra.generic_element(prefix, names)
    return symbolic_det(
        algebra.mult_matrix_left(v) if left else algebra.mult_matrix_right(v)
    )


def det_polynomials(constant):
    """(det M^L in y, det M^R in x) as exact polynomials."""
    return det_polynomial(constant), det_polynomial(constant, left=False)


def line_root_rejection(det_poly):
    """First rational-line restriction of the determinant with a real root."""
    nvars = len(det_poly.vars)
    bases = list(itertools.product((1, 0, -1, 2), repeat=nvars - 1))
    for position in range(nvars):
        for base in bases:
            witness = RealRootRejection.on_line(det_poly, position, base)
            if witness is not None:
                return witness
    return None


def zero_divisor_witness(det_l):
    """Zero-divisor witness on det M^L, or None.

    The structured probes look for a rational sign change; failing that,
    rational lines are tried until one restriction has a Sturm-certified
    real root.  None only says no zero divisor was found, not that the
    determinant is positive definite.
    """
    return find_sign_change(det_l) or line_root_rejection(det_l)


def _classify_one(candidate):
    """The table's survivor certificate or zero-divisor witness, or None;
    det M^R is built only once det M^L has its survivor certificate."""
    det_l = det_polynomial(candidate.constant)
    cert_l = find_diagonal_sos(det_l)
    if cert_l is not None:
        cert_r = find_diagonal_sos(det_polynomial(candidate.constant, left=False))
        if cert_r is not None:
            return SurvivorCertificate("positive-definite-sos", cert_l, cert_r)
    return zero_divisor_witness(det_l)


@functools.cache
def _rescaling_signs(group):
    """(signs, s) for every sign vector s with s_0 = 1, where
    signs[a][b] = s_a s_b s_ab; built once per group."""
    out = []
    for rest in _sign_options(group.order - 1):
        s = (1,) + rest
        signs = tuple(
            tuple(s[a] * s[b] * s[ab] for b, ab in enumerate(row))
            for a, row in enumerate(group.cayley)
        )
        out.append((signs, s))
    return tuple(out)


def _rescaled_tables(constant):
    """(table, s) for every sign vector s with s_0 = 1.

    Rescaling the basis, v_g -> s_g v_g, turns C into the table
    C^s(a, b) = s_a s_b s_ab C(a, b).  The map w_g -> s_g v_g is a graded
    isomorphism from the algebra of C^s onto that of C, so
    det M^L_{C^s}(y) = det M^L_C(s o y), and likewise for M^R.
    """
    for signs, s in _rescaling_signs(constant.group):
        table = tuple(
            tuple(map(operator.mul, sign_row, row))
            for sign_row, row in zip(signs, constant.values)
        )
        yield table, s


def _transport(result, s, candidate):
    """The result of C carried to the candidate with table C^s.

    A sign change or survivor certificate is mapped by y -> s o y and
    re-verified exactly on the candidate's own multiplication matrices; a
    line root is rebuilt on the mapped line, on the candidate's own
    det M^L.  Returns None when a check fails or there is no certificate
    to carry.
    """
    if result is None:
        return None

    def flip(point):
        return tuple(si * v for si, v in zip(s, point))

    if isinstance(result, SignChangeWitness):
        # det_{C^s}(s o p) = det_C(p): both values carry over unchanged
        algebra = TwistedAlgebra(candidate.constant, RATIONALS)
        witness = SignChangeWitness(
            flip(result.positive_point),
            flip(result.nonpositive_point),
            result.positive_value,
            result.nonpositive_value,
        )
        # AlgebraElement keeps integer points in ints, which algebra.element
        # would coerce to Fractions; symbolic_det returns a Fraction either way
        certified = witness.verify(
            lambda p: symbolic_det(
                algebra.mult_matrix_left(AlgebraElement(algebra, p))
            )
        )
        return witness if certified else None
    if isinstance(result, RealRootRejection):
        det_l = det_polynomial(candidate.constant)
        # the line y_i = t, y_j = base_j of C is, under y -> s o y, the
        # line y_i = t, y_j = s_j base_j of C^s (t -> s_i t spans it too)
        others = (v for i, v in enumerate(s) if i != result.position)
        base = tuple(si * v for si, v in zip(others, result.base))
        return RealRootRejection.on_line(det_l, result.position, base)
    # the SOS bases are monomials, whose squares are unchanged by y -> s o y
    certified = result.verify(*det_polynomials(candidate.constant))
    return result if certified else None


def classify(group, convention=LEFT_STANDARD, mode=SHAPED):
    """Full classification run; deterministic given the enumeration order.

    Every rejected candidate carries a verified zero-divisor certificate
    and every survivor carries verified positive-definiteness
    certificates for both determinants.  Candidates with neither land in
    the undetermined bucket; for the shaped runs of the supported groups
    that bucket is empty.

    The first candidate of each sign-rescaling orbit is classified; a
    later candidate of the same orbit gets that result mapped by
    y -> s o y, its certificates re-verified on its own determinants,
    and is classified itself if any check fails.
    """
    if isinstance(group, str):
        group = group_by_name(group)
    candidates = enumerate_candidates(group, convention, mode)
    if group.order == 1:
        cert = SurvivorCertificate("odd-dimension-unit", None, None)
        return ClassificationReport(
            group.name, convention, mode, 1, [], [(candidates[0], cert)], [], {}
        )
    rejected, survivors, undetermined, psd_notes = [], [], [], {}
    orbit_results = {}  # table C^s -> (result for C, s)
    for idx, cand in enumerate(candidates):
        known = orbit_results.get(cand.constant.values)
        result = _transport(*known, cand) if known else None
        if result is None:
            result = _classify_one(cand)
            if known is None:
                for table, s in _rescaled_tables(cand.constant):
                    orbit_results.setdefault(table, (result, s))
        psd = None
        if isinstance(result, SurvivorCertificate):
            survivors.append((cand, result))
        elif result is None:
            undetermined.append(cand)
            psd = find_psd_sos(det_polynomial(cand.constant))
        else:
            rejected.append((cand, result))
            if isinstance(result, RealRootRejection):
                psd = result.psd
        if psd is not None:
            psd_notes[idx] = psd
    return ClassificationReport(
        group.name,
        convention,
        mode,
        len(candidates),
        rejected,
        survivors,
        undetermined,
        psd_notes,
    )


def opposite_uniqueness_check(group):
    """The mirrored convention's unique survivor is the transpose.

    For each order-4 group the shaped classification in either basis
    convention yields one survivor, and the two survivors are each
    other's transposed arrays (the opposite algebra).  Z2's survivor is
    its own transpose.  The primary convention is the one the group's
    shape is written in.
    """
    if isinstance(group, str):
        group = group_by_name(group)
    primary = _shape(group.name)[0]
    mirror = RIGHT_STANDARD if primary == LEFT_STANDARD else LEFT_STANDARD
    rep_a = classify(group, primary, SHAPED)
    rep_b = classify(group, mirror, SHAPED)
    if len(rep_a.survivors) != 1 or len(rep_b.survivors) != 1:
        return False
    const_a = rep_a.survivors[0][0].constant
    const_b = rep_b.survivors[0][0].constant
    return const_b.values == const_a.transpose().values


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
