"""One-parameter deformations of the Z4-graded division algebra.

The six free cells (alpha, beta, delta, epsilon, phi, omega) of the Z4
table shape, ``classify.SHAPES["Z4"]``, are allowed arbitrary nonzero
rational values; the shape's other cells keep their normalized signs.
This module provides:

* the necessary sign conditions for absence of zero divisors,
* the eight one-parameter families, each of which scales some cells of
  the undeformed table ``TES_PARAMS`` by k, with their exact validity
  ranges (irrational endpoints are handled by exact rational sign
  predicates),
* zero-divisor witness searches on the parametric determinants (the
  exact rejection route of ``classify``),
* basis-rebuild machinery: the structure constant generated by a chosen
  element w (basis 1, w, w^2, w*w^2), used for the k <-> 1/k
  isomorphism, and
* the commutator-bracket rescaling onto the undeformed Lie algebra.

Open here: whether the family-1 algebras arise from generalized
Cayley-Dickson doubling constructions (they do not appear to), and the
sharper validity bound for family 5 given by the positive root of
8 sqrt(r) - r^2 + 6 r + 3 = -(sqrt(r) - 3) (sqrt(r) + 1)^3, which is
exactly r = 9; the conservative bound 3 + 2 sqrt(3) is what gates
validity.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import RATIONALS, StructureConstant, TwistedAlgebra, tesseranion_algebra
from .classify import PARAM_NAMES, det_polynomial, shaped_constant, zero_divisor_witness
from .groups import LEFT_STANDARD
from .norms import generates_whole_algebra
from .poly import rational_root
from .structure import commutator_algebra

TES_PARAMS = {"alpha": -1, "beta": -1, "delta": 1, "epsilon": 1, "phi": -1, "omega": 1}


def parametric_constant(params):
    """Structure constant of the Z4 table shape, in the left-standard basis.

    params maps the six names to nonzero rationals; the fixed cells
    (powers of the generator and the half-order square) keep their
    normalized values 1, 1 and -1.
    """
    p = {k: Fraction(v) for k, v in params.items()}
    if set(p) != set(PARAM_NAMES):
        raise ValueError(f"need exactly the parameters {PARAM_NAMES}")
    if any(v == 0 for v in p.values()):
        raise ValueError("parameters must be nonzero")
    return shaped_constant("Z4", p, LEFT_STANDARD)


NECCONS = (
    ("-eps*beta > 0", lambda p: -p["epsilon"] * p["beta"] > 0),
    ("-alpha*delta*omega > 0", lambda p: -p["alpha"] * p["delta"] * p["omega"] > 0),
    ("-phi > 0", lambda p: -p["phi"] > 0),
    ("alpha*beta*omega > 0", lambda p: p["alpha"] * p["beta"] * p["omega"] > 0),
    ("eps*delta > 0", lambda p: p["epsilon"] * p["delta"] > 0),
)

NECCONS_COROLLARIES = (
    ("-delta*beta > 0", lambda p: -p["delta"] * p["beta"] > 0),
    ("-alpha*eps*omega > 0", lambda p: -p["alpha"] * p["epsilon"] * p["omega"] > 0),
)


def neccons_check(params):
    """Necessary sign conditions for a division algebra; (ok, violated)."""
    p = {k: Fraction(v) for k, v in params.items()}
    if any(v == 0 for v in p.values()):
        raise ValueError("parameters must be nonzero")
    violated = [name for name, pred in NECCONS if not pred(p)]
    violated += [
        name for name, pred in NECCONS_COROLLARIES if not pred(p)
    ]
    return (not violated, violated)


# -- validity ranges (exact rational predicates) --------------------------


def _above_two_thirds_sqrt3_minus_1(k):
    # k > (2/3) sqrt(3) - 1  <=>  k + 1 > 0 and 3 (k+1)^2 > 4
    k = Fraction(k)
    return k + 1 > 0 and 3 * (k + 1) ** 2 > 4


def _in_0_to_3_plus_2_sqrt3(k):
    # 0 < k <= 3 + 2 sqrt(3); for rational k the upper boundary cannot be
    # attained, so this is 0 < k <= 3 or (k - 3)^2 < 12
    k = Fraction(k)
    return k > 0 and (k <= 3 or (k - 3) ** 2 < 12)


# family id -> (the cells of TES_PARAMS scaled by k, validity predicate)
FAMILIES = {
    1: (("alpha", "omega"), lambda k: k > 0),
    2: (("beta", "delta"), lambda k: k > 0),
    3: (("epsilon", "omega"), lambda k: k > 0),
    4: (("alpha", "epsilon", "omega"), _above_two_thirds_sqrt3_minus_1),
    5: (("delta",), _in_0_to_3_plus_2_sqrt3),
    6: (("omega",), _in_0_to_3_plus_2_sqrt3),
    7: (("beta",), _in_0_to_3_plus_2_sqrt3),
    8: (("alpha",), _in_0_to_3_plus_2_sqrt3),
}


class FamilyMember:
    __slots__ = ("family", "k", "parameters", "in_range")

    def __init__(self, family, k, parameters, in_range):
        self.family = family
        self.k = k  # a Fraction
        self.parameters = parameters  # ((name, value), ...)
        self.in_range = in_range

    @property
    def parameter_map(self):
        return dict(self.parameters)

    def constant(self):
        return parametric_constant(self.parameter_map)

    def algebra(self):
        return TwistedAlgebra(self.constant(), RATIONALS)


def family_constant(family, k):
    """Member of one of the eight one-parameter families.

    Out-of-range k is still constructible (for witness experiments) but
    flagged; at k = 1 every family degenerates to the undeformed algebra.
    k = 0 is refused: it would zero the scaled cells.
    """
    if family not in FAMILIES:
        raise ValueError("family id must be 1..8")
    k = Fraction(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    scaled, in_range = FAMILIES[family]
    params = {
        name: v * k if name in scaled else Fraction(v)
        for name, v in TES_PARAMS.items()
    }
    return FamilyMember(
        family, k, tuple(sorted(params.items())), bool(in_range(k))
    )


def witness_search(constant):
    """Zero-divisor witness on det M^L for a parametric constant.

    Runs classify's rejection route, ``zero_divisor_witness``.  Returns a
    SignChangeWitness, a RealRootRejection or None; None only says no
    zero divisor was found, not a positivity proof (reports must label it
    as such).
    """
    return zero_divisor_witness(det_polynomial(constant))


# -- basis rebuilds from a chosen generator -------------------------------


def structure_constant_from_generator(algebra, w):
    """Structure constant of the basis (1, w, w^2, w*w^2), if graded.

    Returns None unless the rebuilt basis spans the algebra and every
    product v'_a v'_b is a nonzero multiple of v'_{a+b mod 4} (so the
    basis carries a cyclic grading with the same table shape).  The
    multiple is read off the target's first nonzero coordinate.
    """
    if not generates_whole_algebra(w):
        return None
    w2 = w * w
    basis = [algebra.one(), w, w2, w * w2]
    values = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            prod = (basis[a] * basis[b]).coeffs
            target = basis[(a + b) % 4].coeffs
            i = next(i for i, c in enumerate(target) if c != 0)
            lam = prod[i] / target[i]
            if lam == 0 or any(p != lam * t for p, t in zip(prod, target)):
                return None
            values[a][b] = lam
    return StructureConstant(algebra.group, values, LEFT_STANDARD)


def k_inverse_isomorphism(k):
    """Generator w' = [0,0,0,1/sqrt(k)] rebuilds family 1 at 1/k.

    Requires k to be the square of a rational so the rebuilt basis stays
    rational; returns True when the rebuilt structure constant equals the
    family-1 member at 1/k exactly.
    """
    k = Fraction(k)
    s = rational_root(k)
    if s is None:
        raise ValueError("k must be the square of a rational")
    member = family_constant(1, k)
    algebra = member.algebra()
    w_prime = algebra.element([0, 0, 0, Fraction(1) / s])
    rebuilt = structure_constant_from_generator(algebra, w_prime)
    if rebuilt is None:
        return False
    return rebuilt.values == family_constant(1, Fraction(1) / k).constant().values


def commutator_rescaling(k):
    """Rescale the deformed commutator algebra onto the undeformed one.

    The family-1 bracket sends [v3, v1] to (1+k)/2 v0; when (1+k)/2 is
    u^-2 for a rational u, rescaling the two odd basis vectors by u maps
    the brackets exactly onto the undeformed commutator algebra.  At
    k = -1 that bracket vanishes and no rescaling exists.
    Returns (possible, matched).
    """
    k = Fraction(k)
    if k == -1:
        return False, False
    u = rational_root(Fraction(2) / (1 + k))  # u^2 = 2 / (1 + k)
    if u is None:
        return False, False
    member = family_constant(1, k)
    deformed = commutator_algebra(member.algebra()).coefficients()
    reference = commutator_algebra(tesseranion_algebra()).coefficients()
    scale = (Fraction(1), u, Fraction(1), u)
    rescaled = {
        (i, j, t): c * scale[i] * scale[j] / scale[t]
        for (i, j, t), c in deformed.items()
    }
    return True, rescaled == reference

