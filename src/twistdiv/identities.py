"""Parenthesized polynomial identities of a twisted group algebra.

A monomial here is a full binary tree whose leaves are variables; the
tree fixes the bracketing of the product.  For a degree pattern such as
(x:2, y:2) the monomial set is every leaf word with that content times
every bracketing (Catalan many), and the *identity space* is the exact
rational nullspace of the coefficient-matrix whose columns are the
symbolic expansions of the monomials over generic elements.

Expansion is exact: a generic element is a list of polynomial
components, and a product multiplies them along the structure-tensor
entries, with monomials kept as packed exponent ints (see ``Expander``).
Any algebra with a ``dimension`` and structure-tensor ``entries``
can be expanded: twisted group algebras and the bilinear algebras A^+-
of ``structure`` alike.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import _linalg
from .poly import MultiPoly, _is_zero, nonzero_point

VARIABLE_NAMES = ("x", "y", "z")

MAX_TOTAL_DEGREE = 6
MAX_VARIABLES = 3


@dataclass(frozen=True)
class Leaf:
    var: int

    def serialize(self):
        return VARIABLE_NAMES[self.var]

    def leaves(self):
        return (self.var,)


@dataclass(frozen=True)
class Node:
    left: object
    right: object

    def serialize(self):
        return f"({self.left.serialize()}{self.right.serialize()})"

    def leaves(self):
        return self.left.leaves() + self.right.leaves()


def L(i):
    return Leaf(i)


def N(a, b):
    return Node(a, b)


def normalize_pattern(pattern):
    """Pattern as a tuple of per-variable degrees, e.g. (2, 2) or (5,)."""
    pattern = tuple(pattern)
    if not pattern or any(d < 0 for d in pattern) or sum(pattern) < 2:
        raise ValueError("pattern must have total degree >= 2")
    if len(pattern) > MAX_VARIABLES:
        raise ValueError(f"at most {MAX_VARIABLES} distinct variables")
    if sum(pattern) > MAX_TOTAL_DEGREE:
        raise ValueError(f"total degree capped at {MAX_TOTAL_DEGREE}")
    return pattern


def _bracketings(word):
    if len(word) == 1:
        return [Leaf(word[0])]
    out = []
    for k in range(1, len(word)):
        for left in _bracketings(word[:k]):
            for right in _bracketings(word[k:]):
                out.append(Node(left, right))
    return out


def _leaf_words(pattern):
    letters = []
    for var, deg in enumerate(pattern):
        letters.extend([var] * deg)
    return sorted(set(permutations(letters)))


def enumerate_monomials(pattern):
    """All bracketed monomials of the pattern, duplicate-free, in a fixed
    order: leaf words lexicographically, bracketings by split position."""
    pattern = normalize_pattern(pattern)
    out = []
    for word in _leaf_words(pattern):
        out.extend(_bracketings(word))
    return out


class Expander:
    """Caches symbolic expansions of bracket trees over one algebra.

    The algebra needs a ``dimension`` and structure-tensor ``entries``.
    The ambient polynomial ring has one indeterminate per (variable,
    component) pair, ordered x0.., y0.., z0..; a tree expands to one
    component per basis index, computed once per distinct subtree.

    A component is kept packed: a dict from an exponent vector, packed
    into one int, to its coefficient.  Indeterminate t owns the bit field
    of ``width`` bits at t * width, where 2^width exceeds ``degree``, the
    largest number of leaves a tree may have.  No exponent can then
    overflow its field, so the product of two monomials is the sum of
    their ints, and a node multiplies its children's components in one
    loop over ``entries`` straight into the output dicts (Monagan and
    Pearce, CASC 2007).  ``unpack`` turns a packed component back into a
    ``MultiPoly``; the packed form does not leave this module.
    """

    def __init__(self, algebra, nvars, degree=MAX_TOTAL_DEGREE):
        if nvars > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} distinct variables")
        self.entries = algebra.entries
        self.degree = degree
        self.width = max(degree, 1).bit_length()
        n = algebra.dimension
        self.vars = tuple(
            f"{VARIABLE_NAMES[v]}{i}" for v in range(nvars) for i in range(n)
        )
        self._cache = {
            Leaf(v).serialize(): [
                {1 << ((v * n + i) * self.width): 1} for i in range(n)
            ]
            for v in range(nvars)
        }

    def expand(self, tree):
        """Packed components of the tree's product."""
        key = tree.serialize()
        got = self._cache.get(key)
        if got is None:
            if isinstance(tree, Leaf):
                raise ValueError(f"variable {tree.serialize()} is out of range")
            if len(tree.leaves()) > self.degree:
                raise ValueError(f"tree has more than {self.degree} leaves")
            left, right = self.expand(tree.left), self.expand(tree.right)
            got = [defaultdict(int) for _ in left]
            for i, j, k, c in self.entries:
                xi, yj = left[i], right[j]
                if not xi or not yj:
                    continue
                acc = got[k]
                for e1, c1 in xi.items():
                    c1 *= c
                    for e2, c2 in yj.items():
                        acc[e1 + e2] += c1 * c2
            got = [{e: c for e, c in acc.items() if c} for acc in got]
            self._cache[key] = got
        return got

    def unpack(self, component):
        """The packed component as a ``MultiPoly`` over ``vars``."""
        width, mask = self.width, (1 << self.width) - 1
        shifts = range(0, len(self.vars) * width, width)
        return MultiPoly(
            self.vars,
            {tuple((e >> s) & mask for s in shifts): c for e, c in component.items()},
            _normalize=False,
        )


def identity_residual(algebra, combo):
    """Component polynomials of the combination over generic elements.

    The combination is an identity of the algebra iff every component is
    the zero polynomial; otherwise ``counterexample`` reads one off the
    first nonzero component.
    """
    if not combo:
        return []
    patterns = {tuple(sorted(tree.leaves())) for _, tree in combo}
    if len(patterns) > 1:
        raise ValueError("all monomials must share one degree pattern")
    (pattern,) = patterns
    expander = Expander(algebra, max(pattern) + 1, len(pattern))
    residual = [defaultdict(int) for _ in range(algebra.dimension)]
    for coeff, tree in combo:
        for acc, p in zip(residual, expander.expand(tree)):
            for e, c in p.items():
                acc[e] += coeff * c
    return [
        expander.unpack({e: c for e, c in acc.items() if c}) for acc in residual
    ]


def verify_identity(algebra, combo):
    """True iff the coefficient combination vanishes identically."""
    return all(_is_zero(c) for c in identity_residual(algebra, combo))


def counterexample(residual, dimension):
    """Counterexample read off a residual of ``identity_residual``.

    None when every component is the zero polynomial.  Otherwise the
    integer point at which the first nonzero component does not vanish,
    read off by ``nonzero_point`` and split into one vector of
    ``dimension`` components per variable, in the order of ``Expander``.
    """
    p = next((c for c in residual if not _is_zero(c)), None)
    if p is None:
        return None
    point = nonzero_point(p)
    return tuple(point[i:i + dimension] for i in range(0, len(point), dimension))


@dataclass
class IdentitySpace:
    pattern: tuple
    monomials: list
    nullspace_basis: list
    dimension: int

    def contains(self, coefficients):
        """Exact membership of a coefficient vector in the identity space."""
        rows = [list(v) for v in self.nullspace_basis]
        return _linalg.in_rowspace(rows, list(coefficients))

    def to_json(self):
        return {
            "pattern": list(self.pattern),
            "monomials": [t.serialize() for t in self.monomials],
            "dimension": self.dimension,
            "basis": [
                [[v.numerator, v.denominator] for v in map(Fraction, vec)]
                for vec in self.nullspace_basis
            ],
        }


def identity_space(algebra, pattern):
    """Exact nullspace of the monomial-expansion matrix for the pattern.

    Rows are polynomial coefficient slots (component index, packed
    exponent of ``Expander``) that some expansion reaches, in the order
    they are first met; each row is allocated when its slot first appears
    and filled in one pass over the expansions' terms.  The row order
    does not matter: the reduced row echelon form is unique, so
    ``nullspace`` returns the same basis for any order of the rows.
    """
    pattern = normalize_pattern(pattern)
    monomials = enumerate_monomials(pattern)
    expander = Expander(algebra, len(pattern), sum(pattern))
    m = len(monomials)
    slots = {}
    for j, tree in enumerate(monomials):
        for ci, p in enumerate(expander.expand(tree)):
            for exp, c in p.items():
                row = slots.get((ci, exp))
                if row is None:
                    row = slots[ci, exp] = [0] * m
                row[j] = c
    basis = _linalg.nullspace(list(slots.values()), ncols=m)
    return IdentitySpace(pattern, monomials, basis, len(basis))


# -- loop/alternativity laws -------------------------------------------


@dataclass
class LoopProperties:
    flexible: bool
    power_associative: bool
    alternative: bool
    left_bol: bool
    right_bol: bool
    moufang: bool
    commutative: bool
    associative: bool
    counterexamples: dict

    def to_json(self):
        data = {
            k: getattr(self, k)
            for k in (
                "flexible", "power_associative", "alternative", "left_bol",
                "right_bol", "moufang", "commutative", "associative",
            )
        }
        data["counterexamples"] = {
            k: [list(map(str, e.coeffs)) for e in v]
            for k, v in self.counterexamples.items()
        }
        return data


def _law_combos():
    x, y, z = L(0), L(1), L(2)
    one = lambda t: (1, t)
    neg = lambda t: (-1, t)
    return {
        "flexible": [one(N(N(x, y), x)), neg(N(x, N(y, x)))],
        "left_alternative": [one(N(x, N(x, y))), neg(N(N(x, x), y))],
        "right_alternative": [one(N(N(y, x), x)), neg(N(y, N(x, x)))],
        "commutative": [one(N(x, y)), neg(N(y, x))],
        "associative": [one(N(N(x, y), z)), neg(N(x, N(y, z)))],
        "left_bol": [one(N(x, N(y, N(x, z)))), neg(N(N(x, N(y, x)), z))],
        "right_bol": [one(N(N(N(z, x), y), x)), neg(N(z, N(N(x, y), x)))],
        "moufang": [one(N(N(x, y), N(z, x))), neg(N(N(x, N(y, z)), x))],
        "cube": [one(N(x, N(x, x))), neg(N(N(x, x), x))],
    }


def _power4_laws():
    # all five bracketings of x^4 must agree for power associativity
    first, *others = _bracketings((0, 0, 0, 0))
    return [[(1, first), (-1, other)] for other in others]


def loop_property_suite(algebra):
    """Exact verdicts for the standard loop laws, with counterexamples.

    Each law is decided by its residual over generic components: it holds
    iff the residual is the zero polynomial.  A failed law carries the
    elements that ``counterexample`` reads off that same residual, so
    every failed law has a counterexample.
    """
    examples = {}

    def holds(name, combo):
        residual = identity_residual(algebra, combo)
        vectors = counterexample(residual, algebra.dimension)
        if vectors is None:
            return True
        examples[name] = tuple(algebra.element(v) for v in vectors)
        return False

    laws = {name: holds(name, combo) for name, combo in _law_combos().items()}
    power_associative = laws["cube"] and all(
        holds("power_associative", c) for c in _power4_laws()
    )
    if not laws["cube"]:
        examples["power_associative"] = examples["cube"]
    return LoopProperties(
        flexible=laws["flexible"],
        power_associative=power_associative,
        alternative=laws["left_alternative"] and laws["right_alternative"],
        left_bol=laws["left_bol"],
        right_bol=laws["right_bol"],
        moufang=laws["moufang"],
        commutative=laws["commutative"],
        associative=laws["associative"],
        counterexamples=examples,
    )


# -- identities that involve the conjugation ---------------------------


def verify_conjugate_identities(algebra):
    """Symbolic truth of the conjugate-product identities.

    Over generic x, y: conj(x)*(x*y) = y*(x*conj(x)) and
    (y*x)*conj(x) = (x*conj(x))*y.
    """
    names = tuple(f"x{i}" for i in range(algebra.group.order)) + tuple(
        f"y{i}" for i in range(algebra.group.order)
    )
    x = algebra.generic_element("x", names)
    y = algebra.generic_element("y", names)
    xbar = x.conj()
    defects = (
        (xbar * (x * y)) - (y * (x * xbar)),
        ((y * x) * xbar) - ((x * xbar) * y),
    )
    return all(c.is_zero for d in defects for c in d.coeffs)
