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
from functools import cache
from itertools import permutations

from . import _linalg
from .poly import MultiPoly, _is_zero, indeterminates, nonzero_point

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


@cache
def _shapes(size):
    """Every full binary tree with ``size`` leaves, a leaf as None and a
    node as a (left, right) pair, ordered by split position, then by the
    left shape, then by the right."""
    if size == 1:
        return (None,)
    return tuple(
        (left, right)
        for k in range(1, size)
        for left in _shapes(k)
        for right in _shapes(size - k)
    )


def _fill(shape, leaves):
    """The tree of ``shape`` with the leaves taken in order from the
    iterator ``leaves``."""
    if shape is None:
        return next(leaves)
    left, right = shape
    return Node(_fill(left, leaves), _fill(right, leaves))


def _bracketings(word):
    """Every bracketing of the word, in the order of ``_shapes``."""
    leaves = [Leaf(v) for v in word]
    return [_fill(shape, iter(leaves)) for shape in _shapes(len(word))]


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

    The algebra needs a ``dimension`` and structure-tensor ``entries``,
    read as given: both algebra classes hold an integral constant as an
    int.  The ambient polynomial ring has one indeterminate per (variable,
    component) pair, ordered x0.., y0.., z0..; a tree expands to one
    component per basis index.

    Each product is computed once per distinct pair of factors.  The
    product of a tree with fewer than ``degree`` leaves may be a factor
    of a larger tree, so it is looked up by its content and equal
    products are one shared object (over an associative algebra, every
    bracketing of a word).  A node's product is cached under the pair of
    its children's shared objects, so a call walks the tree and no tree is
    a key; a tree with ``degree`` leaves is never a factor and is not
    looked up by content.

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

    def __init__(self, algebra, nvars, degree):
        if nvars > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} distinct variables")
        self.entries = algebra.entries
        self.degree = degree
        self.width = max(degree, 1).bit_length()
        n = algebra.dimension
        self.vars = indeterminates(VARIABLE_NAMES[:nvars], n)
        # the components of each variable, by ``Leaf.var``
        self._leaves = [
            [{1 << ((v * n + i) * self.width): 1} for i in range(n)]
            for v in range(nvars)
        ]
        # content -> the shared product; (id, id) of two factors -> their
        # product.  ``_leaves`` and ``_shared`` hold every factor, so the
        # ids stay valid.
        self._shared = {}
        self._products = {}

    def expand(self, tree):
        """Packed components of the tree's product."""
        if isinstance(tree, Leaf):
            if not 0 <= tree.var < len(self._leaves):
                raise ValueError(f"variable {tree.var} is out of range")
            return self._leaves[tree.var]
        leaves = len(tree.leaves())
        if leaves > self.degree:
            raise ValueError(f"tree has more than {self.degree} leaves")
        left, right = self.expand(tree.left), self.expand(tree.right)
        pair = id(left), id(right)
        got = self._products.get(pair)
        if got is None:
            got = self._multiply(left, right)
            if leaves < self.degree:
                content = tuple(frozenset(p.items()) for p in got)
                got = self._shared.setdefault(content, got)
            self._products[pair] = got
        return got

    def _multiply(self, left, right):
        out = [{} for _ in left]
        for i, j, k, c in self.entries:
            xi, yj = left[i], right[j]
            if not xi or not yj:
                continue
            # sums and products commute: run the outer loop over the shorter
            if len(xi) > len(yj):
                xi, yj = yj, xi
            acc = out[k]
            get = acc.get
            for e1, c1 in xi.items():
                c1 *= c
                for e2, c2 in yj.items():
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
        return [{e: c for e, c in acc.items() if c} for acc in out]

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

    The matrix is built with one column per distinct expansion object of
    ``Expander``, numbered by ``id`` in first-seen order (over H at
    (2,2,1), 120 for 420 monomials), each object's terms written once,
    and ``nullspace`` gets the map from each monomial to its column.  Rows
    are coefficient slots that some expansion reaches, one dict per
    component from packed exponent to row.  The row order does not
    matter: the reduced row echelon form is unique.
    """
    pattern = normalize_pattern(pattern)
    monomials = enumerate_monomials(pattern)
    expander = Expander(algebra, len(pattern), sum(pattern))
    objects, columns = {}, []
    for tree in monomials:
        got = expander.expand(tree)
        columns.append(objects.setdefault(id(got), (len(objects), got))[0])
    slots = [{} for _ in range(algebra.dimension)]
    for j, got in objects.values():
        for slot, p in zip(slots, got):
            for exp, c in p.items():
                row = slot.get(exp)
                if row is None:
                    row = slot[exp] = [0] * len(objects)
                row[j] = c
    basis = _linalg.nullspace([r for s in slots for r in s.values()], columns)
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
    x, y = algebra.generic_elements("x", "y")
    xbar = x.conj()
    defects = (
        (xbar * (x * y)) - (y * (x * xbar)),
        ((y * x) * xbar) - ((x * xbar) * y),
    )
    return all(c.is_zero for d in defects for c in d.coeffs)
